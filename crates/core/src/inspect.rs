//! The crash-image reader: one report of what a pool or crash image holds.
//!
//! A commit is its checksum-sealed record behind one flush+fence, so a
//! crash image is described by two things: its log chains and its flight
//! recorder. [`forensics`] reads both, without modifying the image, into
//! one [`ForensicReport`]:
//!
//! * the `fsck` half — pool validity and geometry, and per chain how many
//!   committed records it holds, what timestamps they span, and how much
//!   log a reclamation cycle would drop ([`ChainSummary`]);
//! * the recorder half — the rings merged into one timeline, the work
//!   they show open at the crash, and every commit receipt checked against
//!   the durability frontier the chains and the checkpoint give.
//!
//! `examples/log_inspect.rs` prints the report as a table or as JSON.

use std::collections::BTreeMap;
use std::fmt;

use specpmt_pmem::blackbox::{decode_region, kv_op_name, BbEvent, BbKind};
use specpmt_pmem::{CrashImage, PoolHeader, Site};
use specpmt_telemetry::JsonWriter;

use crate::layout::PoolLayout;
use crate::reclaim::FreshnessIndex;
use crate::record::{read_checkpoint, RecordReader, ENTRY_HDR};
use crate::recovery::RecoveryReport;

/// Summary of one thread's (or epoch's) log chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainSummary {
    /// Chain index: the layout's head-table slot the head was read from.
    pub tid: usize,
    /// Head block offset.
    pub head: usize,
    /// Committed (checksum-valid) records.
    pub records: usize,
    /// Total entries across records.
    pub entries: usize,
    /// Total payload bytes across records.
    pub payload_bytes: usize,
    /// Entries fully overwritten by younger committed records (any chain):
    /// a reclamation cycle would drop them.
    pub stale_entries: usize,
    /// Log bytes (record and entry headers, stale bytes) a reclamation
    /// cycle would reclaim from this chain: the same compaction, against
    /// the same kind of [`FreshnessIndex`], the reclamator itself runs.
    pub reclaimable_bytes: usize,
    /// Commit-timestamp range (min, max), if any records exist.
    pub ts_range: Option<(u64, u64)>,
}

/// A persisted commit *receipt* whose commit timestamp exceeds every
/// committed log record **and** the checkpoint watermark.
///
/// Receipts are staged only after their commit fence returns, so a
/// persisted receipt proves its record was durable first; a violation is
/// therefore direct evidence of a receipt-before-fence ordering bug (the
/// class the PR-7 group-commit fix closed). The flight recorder turns
/// that invariant into a post-crash check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicViolation {
    /// Ring (thread) that staged the receipt.
    pub tid: u16,
    /// Per-ring sequence number of the offending event.
    pub seq: u32,
    /// The receipt's commit timestamp — ahead of every durable record.
    pub commit_ts: u64,
    /// Crash-site name of the fence the receipt claims completed
    /// (decoded from the event's `b` operand).
    pub site: &'static str,
}

/// A transaction the event record shows as open at the crash: a
/// `tx_begin` with no later `tx_commit`/`tx_abort` on the same ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicInFlight {
    /// Ring (thread) with the open transaction or KV operation.
    pub tid: u16,
    /// Device-local ns timestamp of the open `tx_begin` (0 when only a
    /// KV op is open — the shard began no durable transaction yet).
    pub begin_ts: u64,
    /// Op class of an open KV dispatch (`kv_op` with no `kv_op_done`),
    /// e.g. `"cas"`. `None` for plain transactional work.
    pub kv_op: Option<&'static str>,
}

/// What a crash image holds, produced by [`forensics`]: its chains and
/// what its flight recorder said.
///
/// Nothing in an image is trusted: a pool whose layout does not parse
/// (no runtime formatted it, or the descriptor is corrupt) reports no
/// geometry and no chains, and an image without a recorder region
/// (recorder off, or no layout) reports
/// [`recorder_present`](Self::recorder_present) `false` and no events.
/// Torn ring slots are *counted*, never fatal — the report degrades, the
/// pool still recovers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForensicReport {
    /// Whether the pool magic validated.
    pub valid_pool: bool,
    /// Persistent bump pointer (heap high-water).
    pub heap_bump: u64,
    /// Log block size from the layout (0 when no layout parsed).
    pub block_bytes: usize,
    /// Chain slots the pool was formatted with (0 when no layout parsed).
    pub threads: usize,
    /// Per-chain summaries (only threads with non-zero heads).
    pub chains: Vec<ChainSummary>,
    /// Parsed checkpoint watermark (0 when no checkpoint survives).
    pub checkpoint_watermark: u64,
    /// A valid black-box region was found and decoded.
    pub recorder_present: bool,
    /// Rings in the region (threads + 1 daemon ring).
    pub rings: usize,
    /// Event slots per ring.
    pub capacity: usize,
    /// Slots whose checksum failed (torn at the crash) — skipped.
    pub events_torn: usize,
    /// All surviving events merged on the deterministic `(ts, tid, seq)`
    /// order.
    pub events: Vec<BbEvent>,
    /// Transactions/KV ops the record shows open at the crash.
    pub in_flight: Vec<ForensicInFlight>,
    /// Youngest surviving checkpoint splice.
    pub last_ckpt_splice: Option<BbEvent>,
    /// Commit receipts decoded.
    pub commit_receipts: usize,
    /// Largest commit timestamp among surviving receipts (0 when none).
    pub max_receipt_ts: u64,
    /// Receipt-ahead-of-durability violations (see [`ForensicViolation`]).
    pub violations: Vec<ForensicViolation>,
}

impl ForensicReport {
    /// Total committed records across all chains.
    pub fn total_records(&self) -> usize {
        self.chains.iter().map(|c| c.records).sum()
    }

    /// Total stale (fully overwritten) entries across all chains.
    pub fn total_stale_entries(&self) -> usize {
        self.chains.iter().map(|c| c.stale_entries).sum()
    }

    /// Total log bytes a reclamation cycle would reclaim across all
    /// chains.
    pub fn total_reclaimable_bytes(&self) -> usize {
        self.chains.iter().map(|c| c.reclaimable_bytes).sum()
    }

    /// Global commit-timestamp range, if any records exist.
    pub fn ts_range(&self) -> Option<(u64, u64)> {
        let mut out: Option<(u64, u64)> = None;
        for c in &self.chains {
            if let Some((lo, hi)) = c.ts_range {
                out = Some(match out {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        }
        out
    }

    /// The durability frontier: the newest committed record's timestamp or
    /// the checkpoint watermark, whichever is larger. Receipts may lawfully
    /// lag it (they persist lazily) but never lead it.
    pub fn frontier(&self) -> u64 {
        self.ts_range().map_or(0, |(_, hi)| hi).max(self.checkpoint_watermark)
    }

    /// No ordering violations decoded. Vacuously true when the recorder
    /// is absent.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The last `n` merged events — what an operator reads first.
    pub fn tail(&self, n: usize) -> &[BbEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// Cross-checks the event record against what recovery reported,
    /// returning one line per inconsistency (empty = consistent).
    ///
    /// The checks are necessarily one-sided: events persist lazily (they
    /// ride later fences), so the record may lag durable reality, but it
    /// must never be *ahead* of it.
    pub fn check_against(&self, recovery: &RecoveryReport) -> Vec<String> {
        let mut out = Vec::new();
        if !self.recorder_present {
            return out;
        }
        if recovery.checkpoint_used && recovery.checkpoint_watermark != self.checkpoint_watermark {
            out.push(format!(
                "checkpoint watermark mismatch: recovery honoured {}, forensics parsed {}",
                recovery.checkpoint_watermark, self.checkpoint_watermark
            ));
        }
        // A surviving ckpt_splice is staged only after the new head
        // persisted, and watermarks only grow — the parsed checkpoint can
        // be younger than the event, never older.
        if let Some(ev) = &self.last_ckpt_splice {
            if ev.a > self.checkpoint_watermark {
                out.push(format!(
                    "ckpt_splice event claims watermark {} but only {} is durable",
                    ev.a, self.checkpoint_watermark
                ));
            }
        }
        for v in &self.violations {
            out.push(format!(
                "commit receipt ahead of durability: tid {} seq {} ts {} (site {}, durable max {})",
                v.tid,
                v.seq,
                v.commit_ts,
                v.site,
                self.frontier()
            ));
        }
        out
    }

    /// The machine-readable counterpart of the [`fmt::Display`] report,
    /// one JSON object: pool validity and geometry, per-chain
    /// record/entry/stale/reclaimable counts with timestamp ranges and
    /// their totals, then the recorder's geometry and decode counts, the
    /// durability frontier, every violation, the in-flight set, and the
    /// merged event tail (capped at the last 32 events to bound its size).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("valid_pool", self.valid_pool);
        w.field_u64("heap_bump", self.heap_bump);
        w.field_u64("block_bytes", self.block_bytes as u64);
        w.field_u64("threads", self.threads as u64);
        w.begin_array_field("chains");
        for c in &self.chains {
            w.begin_object();
            w.field_u64("tid", c.tid as u64);
            w.field_u64("head", c.head as u64);
            w.field_u64("records", c.records as u64);
            w.field_u64("entries", c.entries as u64);
            w.field_u64("payload_bytes", c.payload_bytes as u64);
            w.field_u64("stale_entries", c.stale_entries as u64);
            w.field_u64("reclaimable_bytes", c.reclaimable_bytes as u64);
            if let Some((lo, hi)) = c.ts_range {
                w.field_u64("ts_min", lo);
                w.field_u64("ts_max", hi);
            }
            w.end_object();
        }
        w.end_array();
        w.field_u64("total_records", self.total_records() as u64);
        w.field_u64("total_stale_entries", self.total_stale_entries() as u64);
        w.field_u64("total_reclaimable_bytes", self.total_reclaimable_bytes() as u64);
        if let Some((lo, hi)) = self.ts_range() {
            w.field_u64("ts_min", lo);
            w.field_u64("ts_max", hi);
        }
        w.field_u64("checkpoint_watermark", self.checkpoint_watermark);
        w.field_bool("recorder_present", self.recorder_present);
        w.field_u64("rings", self.rings as u64);
        w.field_u64("capacity", self.capacity as u64);
        w.field_u64("events_decoded", self.events.len() as u64);
        w.field_u64("events_torn", self.events_torn as u64);
        w.field_u64("commit_receipts", self.commit_receipts as u64);
        w.field_u64("max_receipt_ts", self.max_receipt_ts);
        w.field_bool("clean", self.is_clean());
        w.begin_array_field("violations");
        for v in &self.violations {
            w.begin_object();
            w.field_u64("tid", v.tid as u64);
            w.field_u64("seq", v.seq as u64);
            w.field_u64("commit_ts", v.commit_ts);
            w.field_str("site", v.site);
            w.end_object();
        }
        w.end_array();
        w.begin_array_field("in_flight");
        for f in &self.in_flight {
            w.begin_object();
            w.field_u64("tid", f.tid as u64);
            w.field_u64("begin_ts", f.begin_ts);
            if let Some(op) = f.kv_op {
                w.field_str("kv_op", op);
            }
            w.end_object();
        }
        w.end_array();
        w.begin_array_field("tail");
        for ev in self.tail(32) {
            w.begin_object();
            w.field_u64("ts", ev.ts);
            w.field_u64("tid", ev.tid as u64);
            w.field_u64("seq", ev.seq as u64);
            w.field_str("kind", ev.kind.name());
            w.field_u64("a", ev.a);
            w.field_u64("b", ev.b);
            w.field_u64("aux", ev.aux as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl fmt::Display for ForensicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pool:        {}", if self.valid_pool { "valid" } else { "INVALID MAGIC" })?;
        writeln!(f, "heap bump:   {:#x}", self.heap_bump)?;
        writeln!(f, "block size:  {} bytes", self.block_bytes)?;
        writeln!(f, "layout:      {} chain slots", self.threads)?;
        writeln!(f, "chains:      {}", self.chains.len())?;
        for c in &self.chains {
            write!(
                f,
                "  tid {:2}: head {:#8x}  {:4} records  {:5} entries  {:7} payload bytes  \
                 {:4} stale  {:6} reclaimable",
                c.tid,
                c.head,
                c.records,
                c.entries,
                c.payload_bytes,
                c.stale_entries,
                c.reclaimable_bytes
            )?;
            match c.ts_range {
                Some((lo, hi)) => writeln!(f, "  ts {lo}..={hi}")?,
                None => writeln!(f, "  (empty)")?,
            }
        }
        match self.ts_range() {
            Some((lo, hi)) => writeln!(f, "global ts:   {lo}..={hi}")?,
            None => writeln!(f, "global ts:   (no committed records)")?,
        }
        writeln!(
            f,
            "reclaimable: {} bytes across {} stale entries",
            self.total_reclaimable_bytes(),
            self.total_stale_entries()
        )?;
        if !self.recorder_present {
            return writeln!(f, "flight recorder: absent (recorder off or no layout)");
        }
        writeln!(
            f,
            "flight recorder: {} rings x {} slots  ({} events, {} torn)",
            self.rings,
            self.capacity,
            self.events.len(),
            self.events_torn
        )?;
        writeln!(
            f,
            "durability:      max receipt ts {}  max record ts {}  ckpt watermark {}",
            self.max_receipt_ts,
            self.ts_range().map_or(0, |(_, hi)| hi),
            self.checkpoint_watermark
        )?;
        match self.violations.len() {
            0 => writeln!(f, "verdict:         clean (no receipt ahead of durability)")?,
            n => {
                writeln!(f, "verdict:         {n} VIOLATION(S)")?;
                for v in &self.violations {
                    writeln!(
                        f,
                        "  tid {:2} seq {:4}: receipt ts {} ahead of durable log (site {})",
                        v.tid, v.seq, v.commit_ts, v.site
                    )?;
                }
            }
        }
        if self.in_flight.is_empty() {
            writeln!(f, "in flight:       none")?;
        } else {
            for fl in &self.in_flight {
                match fl.kv_op {
                    Some(op) => writeln!(
                        f,
                        "in flight:       tid {:2} kv {op} (begin ts {})",
                        fl.tid, fl.begin_ts
                    )?,
                    None => writeln!(
                        f,
                        "in flight:       tid {:2} tx (begin ts {})",
                        fl.tid, fl.begin_ts
                    )?,
                }
            }
        }
        writeln!(f, "event tail (newest last):")?;
        for ev in self.tail(16) {
            writeln!(
                f,
                "  ts {:10} tid {:2} seq {:4} {:14} a={} b={} aux={}",
                ev.ts,
                ev.tid,
                ev.seq,
                ev.kind.name(),
                ev.a,
                ev.b,
                ev.aux
            )?;
        }
        Ok(())
    }
}

/// Reads a crash image (or a live pool's image) without modifying it:
/// its chains, its checkpoint watermark and its flight recorder.
///
/// The pool's [`PoolLayout`] says where chain heads, the checkpoint and
/// the recorder region are read from, and the layout is read once. Every
/// chain is walked twice: the first walk feeds a [`FreshnessIndex`] all
/// committed records (staleness is a *global* property — a byte written
/// by thread 0 may be overwritten by thread 3), the second summarises each
/// chain against the full index, exactly as a reclamation cycle would. The
/// durability frontier ([`ForensicReport::frontier`]) comes from those
/// summaries, and every surviving commit receipt is checked against it
/// (see [`ForensicViolation`]). [`decode_region`] decodes the recorder:
/// the sealed region header gives the geometry, and each ring slot
/// validates independently, so torn slots degrade to counts.
///
/// Never fails: garbage, recorder-off and descriptor-less images all
/// return a report.
pub fn forensics(image: &CrashImage) -> ForensicReport {
    let header = PoolHeader::decode(image.as_bytes());
    let mut rep = ForensicReport {
        valid_pool: header.is_some(),
        heap_bump: header.map_or(0, |h| h.bump),
        ..ForensicReport::default()
    };
    let Some(layout) = PoolLayout::read(image) else {
        return rep;
    };
    rep.block_bytes = layout.block_bytes();
    rep.threads = layout.threads();
    let heads: Vec<(usize, usize)> = (0..layout.threads())
        .map(|tid| (tid, layout.head(image, tid)))
        .filter(|&(_, head)| head != 0)
        .collect();
    let mut index = FreshnessIndex::default();
    for &(_, head) in &heads {
        let mut reader = RecordReader::new(image, head, layout.block_bytes());
        while let Some(rec) = reader.next() {
            for e in rec.entries() {
                index.insert(rec.ts, e.addr, e.value.len());
            }
        }
    }
    // One record at a time through the reclamator's own compaction.
    let mut compacted = Vec::new();
    for (tid, head) in heads {
        let mut c = ChainSummary { tid, head, ..ChainSummary::default() };
        let mut reader = RecordReader::new(image, head, layout.block_bytes());
        while let Some(rec) = reader.next() {
            c.records += 1;
            let (lo, hi) = c.ts_range.unwrap_or((rec.ts, rec.ts));
            c.ts_range = Some((lo.min(rec.ts), hi.max(rec.ts)));
            for e in rec.entries() {
                c.entries += 1;
                c.payload_bytes += ENTRY_HDR + e.value.len();
            }
            compacted.clear();
            compacted.extend_from_slice(rec.bytes());
            let (_, dropped) = index.compact_encoded(&mut compacted);
            c.stale_entries += dropped as usize;
            c.reclaimable_bytes += rec.bytes().len() - compacted.len();
        }
        rep.chains.push(c);
    }
    rep.checkpoint_watermark =
        read_checkpoint(image, layout.ckpt_head(image), layout.block_bytes())
            .map_or(0, |c| c.watermark);

    // A zero base (recorder never on) names the pool header, which never
    // decodes as a region.
    let region = image.as_bytes().get(layout.bbox_head(image)..).and_then(decode_region);
    let Some(region) = region else {
        return rep;
    };
    rep.recorder_present = true;
    rep.rings = region.rings.len();
    rep.capacity = region.capacity;
    rep.events_torn = region.torn();
    rep.events = region.merged();
    let frontier = rep.frontier();
    let mut open_tx: BTreeMap<u16, u64> = BTreeMap::new();
    let mut open_kv: BTreeMap<u16, u8> = BTreeMap::new();
    for ev in &rep.events {
        match ev.kind {
            BbKind::TxBegin => {
                open_tx.insert(ev.tid, ev.ts);
            }
            BbKind::TxCommit => {
                open_tx.remove(&ev.tid);
                rep.commit_receipts += 1;
                rep.max_receipt_ts = rep.max_receipt_ts.max(ev.a);
                if ev.a > frontier {
                    rep.violations.push(ForensicViolation {
                        tid: ev.tid,
                        seq: ev.seq,
                        commit_ts: ev.a,
                        site: Site::from_index(ev.b).map_or("unknown", Site::name),
                    });
                }
            }
            BbKind::TxAbort => {
                open_tx.remove(&ev.tid);
            }
            BbKind::KvOp => {
                open_kv.insert(ev.tid, ev.aux);
            }
            BbKind::KvOpDone => {
                open_kv.remove(&ev.tid);
            }
            BbKind::CkptSplice => rep.last_ckpt_splice = Some(*ev),
            _ => {}
        }
    }
    let mut tids: Vec<u16> = open_tx.keys().chain(open_kv.keys()).copied().collect();
    tids.sort_unstable();
    tids.dedup();
    rep.in_flight = tids
        .into_iter()
        .map(|tid| ForensicInFlight {
            tid,
            begin_ts: open_tx.get(&tid).copied().unwrap_or(0),
            kv_op: open_kv.get(&tid).map(|&aux| kv_op_name(aux)),
        })
        .collect();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentConfig, SpecConfig, SpecSpmt, SpecSpmtShared};
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice, PmemPool};
    use specpmt_txn::{TxAccess, TxRuntime};

    /// An image of `chains` log chains with the flight recorder on, chain
    /// `t` holding `per_chain` committed overwrites of word `t * stride` —
    /// written by one `TxHandle` per chain, stepped chain after chain from
    /// this thread — and one transaction left open on chain 0.
    fn chains_image(chains: usize, per_chain: u64, stride: usize) -> CrashImage {
        let shared = SpecSpmtShared::open_or_format(
            1usize << 22,
            ConcurrentConfig::builder().threads(chains).flight_recorder(true).build(),
        );
        let a = shared.pool().alloc_direct(64 + chains * stride, 64).unwrap();
        for tid in 0..chains {
            let mut h = shared.tx_handle(tid);
            for v in 0..per_chain {
                h.begin();
                h.write_u64(a + tid * stride, v);
                h.commit();
            }
        }
        let mut open = shared.tx_handle(0);
        open.begin();
        open.write_u64(a, u64::MAX);
        // AllSurvive keeps the open transaction's unflushed `tx_begin`.
        shared.device().capture(CrashPolicy::AllSurvive)
    }

    #[test]
    fn inspect_reports_committed_records() {
        let img = chains_image(2, 5, 0);
        let report = forensics(&img);
        assert!(report.valid_pool);
        assert_eq!(report.threads, 2);
        assert_eq!(report.chains.len(), 2);
        assert_eq!(report.total_records(), 10, "the open transaction must not count");
        assert_eq!(report.ts_range(), Some((1, 10)));
        // Both threads hammer the same u64: only the globally youngest
        // record (tid 1's last commit) is fresh; the other 9 entries are
        // reclaimable — and staleness crosses chains (all of tid 0's
        // entries are stale because tid 1 overwrote them).
        assert_eq!(report.total_stale_entries(), 9);
        assert_eq!(report.chains[0].stale_entries, 5);
        assert_eq!(report.chains[1].stale_entries, 4);
        assert!(report.total_reclaimable_bytes() > 0);
        // The same report carries the recorder: the open transaction is
        // in flight on ring 0, and the frontier is the newest chain's ts.
        assert!(report.recorder_present && report.is_clean());
        assert_eq!(report.in_flight.len(), 1);
        assert_eq!((report.in_flight[0].tid, report.in_flight[0].kv_op), (0, None));
        assert!(report.in_flight[0].begin_ts > 0);
        assert_eq!(report.commit_receipts, 10);
        assert_eq!(Some(report.frontier()), report.chains[1].ts_range.map(|(_, hi)| hi));
        let rendered = report.to_string();
        assert!(rendered.contains("10") || rendered.contains("records"));
        assert!(rendered.contains("2 chain slots"));
        assert!(rendered.contains("reclaimable"));
        assert!(rendered.contains("flight recorder: 3 rings"), "{rendered}");
        assert!(rendered.contains("in flight:       tid  0 tx"), "{rendered}");
    }

    #[test]
    fn inspect_sees_all_chains_past_legacy_cap() {
        let img = chains_image(17, 1, 8);
        let report = forensics(&img);
        assert_eq!(report.threads, 17);
        assert_eq!(report.chains.len(), 17);
        assert_eq!(report.total_records(), 17);
        assert_eq!(report.chains[16].tid, 16);
    }

    #[test]
    fn inspect_json_mirrors_display_totals() {
        let img = chains_image(2, 5, 0);
        let report = forensics(&img);
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"valid_pool\":true"), "{j}");
        assert!(j.contains("\"threads\":2"), "{j}");
        assert!(j.contains("\"total_records\":10"), "{j}");
        assert!(j.contains("\"total_stale_entries\":9"), "{j}");
        assert!(j.contains("\"chains\":["), "{j}");
        assert!(j.contains("\"stale_entries\":5"), "{j}");
        assert!(j.contains("\"ts_min\":1"), "{j}");
        assert!(j.contains("\"ts_max\":10"), "{j}");
        assert!(j.contains("\"recorder_present\":true"), "{j}");
        assert!(j.contains("\"in_flight\":[{\"tid\":0,"), "{j}");
        // Per-chain reclaimable must sum to the global total.
        let per_chain: usize = report.chains.iter().map(|c| c.reclaimable_bytes).sum();
        assert_eq!(per_chain, report.total_reclaimable_bytes());
    }

    #[test]
    fn inspect_rejects_garbage() {
        let img = CrashImage::new(vec![0xAB; 4096]);
        let report = forensics(&img);
        assert!(!report.valid_pool && !report.recorder_present);
        assert!(report.chains.is_empty());
        let rendered = report.to_string();
        assert!(rendered.contains("INVALID MAGIC"), "{rendered}");
        assert!(rendered.contains("flight recorder: absent"), "{rendered}");
    }

    #[test]
    fn open_transaction_is_not_counted() {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = SpecSpmt::new(pool, SpecConfig::default());
        let a = rt.pool_mut().alloc_direct(64, 64).unwrap();
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2); // open, uncommitted
        let img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        let report = forensics(&img);
        assert_eq!(report.total_records(), 1, "uncommitted record must not count");
    }
}
