//! Post-crash recovery for software SpecPMT.
//!
//! What recovery must do is simple (Section 3.1): walk every thread's log
//! chain from its persistent head pointer, keep only checksum-valid
//! (= committed) records, then replay all entries across threads in commit
//! timestamp order. Replaying effectively:
//!
//! * **redoes** committed transactions whose in-place data writes never
//!   reached PM (the speculative log holds the committed values), and
//! * **undoes** interrupted transactions whose in-place writes *did* reach
//!   PM (the freshest committed record for each byte is replayed last).
//!
//! Unreclaimed stale records may replay too; they are overwritten by
//! fresher records later in the order, which is harmless.
//!
//! [`recover_image`] is that paragraph as code and is **the reference**:
//! tests, `crashsmoke` (on every enumerated crash image) and `benchmark/`
//! compare against it, and nothing in production calls it. Every
//! runtime's `recover` runs the engine, [`recover_image_opts`].
//!
//! Both read a chain through the one streaming parser ([`crate::record`]'s
//! `RecordReader`) into a single buffer of records encoded back to back,
//! one chain after another on the calling thread, and replay borrowed
//! entries out of it: a recovery allocates per chain, never per record or
//! entry. Only [`committed_records`] — the API for tools and tests —
//! materialises owned [`LogRecord`]s.
//!
//! # The engine
//!
//! [`recover_image_opts`] produces a **bit-identical** image to the
//! reference, with less work, via three levers:
//!
//! * **Timestamp merge with a deterministic tie-break** — a chain's
//!   records are already timestamp-sorted (a chain's timestamps are issued
//!   in append order from the global counter), so a k-way merge on the
//!   key `(ts, chain index)` reproduces the reference order exactly: the
//!   reference concatenates chains in ascending `tid` order and stable-
//!   sorts by `ts`, which leaves equal timestamps in ascending chain
//!   order. See [`committed_records`] for the tie-break contract.
//! * **Last-writer-wins replay** — the merged sequence is applied in
//!   *reverse* with a byte-claim bitmap (`fold_last_writer_wins`): a byte
//!   is written by the last record that touches it and every superseded
//!   (stale) store is skipped instead of copied. Same final image, bytes
//!   written once.
//! * **A checkpoint** (written by `SpecSpmtShared::write_checkpoint`
//!   through the same fold, head persisted in the layout descriptor)
//!   bounds how much log must replay at all: it snapshots the
//!   last-writer-wins state of every record with `ts <= watermark`, so
//!   recovery replays the checkpoint's runs plus only the records above
//!   the watermark. A torn or unparsable checkpoint silently degrades to
//!   the full replay — the checkpoint is purely redundant state.
//!
//! Chains verify independently, so [`RecoveryReport::sim_ns`] models a
//! parse [`RecoveryOptions::parse_threads`] wide. The host parse is
//! serial: a threaded one was measured at three image sizes and never
//! reached the 1.5× that would have kept it (EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::fmt;

use specpmt_pmem::{sites, CrashImage};
use specpmt_telemetry::blackbox::{
    decode_region, decode_region_header, kv_op_name, region_bytes, BbEvent, BbKind, REGION_HDR,
};
use specpmt_telemetry::{JsonWriter, StatExport};

use crate::layout::PoolLayout;
use crate::record::{
    encoded_records, in_bounds, parse_chain, read_chain_encoded, read_checkpoint, Entries,
    EntryRef, LogRecord, RecordReader, RecordRef,
};

/// Parses every thread's committed records from a crash image.
///
/// The pool's [`PoolLayout`] determines how many chains exist and where
/// their heads live.
/// Returns records sorted by commit timestamp (ascending). An image
/// without SpecPMT metadata yields no records.
///
/// # Tie-break contract
///
/// Records with **equal timestamps** (impossible from one live runtime,
/// whose timestamps come from a global atomic counter — but possible
/// across independently-written pools or hand-built images) are ordered
/// by **ascending chain index, then chain position**: chains are scanned
/// in `tid` order and the sort is stable. The k-way merge in
/// [`recover_image_opts`] reproduces this order bit-identically by
/// merging on the key `(ts, chain index)` — within one chain equal
/// timestamps keep append order. Recovery's final image depends on this
/// order, so it is a compatibility contract, not an implementation
/// detail.
pub fn committed_records(image: &CrashImage) -> Vec<LogRecord> {
    let Some(layout) = PoolLayout::read(image) else {
        return Vec::new();
    };
    let mut records = Vec::new();
    for tid in 0..layout.threads() {
        let head = layout.head(image, tid);
        if head != 0 {
            records.extend(parse_chain(image, head, layout.block_bytes()));
        }
    }
    records.sort_by_key(|r| r.ts);
    records
}

/// Repairs `image` in place by replaying all committed records in
/// timestamp order — **the reference**, not a production path: the
/// executable statement of what recovery means, which
/// [`recover_image_opts`] must (and, on every enumerated crash image, is
/// tested to) reproduce bit for bit. Called by tests, by
/// `crashsmoke::recover_and_check_equivalence` and by `benchmark/` only.
///
/// Same order as [`committed_records`] (chains in `tid` order, stable sort
/// by timestamp), over the records as the chains store them: nothing is
/// allocated per record or entry.
pub fn recover_image(image: &mut CrashImage) {
    let Some(layout) = PoolLayout::read(image) else {
        return;
    };
    let chains: Vec<Vec<u8>> = (0..layout.threads())
        .map(|tid| read_chain_encoded(image, layout.head(image, tid), layout.block_bytes()))
        .collect();
    let mut records: Vec<RecordRef> = chains.iter().flat_map(|c| encoded_records(c)).collect();
    records.sort_by_key(|r| r.ts);
    for rec in &records {
        for e in rec.entries() {
            if in_bounds(e.addr, e.value.len(), image.len()) {
                image.write_bytes(e.addr, e.value);
            }
        }
    }
}

/// Tuning for [`recover_image_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Width of the *modelled* parse phase (clamped to `1..=chains`): the
    /// busiest of that many round-robin workers is what
    /// [`RecoveryReport::sim_ns`] charges
    /// ([`RecoveryReport::parse_makespan_bytes`]). A parameter of the cost
    /// model and nothing else — the host reads the chains one after
    /// another on the calling thread whatever it says, and the image and
    /// every other report field do not depend on it.
    pub parse_threads: usize,
    /// Honour a persisted checkpoint record (skip records at or below its
    /// watermark). Off forces the full replay even when a checkpoint
    /// exists — the bench uses that to measure the bound.
    pub use_checkpoint: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self { parse_threads: 1, use_checkpoint: true }
    }
}

impl RecoveryOptions {
    /// Options with a `parse_threads`-wide modelled parse and the
    /// checkpoint honoured.
    #[must_use]
    pub fn parallel(parse_threads: usize) -> Self {
        Self { parse_threads, use_checkpoint: true }
    }

    /// Disables the checkpoint (full replay).
    #[must_use]
    pub fn without_checkpoint(mut self) -> Self {
        self.use_checkpoint = false;
        self
    }
}

/// What a [`recover_image_opts`] run did — the raw material of
/// `benchmark/`'s `recovery` workload and the source of the deterministic
/// time-to-recover goldens in `tests/recovery.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chain slots the layout exposed (the count the pool was formatted
    /// with).
    pub chains: usize,
    /// Chains that actually held committed records.
    pub chains_nonempty: usize,
    /// Modelled parse width (after clamping).
    pub parse_threads: usize,
    /// Committed records parsed across all chains.
    pub records_parsed: usize,
    /// Records replayed (above the checkpoint watermark, or all of them).
    pub records_replayed: usize,
    /// Records skipped because a checkpoint already covers them.
    pub records_skipped_checkpoint: usize,
    /// Log bytes parsed (record headers + payloads), summed over chains.
    pub bytes_parsed: u64,
    /// Largest per-worker share of `bytes_parsed` under the round-robin
    /// chain partition — the parse phase's critical path. Equal-sized
    /// chains give `bytes_parsed / parse_threads`, i.e. linear speedup.
    pub parse_makespan_bytes: u64,
    /// Bytes actually stored into the image (each byte exactly once).
    pub bytes_replayed: u64,
    /// Entry bytes skipped as stale (superseded by a later writer).
    pub bytes_skipped_stale: u64,
    /// A checkpoint was parsed and honoured.
    pub checkpoint_used: bool,
    /// The honoured checkpoint's watermark (0 when none).
    pub checkpoint_watermark: u64,
    /// Runs the honoured checkpoint contributed.
    pub checkpoint_entries: usize,
}

/// Deterministic cost model for the simulated time-to-recover: fixed
/// restart overhead, parse cost on the critical path (the slowest
/// modelled worker), a per-record merge-and-apply step for every record
/// that enters the replay, a much cheaper timestamp-compare visit for
/// records a checkpoint lets replay skip, and per-byte store cost. The
/// constants are calibrated to the same order of magnitude as the
/// simulated device (≈1 ns/byte streaming reads, ≈100 ns of heap work per
/// record) — their exact values matter less than their determinism:
/// `tests/recovery.rs` pins the results as exact goldens and
/// `benchmark/` reports them as the bit-identical `sim_ns_per_op`.
const SIM_FIXED_NS: u64 = 2_000;
const SIM_PARSE_NS_PER_BYTE: u64 = 2;
const SIM_MERGE_NS_PER_RECORD: u64 = 120;
const SIM_SKIP_NS_PER_RECORD: u64 = 10;
const SIM_REPLAY_NS_PER_BYTE: u64 = 4;

impl RecoveryReport {
    /// Simulated time-to-recover in nanoseconds under the model above.
    /// The modelled parse width shows up through [`Self::parse_makespan_bytes`];
    /// the checkpoint bound shows up through the merge term moving from
    /// every parsed record to only [`Self::records_replayed`] (skipped
    /// records pay just the watermark compare).
    pub fn sim_ns(&self) -> u64 {
        SIM_FIXED_NS
            + self.parse_makespan_bytes * SIM_PARSE_NS_PER_BYTE
            + (self.records_skipped_checkpoint as u64) * SIM_SKIP_NS_PER_RECORD
            + self.replay_sim_ns()
    }

    /// The replay portion of [`Self::sim_ns`] (merge + byte stores) —
    /// the part a checkpoint bounds: with one, it depends only on the
    /// data written since the watermark, not on total log size.
    pub fn replay_sim_ns(&self) -> u64 {
        (self.records_replayed as u64) * SIM_MERGE_NS_PER_RECORD
            + self.bytes_replayed * SIM_REPLAY_NS_PER_BYTE
    }
}

/// What parsing `chains` costs `workers` wide: the byte total of the
/// busiest worker under the deterministic round-robin partition (worker
/// `w` owns chains `w, w + workers, ...`).
fn parse_makespan(chains: &[Vec<u8>], workers: usize) -> u64 {
    let mut per_worker = vec![0u64; workers];
    for (idx, chain) in chains.iter().enumerate() {
        per_worker[idx % workers] += chain.len() as u64;
    }
    per_worker.into_iter().max().unwrap_or(0)
}

/// K-way merge of per-chain record lists on the key `(ts, chain index)` —
/// bit-identical to [`committed_records`]' concatenate-then-stable-sort
/// order (see the tie-break contract there).
fn merge_chains(chains: &[Vec<u8>]) -> impl Iterator<Item = RecordRef<'_>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut iters: Vec<_> = chains.iter().map(|c| encoded_records(c)).collect();
    // The head record of every chain that has one, keyed `(ts, chain)`.
    let mut heads: Vec<Option<RecordRef>> = iters.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<_> = heads
        .iter()
        .enumerate()
        .filter_map(|(idx, rec)| rec.map(|r| Reverse((r.ts, idx))))
        .collect();
    std::iter::from_fn(move || {
        let Reverse((_, idx)) = heap.pop()?;
        let rec = std::mem::replace(&mut heads[idx], iters[idx].next());
        if let Some(next) = heads[idx] {
            heap.push(Reverse((next.ts, idx)));
        }
        rec
    })
}

/// Repairs `image` in place — the one production replay: same result as
/// [`recover_image`], computed with a `(ts, chain)` merge, a
/// checkpoint-bounded record set, and last-writer-wins byte resolution.
/// Returns the work report.
pub fn recover_image_opts(image: &mut CrashImage, opts: &RecoveryOptions) -> RecoveryReport {
    let mut report =
        RecoveryReport { parse_threads: opts.parse_threads.max(1), ..RecoveryReport::default() };
    let Some(layout) = PoolLayout::read(image) else {
        return report;
    };
    report.chains = layout.threads();

    // Checkpoint first: a torn/unparsable record degrades to full replay.
    let ckpt = if opts.use_checkpoint {
        read_checkpoint(image, layout.ckpt_head(image), layout.block_bytes())
    } else {
        None
    };

    // Each chain's committed records, encoded back to back, read one chain
    // after another on this thread; the width only prices the parse.
    let chains: Vec<Vec<u8>> = (0..layout.threads())
        .map(|tid| read_chain_encoded(image, layout.head(image, tid), layout.block_bytes()))
        .collect();
    report.parse_threads = opts.parse_threads.clamp(1, layout.threads().max(1));
    report.chains_nonempty = chains.iter().filter(|c| !c.is_empty()).count();
    report.bytes_parsed = chains.iter().map(|c| c.len() as u64).sum();
    report.parse_makespan_bytes = parse_makespan(&chains, report.parse_threads);

    // Forward replay order: checkpoint runs (anything else supersedes
    // them), then every record above the watermark. Records at or below
    // it are exactly what the checkpoint folded in, so they are skipped
    // wholesale.
    let mut forward: Vec<EntryRef> = Vec::new();
    if let Some((mark, payload)) = &ckpt {
        report.checkpoint_used = true;
        report.checkpoint_watermark = *mark;
        forward.extend(Entries::new(payload));
        report.checkpoint_entries = forward.len();
    }
    for rec in merge_chains(&chains) {
        report.records_parsed += 1;
        if report.checkpoint_used && rec.ts <= report.checkpoint_watermark {
            report.records_skipped_checkpoint += 1;
            continue;
        }
        report.records_replayed += 1;
        forward.extend(rec.entries());
    }

    (report.bytes_replayed, report.bytes_skipped_stale) =
        fold_last_writer_wins(&forward, image.len(), |addr, bytes| image.write_bytes(addr, bytes));
    report
}

/// The one last-writer-wins resolution, shared by replay and by
/// `SpecSpmtShared::write_checkpoint`: walks `forward` (entries in replay
/// order, oldest first) in reverse, claims bytes of the `size`-byte pool
/// in a bitmap, and hands `emit` every run of bytes no later entry wrote —
/// each byte at most once, runs disjoint, in no address order. The
/// reference replay drops any entry that does not fit the image, so the
/// same bounds check is applied *before* claiming.
///
/// Returns `(bytes emitted, entry bytes skipped as stale)`.
pub(crate) fn fold_last_writer_wins<'a>(
    forward: &[EntryRef<'a>],
    size: usize,
    mut emit: impl FnMut(usize, &'a [u8]),
) -> (u64, u64) {
    let (mut emitted, mut stale) = (0u64, 0u64);
    let mut emit = |addr: usize, bytes: &'a [u8]| {
        emitted += bytes.len() as u64;
        emit(addr, bytes);
    };
    let mut claimed = vec![0u64; size.div_ceil(64)];
    for e in forward.iter().rev() {
        if e.value.is_empty() || !in_bounds(e.addr, e.value.len(), size) {
            continue;
        }
        // Claim per byte; runs of unclaimed bytes are emitted in one piece
        // to keep the common (no-overlap) case cheap.
        let mut run_start: Option<usize> = None;
        for i in 0..e.value.len() {
            let (word, bit) = ((e.addr + i) / 64, (e.addr + i) % 64);
            if claimed[word] & (1 << bit) == 0 {
                claimed[word] |= 1 << bit;
                run_start.get_or_insert(i);
                continue;
            }
            stale += 1;
            if let Some(s) = run_start.take() {
                emit(e.addr + s, &e.value[s..i]);
            }
        }
        if let Some(s) = run_start {
            emit(e.addr + s, &e.value[s..]);
        }
    }
    (emitted, stale)
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

/// What the black box said: the decode + analysis of a crash image's
/// flight-recorder region, produced by [`forensics`].
///
/// Torn ring slots are *counted*, never fatal — forensics degrades, the
/// pool still recovers. An image without a recorder region (recorder off,
/// or a pre-v3 layout) yields a report with
/// [`recorder_present`](Self::recorder_present) `false` and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForensicReport {
    /// A valid black-box region was found and decoded.
    pub recorder_present: bool,
    /// Rings in the region (threads + 1 daemon ring).
    pub rings: usize,
    /// Event slots per ring.
    pub capacity: usize,
    /// Checksum-valid events decoded across all rings.
    pub events_decoded: usize,
    /// Slots whose checksum failed (torn at the crash) — skipped.
    pub events_torn: usize,
    /// All surviving events merged on the deterministic `(ts, tid, seq)`
    /// order.
    pub events: Vec<BbEvent>,
    /// Transactions/KV ops the record shows open at the crash.
    pub in_flight: Vec<ForensicInFlight>,
    /// Youngest surviving group-commit batch seal.
    pub last_batch_seal: Option<BbEvent>,
    /// Youngest surviving checkpoint splice.
    pub last_ckpt_splice: Option<BbEvent>,
    /// Commit receipts decoded.
    pub commit_receipts: usize,
    /// Largest commit timestamp among surviving receipts (0 when none).
    pub max_receipt_ts: u64,
    /// Largest commit timestamp among committed log records (0 when none).
    pub max_committed_record_ts: u64,
    /// Parsed checkpoint watermark (0 when no checkpoint survives).
    pub checkpoint_watermark: u64,
    /// Receipt-ahead-of-durability violations (see [`ForensicViolation`]).
    pub violations: Vec<ForensicViolation>,
}

impl ForensicReport {
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
                self.max_committed_record_ts.max(self.checkpoint_watermark)
            ));
        }
        out
    }
}

impl StatExport for ForensicReport {
    fn export_name(&self) -> &'static str {
        "forensics"
    }

    /// Machine-readable counterpart of the [`fmt::Display`] table: region
    /// geometry and decode counts, the durability frontier, every
    /// violation, the in-flight set, and the merged event tail (capped at
    /// the last 32 events to bound report size).
    fn emit(&self, w: &mut JsonWriter) {
        w.field_bool("recorder_present", self.recorder_present);
        w.field_u64("rings", self.rings as u64);
        w.field_u64("capacity", self.capacity as u64);
        w.field_u64("events_decoded", self.events_decoded as u64);
        w.field_u64("events_torn", self.events_torn as u64);
        w.field_u64("commit_receipts", self.commit_receipts as u64);
        w.field_u64("max_receipt_ts", self.max_receipt_ts);
        w.field_u64("max_committed_record_ts", self.max_committed_record_ts);
        w.field_u64("checkpoint_watermark", self.checkpoint_watermark);
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
            ev.emit(w);
            w.end_object();
        }
        w.end_array();
    }
}

impl fmt::Display for ForensicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.recorder_present {
            return writeln!(f, "flight recorder: absent (recorder off or pre-v3 pool)");
        }
        writeln!(
            f,
            "flight recorder: {} rings x {} slots  ({} events, {} torn)",
            self.rings, self.capacity, self.events_decoded, self.events_torn
        )?;
        writeln!(
            f,
            "durability:      max receipt ts {}  max record ts {}  ckpt watermark {}",
            self.max_receipt_ts, self.max_committed_record_ts, self.checkpoint_watermark
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

/// Decodes a crash image's flight-recorder region and checks the event
/// record against the image's own durable state.
///
/// The black-box base comes from the layout descriptor's v3 slot; the
/// region header (checksummed) gives the geometry; each ring slot
/// validates independently, so torn slots degrade to counts. The
/// durability frontier — `max(max committed record ts, checkpoint
/// watermark)` — is recomputed from the log itself, and every surviving
/// commit receipt is checked against it (see [`ForensicViolation`]).
///
/// Never fails: garbage, recorder-off, and pre-v3 images all return an
/// absent-recorder report.
pub fn forensics(image: &CrashImage) -> ForensicReport {
    let mut rep = ForensicReport::default();
    let Some(layout) = PoolLayout::read(image) else {
        return rep;
    };
    let base = layout.bbox_head(image);
    if base == 0 || base.saturating_add(REGION_HDR) > image.len() {
        return rep;
    }
    let Some((rings, capacity)) = decode_region_header(image.read_bytes(base, REGION_HDR)) else {
        return rep;
    };
    let total = region_bytes(rings, capacity);
    if base.saturating_add(total) > image.len() {
        return rep;
    }
    let Some(region) = decode_region(image.read_bytes(base, total)) else {
        return rep;
    };
    rep.recorder_present = true;
    rep.rings = rings;
    rep.capacity = capacity;
    rep.events_decoded = region.decoded();
    rep.events_torn = region.torn();
    rep.events = region.merged();

    // The durability frontier, from the image's own log: receipts may
    // lawfully lag it (they persist lazily) but never lead it.
    let chain_max_ts = |tid| {
        let mut reader = RecordReader::new(image, layout.head(image, tid), layout.block_bytes());
        std::iter::from_fn(|| reader.next().map(|rec| rec.ts)).max()
    };
    rep.max_committed_record_ts = (0..layout.threads()).filter_map(chain_max_ts).max().unwrap_or(0);
    rep.checkpoint_watermark =
        read_checkpoint(image, layout.ckpt_head(image), layout.block_bytes())
            .map_or(0, |(watermark, _)| watermark);
    let frontier = rep.max_committed_record_ts.max(rep.checkpoint_watermark);

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
                        site: sites::name_of(ev.b as usize).unwrap_or("unknown"),
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
            BbKind::BatchSeal => rep.last_batch_seal = Some(*ev),
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
    use specpmt_pmem::CrashControl;

    #[test]
    fn non_specpmt_image_is_untouched() {
        let mut img = CrashImage::new(vec![0xCD; 4096]);
        let before = img.clone();
        recover_image(&mut img);
        assert_eq!(img, before);
        let mut img2 = before.clone();
        let report = recover_image_opts(&mut img2, &RecoveryOptions::parallel(4));
        assert_eq!(img2, before);
        assert_eq!(report, RecoveryReport { parse_threads: 4, ..RecoveryReport::default() });
    }

    #[test]
    fn empty_pool_image_recovers_to_itself() {
        let pool = specpmt_pmem::PmemPool::create(specpmt_pmem::PmemDevice::new(
            specpmt_pmem::PmemConfig::new(1 << 16),
        ));
        let mut img = pool.device().capture(specpmt_pmem::CrashPolicy::AllSurvive);
        let before = img.clone();
        recover_image(&mut img);
        assert_eq!(img, before);
        let mut img2 = before.clone();
        recover_image_opts(&mut img2, &RecoveryOptions::default());
        assert_eq!(img2, before);
    }

    /// The reference and the engine replay the chains as stored; the owned
    /// parse of [`committed_records`], replayed entry by entry, is what
    /// they must reproduce — image and byte counts alike.
    #[test]
    fn both_paths_agree_with_a_replay_of_the_owned_records() {
        use crate::record::REC_HDR;
        let (shared, _) = crate::concurrent::tests::overlapping_three_chain_history(25);
        let img = shared.device().capture(specpmt_pmem::CrashPolicy::AllLost);
        let records = committed_records(&img);
        let mut want = img.clone();
        for e in records.iter().flat_map(|r| &r.entries) {
            want.write_bytes(e.addr, &e.value);
        }
        assert!(want != img, "recovery has something to repair");

        let mut reference = img.clone();
        recover_image(&mut reference);
        assert!(reference == want, "the reference");
        let log_bytes: usize = records.iter().map(|r| REC_HDR + r.payload_len()).sum();
        for opts in [
            RecoveryOptions::default(),
            RecoveryOptions::parallel(2),
            RecoveryOptions::default().without_checkpoint(),
        ] {
            let mut got = img.clone();
            let report = recover_image_opts(&mut got, &opts);
            assert!(got == want, "{opts:?}");
            assert_eq!(report.records_parsed, records.len());
            assert_eq!(report.bytes_parsed, log_bytes as u64);
            assert_eq!(report.checkpoint_used, opts.use_checkpoint);
            assert_eq!(report.records_replayed + report.records_skipped_checkpoint, records.len());
        }
    }

    #[test]
    fn sim_model_rewards_parallel_parse_and_checkpoint_bound() {
        let full = RecoveryReport {
            chains: 8,
            parse_threads: 1,
            records_parsed: 1000,
            records_replayed: 1000,
            bytes_parsed: 80_000,
            parse_makespan_bytes: 80_000,
            bytes_replayed: 40_000,
            ..RecoveryReport::default()
        };
        let parallel = RecoveryReport { parse_threads: 8, parse_makespan_bytes: 10_000, ..full };
        assert!(parallel.sim_ns() < full.sim_ns());
        let ckpt = RecoveryReport {
            records_replayed: 50,
            records_skipped_checkpoint: 950,
            checkpoint_used: true,
            ..full
        };
        // Same parse and byte-store work, but 950 records downgrade from
        // the merge-and-apply charge to the watermark-compare charge.
        assert!(ckpt.sim_ns() < full.sim_ns());
        assert!(ckpt.replay_sim_ns() < full.replay_sim_ns());
        // The replay portion ignores log size entirely: doubling parse
        // work moves sim_ns but not replay_sim_ns.
        let bigger_log =
            RecoveryReport { bytes_parsed: 160_000, parse_makespan_bytes: 160_000, ..ckpt };
        assert_eq!(bigger_log.replay_sim_ns(), ckpt.replay_sim_ns());
    }
}
