//! Log inspection: an `fsck`-style view of a pool or crash image.
//!
//! Operators of a persistent-memory system need to answer "what is in this
//! pool?" after a crash — how many committed records each thread's chain
//! holds, what timestamp range they span, how much space the log occupies,
//! and whether the chain terminates cleanly. [`inspect_image`] produces
//! that summary from any [`CrashImage`]; `examples/log_inspect.rs` shows
//! the rendered report.

use std::fmt;

use specpmt_pmem::{CrashImage, PoolHeader};
use specpmt_telemetry::{JsonWriter, StatExport};

use crate::layout::PoolLayout;
use crate::reclaim::FreshnessIndex;
use crate::record::{RecordReader, ENTRY_HDR, REC_HDR};

/// Summary of one thread's (or epoch's) log chain.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Log bytes (record headers + payload) a reclamation cycle would
    /// reclaim from this chain, per the same [`FreshnessIndex`] the
    /// reclamator itself uses.
    pub reclaimable_bytes: usize,
    /// Commit-timestamp range (min, max), if any records exist.
    pub ts_range: Option<(u64, u64)>,
}

/// Whole-image inspection report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectReport {
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
}

impl InspectReport {
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
}

impl StatExport for InspectReport {
    /// Emits the machine-readable counterpart of the [`fmt::Display`]
    /// report: pool validity and geometry, per-chain record/entry/stale/
    /// reclaimable counts (with timestamp ranges), and the same global
    /// totals — one schema shared by `examples/log_inspect.rs --json`,
    /// tests, and any external tooling.
    fn emit(&self, w: &mut JsonWriter) {
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
    }
}

impl fmt::Display for InspectReport {
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
        )
    }
}

/// Inspects a crash image (or a live pool's image) without modifying it.
///
/// The pool's [`PoolLayout`] says where chain heads are read from. A valid
/// pool whose layout does not parse (no runtime has formatted it, or the
/// descriptor is corrupt) reports no geometry and no chains.
pub fn inspect_image(image: &CrashImage) -> InspectReport {
    let header = PoolHeader::decode(image.as_bytes());
    let (valid_pool, heap_bump) = (header.is_some(), header.map_or(0, |h| h.bump));
    let Some(layout) = PoolLayout::read(image) else {
        return InspectReport {
            valid_pool,
            heap_bump,
            block_bytes: 0,
            threads: 0,
            chains: Vec::new(),
        };
    };
    // Two passes over every chain: the first feeds the freshness index all
    // committed records (staleness is a *global* property — a byte written
    // by thread 0 may be overwritten by thread 3), the second summarizes
    // each chain against the full index, exactly as a reclamation cycle
    // would.
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
    let mut chains = Vec::new();
    for (tid, head) in heads {
        let mut c = ChainSummary {
            tid,
            head,
            records: 0,
            entries: 0,
            payload_bytes: 0,
            stale_entries: 0,
            reclaimable_bytes: 0,
            ts_range: None,
        };
        let mut reader = RecordReader::new(image, head, layout.block_bytes());
        while let Some(rec) = reader.next() {
            c.records += 1;
            let (lo, hi) = c.ts_range.unwrap_or((rec.ts, rec.ts));
            c.ts_range = Some((lo.min(rec.ts), hi.max(rec.ts)));
            let (mut kept, mut stale_bytes) = (0usize, 0);
            for e in rec.entries() {
                let bytes = ENTRY_HDR + e.value.len();
                c.entries += 1;
                c.payload_bytes += bytes;
                if index.is_fresh(rec.ts, e.addr, e.value.len()) {
                    kept += 1;
                } else {
                    c.stale_entries += 1;
                    stale_bytes += bytes;
                }
            }
            // A record left with no entry goes whole, header included.
            c.reclaimable_bytes += stale_bytes + if kept == 0 { REC_HDR } else { 0 };
        }
        chains.push(c);
    }
    InspectReport {
        valid_pool,
        heap_bump,
        block_bytes: layout.block_bytes(),
        threads: layout.threads(),
        chains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentConfig, SpecConfig, SpecSpmt, SpecSpmtShared};
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice, PmemPool};
    use specpmt_txn::{TxAccess, TxRuntime};

    /// An image of `chains` log chains, chain `t` holding `per_chain`
    /// committed overwrites of word `t * stride` — written by one
    /// `TxHandle` per chain, stepped chain after chain from this thread.
    fn chains_image(chains: usize, per_chain: u64, stride: usize) -> CrashImage {
        let shared = SpecSpmtShared::open_or_format(
            1usize << 22,
            ConcurrentConfig::builder().threads(chains).build(),
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
        shared.device().capture(CrashPolicy::AllSurvive)
    }

    #[test]
    fn inspect_reports_committed_records() {
        let img = chains_image(2, 5, 0);
        let report = inspect_image(&img);
        assert!(report.valid_pool);
        assert_eq!(report.threads, 2);
        assert_eq!(report.chains.len(), 2);
        assert_eq!(report.total_records(), 10);
        assert_eq!(report.ts_range(), Some((1, 10)));
        // Both threads hammer the same u64: only the globally youngest
        // record (tid 1's last commit) is fresh; the other 9 entries are
        // reclaimable — and staleness crosses chains (all of tid 0's
        // entries are stale because tid 1 overwrote them).
        assert_eq!(report.total_stale_entries(), 9);
        assert_eq!(report.chains[0].stale_entries, 5);
        assert_eq!(report.chains[1].stale_entries, 4);
        assert!(report.total_reclaimable_bytes() > 0);
        let rendered = report.to_string();
        assert!(rendered.contains("10") || rendered.contains("records"));
        assert!(rendered.contains("2 chain slots"));
        assert!(rendered.contains("reclaimable"));
    }

    #[test]
    fn inspect_sees_all_chains_past_legacy_cap() {
        let img = chains_image(17, 1, 8);
        let report = inspect_image(&img);
        assert_eq!(report.threads, 17);
        assert_eq!(report.chains.len(), 17);
        assert_eq!(report.total_records(), 17);
        assert_eq!(report.chains[16].tid, 16);
    }

    #[test]
    fn inspect_json_mirrors_display_totals() {
        let img = chains_image(2, 5, 0);
        let report = inspect_image(&img);
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
        // Per-chain reclaimable must sum to the global total.
        let per_chain: usize = report.chains.iter().map(|c| c.reclaimable_bytes).sum();
        assert_eq!(per_chain, report.total_reclaimable_bytes());
    }

    #[test]
    fn inspect_rejects_garbage() {
        let img = CrashImage::new(vec![0xAB; 4096]);
        let report = inspect_image(&img);
        assert!(!report.valid_pool);
        assert!(report.chains.is_empty());
        assert!(report.to_string().contains("INVALID"));
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
        let report = inspect_image(&img);
        assert_eq!(report.total_records(), 1, "uncommitted record must not count");
    }
}
