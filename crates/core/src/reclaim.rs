//! Log reclamation support: the byte-granular freshness index.
//!
//! The paper's background reclamator uses a volatile hash table, keyed by
//! datum address, to decide whether a log record is *stale* (every byte it
//! covers is also covered by a younger committed record) and can be
//! dropped. The table is volatile on purpose: it is rebuilt from the log if
//! a crash interrupts reclamation, so it needs no crash consistency of its
//! own.
//!
//! Freshness must consider **committed records of all threads** — an entry
//! may only be dropped when a younger committed record covers its bytes,
//! never because of an in-flight transaction (the same requirement that
//! motivates Fig. 11's epoch-overlap rule in the hardware design).
//!
//! # Incremental cycles
//!
//! A naive cycle re-parses every chain from PM and rebuilds the index from
//! scratch — O(total log) even when nothing happened since the last cycle.
//! [`ReclaimState`] makes cycles incremental:
//!
//! * each chain carries a **change watermark** `(head, generation)`
//!   ([`crate::record::LogArea::generation`]); a chain whose watermark has
//!   not moved since the last cycle is not re-parsed — its cached parse is
//!   reused;
//! * the [`FreshnessIndex`] **persists across cycles** and is only *fed*
//!   the newly parsed records. This is sound because the index fold is
//!   monotone ([`FreshnessIndex::insert_record`]): entries for records that
//!   a rewrite has since dropped may linger, but a dropped record is by
//!   definition covered by a younger retained one, so no freshness verdict
//!   ever depends on vanished data;
//! * when **no** chain changed, the whole cycle is a no-op: the index is
//!   unchanged, so every chain that the previous cycle left fully fresh is
//!   still fully fresh — skipping is always the safe side (a skipped
//!   compaction only delays garbage collection, never corrupts recovery);
//! * a chain whose compaction drops nothing is **not rewritten** (no new
//!   blocks, no splice fences).

use std::collections::HashMap;

use std::time::Instant;

use specpmt_telemetry::{EventKind, JsonWriter, Metric, Phase, StatExport, Telemetry};

use crate::record::{
    encode_record, parse_chain, ByteSource, LogArea, LogEntry, LogRecord, LogStore, REC_HDR,
};

/// Volatile index mapping each logged byte address to the youngest commit
/// timestamp that wrote it.
#[derive(Debug, Clone, Default)]
pub struct FreshnessIndex {
    newest: HashMap<usize, u64>,
}

impl FreshnessIndex {
    /// Builds the index from committed records (any order, any thread).
    pub fn build<'a>(records: impl IntoIterator<Item = &'a LogRecord>) -> Self {
        let mut idx = Self::default();
        for rec in records {
            idx.insert_record(rec);
        }
        idx
    }

    /// Folds one committed record into the index. The fold is monotone
    /// (each byte keeps its *youngest* covering timestamp), so inserting a
    /// record twice — or re-inserting records that survive a compaction —
    /// is idempotent. This is what makes incremental maintenance safe: the
    /// index may retain entries for records that were since dropped, but a
    /// dropped record is by definition covered by a younger *retained*
    /// one, so freshness decisions never rely on vanished data.
    pub fn insert_record(&mut self, rec: &LogRecord) {
        for e in &rec.entries {
            // Wrapping: `inspect` indexes crash images, whose entries can
            // carry any address.
            for i in 0..e.value.len() {
                let slot = self.newest.entry(e.addr.wrapping_add(i)).or_insert(0);
                if rec.ts > *slot {
                    *slot = rec.ts;
                }
            }
        }
    }

    /// Youngest commit timestamp covering `addr`, if any.
    pub fn newest_ts(&self, addr: usize) -> Option<u64> {
        self.newest.get(&addr).copied()
    }

    /// Whether `entry` at commit time `ts` is fresh: at least one of its
    /// bytes has no younger committed record.
    pub fn is_fresh(&self, ts: u64, entry: &LogEntry) -> bool {
        (0..entry.value.len())
            .any(|i| self.newest.get(&entry.addr.wrapping_add(i)).is_none_or(|&n| n <= ts))
    }

    /// Filters a record down to its fresh entries, preserving order.
    /// Returns `None` when nothing survives (the whole record is stale).
    /// The second component counts dropped entries.
    pub fn compact_record(&self, rec: &LogRecord) -> (Option<LogRecord>, u64) {
        let kept: Vec<LogEntry> =
            rec.entries.iter().filter(|e| self.is_fresh(rec.ts, e)).cloned().collect();
        let dropped = (rec.entries.len() - kept.len()) as u64;
        if kept.is_empty() {
            (None, dropped)
        } else {
            (Some(LogRecord { ts: rec.ts, entries: kept }), dropped)
        }
    }

    /// Number of distinct bytes tracked.
    pub fn tracked_bytes(&self) -> usize {
        self.newest.len()
    }
}

/// Observability counters for the incremental reclamator. All counters
/// are cumulative over the runtime's lifetime except
/// [`ReclaimStats::last_cycle_ns`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Reclamation cycles run (including no-op cycles).
    pub cycles: u64,
    /// Cycles where no chain's watermark had moved: the whole cycle was a
    /// scan-free, rewrite-free no-op.
    pub noop_cycles: u64,
    /// Chains parsed from PM (watermark moved since the last cycle).
    pub chains_scanned: u64,
    /// Chain scans skipped because the `(head, generation)` watermark was
    /// unchanged — the cached parse was reused.
    pub chains_skipped: u64,
    /// Chains rewritten (compaction dropped at least one entry).
    pub chains_rewritten: u64,
    /// Chain rewrites skipped because compaction dropped nothing — no new
    /// blocks were written and no splice fences were issued.
    pub rewrites_skipped: u64,
    /// Entries kept across all compaction passes.
    pub records_kept: u64,
    /// Entries dropped as stale across all compaction passes.
    pub records_dropped: u64,
    /// Log bytes (record headers + payload) reclaimed by compaction.
    pub bytes_reclaimed: u64,
    /// Simulated duration of the most recent cycle, in nanoseconds.
    pub last_cycle_ns: u64,
}

impl ReclaimStats {
    /// Difference `self - earlier`, for measuring a phase. Cumulative
    /// counters use saturating subtraction (crossed snapshots clamp to 0
    /// instead of wrapping); the gauge [`ReclaimStats::last_cycle_ns`] is
    /// carried over from `self` unchanged.
    #[must_use]
    pub fn delta_since(&self, earlier: &ReclaimStats) -> ReclaimStats {
        ReclaimStats {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            noop_cycles: self.noop_cycles.saturating_sub(earlier.noop_cycles),
            chains_scanned: self.chains_scanned.saturating_sub(earlier.chains_scanned),
            chains_skipped: self.chains_skipped.saturating_sub(earlier.chains_skipped),
            chains_rewritten: self.chains_rewritten.saturating_sub(earlier.chains_rewritten),
            rewrites_skipped: self.rewrites_skipped.saturating_sub(earlier.rewrites_skipped),
            records_kept: self.records_kept.saturating_sub(earlier.records_kept),
            records_dropped: self.records_dropped.saturating_sub(earlier.records_dropped),
            bytes_reclaimed: self.bytes_reclaimed.saturating_sub(earlier.bytes_reclaimed),
            last_cycle_ns: self.last_cycle_ns,
        }
    }
}

impl StatExport for ReclaimStats {
    fn export_name(&self) -> &'static str {
        "reclaim"
    }

    fn emit(&self, w: &mut JsonWriter) {
        w.field_u64("cycles", self.cycles);
        w.field_u64("noop_cycles", self.noop_cycles);
        w.field_u64("chains_scanned", self.chains_scanned);
        w.field_u64("chains_skipped", self.chains_skipped);
        w.field_u64("chains_rewritten", self.chains_rewritten);
        w.field_u64("rewrites_skipped", self.rewrites_skipped);
        w.field_u64("records_kept", self.records_kept);
        w.field_u64("records_dropped", self.records_dropped);
        w.field_u64("bytes_reclaimed", self.bytes_reclaimed);
        w.field_u64("last_cycle_ns", self.last_cycle_ns);
    }
}

/// Per-chain scan cache: the watermark the cache was taken at plus the
/// committed records parsed then. Volatile, like the index — rebuilt after
/// a crash.
#[derive(Debug, Default)]
struct ChainCache {
    /// `(head, generation)` of the chain when `records` was captured;
    /// `None` forces a re-parse.
    mark: Option<(usize, u64)>,
    records: Vec<LogRecord>,
}

/// Volatile state carried across reclamation cycles: the persistent
/// freshness index, per-chain scan caches with change watermarks, and the
/// observability counters. See the module docs for why reusing all of this
/// across cycles is sound.
#[derive(Debug, Default)]
pub struct ReclaimState {
    index: FreshnessIndex,
    chains: Vec<ChainCache>,
    /// Cycle counters, surfaced through the runtimes' observability APIs.
    pub stats: ReclaimStats,
    /// The open cycle's start: simulated clock, host clock, and
    /// [`ReclaimStats::bytes_reclaimed`] then.
    cycle_start: Option<(u64, Instant, u64)>,
}

/// The steps of a reclamation cycle both runtimes share. A cycle scans
/// every chain ([`ReclaimState::scan_chain`]), rewrites the ones whose
/// compaction drops something ([`ReclaimState::rewrite_chain`]) and, once
/// the caller has persisted a rewrite and swapped the chain's head pointer
/// to it — which is where a background reclamator and a fencing daemon
/// differ — records the splice ([`ReclaimState::spliced`]).
impl ReclaimState {
    /// Opens a cycle over `chains` chains at simulated time `sim_now`.
    pub(crate) fn begin_cycle(&mut self, chains: usize, sim_now: u64) {
        self.ensure_chains(chains);
        self.stats.cycles += 1;
        // Host wall-clock for the telemetry histogram; cycles are rare, so
        // an unconditional `Instant::now()` is well within budget.
        self.cycle_start = Some((sim_now, Instant::now(), self.stats.bytes_reclaimed));
    }

    /// Re-parses chain `tid` from `src` if its `(head, generation)`
    /// watermark moved since its cached parse, folding the records into
    /// the persistent freshness index (the index is volatile and rebuilt
    /// from the log after a crash; it needs no crash consistency of its
    /// own). Returns whether it did; when no chain of a cycle did, the
    /// index is exactly what the previous cycle left, every chain it left
    /// fully fresh still is, and the cycle can end as a no-op.
    pub(crate) fn scan_chain<B: ByteSource>(
        &mut self,
        src: &B,
        tid: usize,
        area: &LogArea,
        block_bytes: usize,
    ) -> bool {
        let mark = (area.head(), area.generation());
        if self.is_current(tid, mark) {
            return false;
        }
        let records = parse_chain(src, area.head(), block_bytes);
        self.install_parse(tid, mark, records);
        self.stats.chains_scanned += 1;
        true
    }

    /// Compacts chain `tid`'s cached parse against the index (freshness
    /// uses committed records of *all* threads). If that drops at least
    /// one entry, writes the kept records plus a terminator into a fresh
    /// chain from `store`, pushes the ranges to persist onto `dirty`, and
    /// returns the new area, its records and the number of entries
    /// dropped. `None` means the chain is fully fresh: no new blocks, no
    /// splice.
    pub(crate) fn rewrite_chain<S: LogStore>(
        &mut self,
        store: &mut S,
        tid: usize,
        block_bytes: usize,
        dirty: &mut Vec<(usize, usize)>,
    ) -> Option<(LogArea, Vec<LogRecord>, u64)> {
        let (kept, dropped, bytes) = self.compact_chain(tid);
        if dropped == 0 {
            self.stats.rewrites_skipped += 1;
            return None;
        }
        self.stats.records_dropped += dropped;
        self.stats.records_kept += kept.iter().map(|r| r.entries.len() as u64).sum::<u64>();
        self.stats.bytes_reclaimed += bytes;
        let mut area = LogArea::create(store, block_bytes, dirty);
        for rec in &kept {
            area.append(store, &encode_record(rec), dirty);
        }
        area.write_terminator(store, dirty);
        Some((area, kept, dropped))
    }

    /// Chain `tid`'s head pointer now names the rewritten `area`: caches
    /// its records at the new watermark so the next cycle can skip
    /// re-parsing it.
    pub(crate) fn spliced(&mut self, tid: usize, area: &LogArea, kept: Vec<LogRecord>) {
        self.stats.chains_rewritten += 1;
        self.commit_rewrite(tid, (area.head(), area.generation()), kept);
    }

    /// Closes the open cycle at simulated time `sim_now` on `tid`'s
    /// telemetry shard; returns the cycle's simulated duration.
    pub(crate) fn end_cycle(&mut self, sim_now: u64, tel: &Telemetry, tid: usize) -> u64 {
        let (sim0, host0, bytes0) = self.cycle_start.take().expect("end of a cycle never begun");
        self.stats.last_cycle_ns = sim_now - sim0;
        let host_ns = u64::try_from(host0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let bytes = self.stats.bytes_reclaimed.saturating_sub(bytes0);
        tel.registry.add(tid, Metric::ReclaimCycles, 1);
        tel.registry.record(tid, Phase::ReclaimCycle, host_ns);
        tel.tracer.record(tid, EventKind::ReclaimCycle, bytes, host_ns);
        self.stats.last_cycle_ns
    }
}

impl ReclaimState {
    /// Grows the per-chain cache vector to cover `n` chains.
    pub fn ensure_chains(&mut self, n: usize) {
        if self.chains.len() < n {
            self.chains.resize_with(n, ChainCache::default);
        }
    }

    /// Drops all cached state (indexes and watermarks), e.g. after
    /// [`switch-out`](crate::runtime::SpecSpmt::switch_out) truncates the
    /// log. Counters are preserved.
    pub fn reset(&mut self) {
        self.index = FreshnessIndex::default();
        for c in &mut self.chains {
            c.mark = None;
            c.records.clear();
        }
    }

    /// Whether chain `tid`'s cached parse is still valid for watermark
    /// `mark`.
    pub fn is_current(&self, tid: usize, mark: (usize, u64)) -> bool {
        self.chains.get(tid).is_some_and(|c| c.mark == Some(mark))
    }

    /// Installs a fresh parse of chain `tid` taken at watermark `mark`,
    /// folding the records into the persistent freshness index.
    pub fn install_parse(&mut self, tid: usize, mark: (usize, u64), records: Vec<LogRecord>) {
        self.ensure_chains(tid + 1);
        for r in &records {
            self.index.insert_record(r);
        }
        let c = &mut self.chains[tid];
        c.records = records;
        c.mark = Some(mark);
    }

    /// Compacts chain `tid`'s cached records against the current index.
    /// Returns `(kept records, dropped entry count, log bytes reclaimed)`;
    /// a zero drop count means the chain needs no rewrite.
    pub fn compact_chain(&self, tid: usize) -> (Vec<LogRecord>, u64, u64) {
        let mut kept_all = Vec::new();
        let mut dropped = 0u64;
        let mut bytes = 0u64;
        for rec in &self.chains[tid].records {
            let before = (REC_HDR + rec.payload_len()) as u64;
            let (kept, d) = self.index.compact_record(rec);
            dropped += d;
            match kept {
                Some(k) => {
                    bytes += before - (REC_HDR + k.payload_len()) as u64;
                    kept_all.push(k);
                }
                None => bytes += before,
            }
        }
        (kept_all, dropped, bytes)
    }

    /// Records that chain `tid` was rewritten to exactly `kept` at the new
    /// watermark `mark`, so the next cycle can skip re-parsing it.
    pub fn commit_rewrite(&mut self, tid: usize, mark: (usize, u64), kept: Vec<LogRecord>) {
        self.ensure_chains(tid + 1);
        let c = &mut self.chains[tid];
        c.records = kept;
        c.mark = Some(mark);
    }

    /// The persistent freshness index.
    pub fn index(&self) -> &FreshnessIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, addr: usize, value: &[u8]) -> LogRecord {
        LogRecord { ts, entries: vec![LogEntry { addr, value: value.to_vec() }] }
    }

    #[test]
    fn younger_record_stales_older() {
        let r1 = rec(1, 0, &[1, 1]);
        let r2 = rec(2, 0, &[2, 2]);
        let idx = FreshnessIndex::build([&r1, &r2]);
        let (kept, dropped) = idx.compact_record(&r1);
        assert!(kept.is_none());
        assert_eq!(dropped, 1);
        let (kept, dropped) = idx.compact_record(&r2);
        assert_eq!(kept.unwrap(), r2);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn partial_overlap_keeps_older_entry() {
        // r1 covers [0, 4); r2 only covers [0, 2): r1 still owns bytes 2-3.
        let r1 = rec(1, 0, &[1; 4]);
        let r2 = rec(2, 0, &[2; 2]);
        let idx = FreshnessIndex::build([&r1, &r2]);
        let (kept, _) = idx.compact_record(&r1);
        assert_eq!(kept.unwrap(), r1);
    }

    #[test]
    fn cross_thread_coverage_counts() {
        // Records from different threads are just records with a global ts.
        let mine = rec(3, 64, &[1; 8]);
        let other = rec(9, 64, &[2; 8]);
        let idx = FreshnessIndex::build([&mine, &other]);
        assert!(idx.compact_record(&mine).0.is_none());
    }

    #[test]
    fn multi_entry_record_partially_compacts() {
        let r1 = LogRecord {
            ts: 1,
            entries: vec![
                LogEntry { addr: 0, value: vec![1] },
                LogEntry { addr: 8, value: vec![1] },
            ],
        };
        let r2 = rec(2, 0, &[2]);
        let idx = FreshnessIndex::build([&r1, &r2]);
        let (kept, dropped) = idx.compact_record(&r1);
        let kept = kept.unwrap();
        assert_eq!(kept.entries.len(), 1);
        assert_eq!(kept.entries[0].addr, 8);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn reclaim_state_watermarks_cache_and_compact() {
        use crate::record::ENTRY_HDR;
        let mut st = ReclaimState::default();
        st.ensure_chains(2);
        assert!(!st.is_current(0, (64, 0)));
        let r1 = rec(1, 0, &[1; 4]);
        st.install_parse(0, (64, 3), vec![r1.clone()]);
        assert!(st.is_current(0, (64, 3)));
        assert!(!st.is_current(0, (64, 4)), "generation bump must invalidate");
        assert!(!st.is_current(0, (65, 3)), "head move must invalidate");
        // Nothing younger anywhere: chain 0 is fully fresh, no rewrite.
        let (kept, dropped, bytes) = st.compact_chain(0);
        assert_eq!(kept, vec![r1.clone()]);
        assert_eq!((dropped, bytes), (0, 0));
        // A younger record arriving on *another* chain stales the cached
        // record of chain 0 through the persistent index.
        st.install_parse(1, (128, 1), vec![rec(2, 0, &[2; 4])]);
        let (kept, dropped, bytes) = st.compact_chain(0);
        assert!(kept.is_empty());
        assert_eq!(dropped, 1);
        assert_eq!(bytes, (REC_HDR + ENTRY_HDR + 4) as u64);
        st.commit_rewrite(0, (256, 0), kept);
        assert!(st.is_current(0, (256, 0)));
        st.reset();
        assert_eq!(st.index().tracked_bytes(), 0);
    }

    #[test]
    fn newest_ts_lookup() {
        let r = rec(7, 100, &[1]);
        let idx = FreshnessIndex::build([&r]);
        assert_eq!(idx.newest_ts(100), Some(7));
        assert_eq!(idx.newest_ts(101), None);
        assert_eq!(idx.tracked_bytes(), 1);
    }
}
