//! The [`SpecSpmt`] transaction runtime.

use specpmt_pmem::{CrashControl, CrashImage, PmemPool, TimingMode};
use specpmt_telemetry::{Metric, Phase, Telemetry};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::engine::{Probe, TxLog};
use crate::layout::PoolLayout;
use crate::reclaim::{ReclaimState, ReclaimStats};
use crate::record::{LogArea, PoolStore, ENTRY_HDR, REC_HDR};
use crate::recovery;

/// The runtime's one chain slot and telemetry shard.
const TID: usize = 0;

/// The sequential runtime's commit crash sites.
fn probe(tel: &Telemetry) -> Probe<'_> {
    Probe {
        seal: Some("seq/commit/seal"),
        append: "seq/commit/append",
        flush: "seq/commit/flush",
        fence: "seq/commit/fence",
        tel,
        tid: TID,
    }
}

/// How log reclamation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReclaimMode {
    /// Never reclaim (the log grows without bound).
    Disabled,
    /// Reclaim on a modelled dedicated background core: PM traffic is
    /// counted but elapsed time is recorded as [`TxStats::background_ns`]
    /// so harnesses exclude it from foreground execution time — the
    /// paper's dedicated-reclamation-thread setup.
    #[default]
    Background,
    /// Reclaim inline on the application thread, charging its time — the
    /// ablation configuration.
    Inline,
}

/// Configuration for [`SpecSpmt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecConfig {
    /// Log block size in bytes.
    pub block_bytes: usize,
    /// `true` selects the SpecSPMT-DP variant: data cache lines are also
    /// flushed (with a second fence) at commit. The paper uses it to
    /// separate the gain of removing fences from the gain of removing data
    /// persistence.
    pub data_persistence: bool,
    /// Reclamation mode.
    pub reclaim_mode: ReclaimMode,
    /// Log footprint in bytes that triggers reclamation at commit /
    /// `maintain` time.
    pub reclaim_threshold_bytes: usize,
}

impl Default for SpecConfig {
    fn default() -> Self {
        Self {
            block_bytes: 4096,
            data_persistence: false,
            reclaim_mode: ReclaimMode::Background,
            reclaim_threshold_bytes: 1 << 20,
        }
    }
}

impl SpecConfig {
    /// The SpecSPMT-DP variant of this configuration.
    #[must_use]
    pub fn dp(mut self) -> Self {
        self.data_persistence = true;
        self
    }
}

/// Software SpecPMT: the speculative-logging transaction runtime, as one
/// handle over one log chain. Pools shared by several threads — real or
/// stepped round-robin from one — are [`crate::SpecSpmtShared`] with one
/// [`crate::TxHandle`] per chain.
///
/// See the crate-level docs for the design; see [`SpecConfig`] for the
/// variants (`SpecSPMT` vs `SpecSPMT-DP`, background vs inline
/// reclamation).
#[derive(Debug)]
pub struct SpecSpmt {
    pool: PmemPool,
    cfg: SpecConfig,
    layout: PoolLayout,
    area: LogArea,
    in_tx: bool,
    /// The open transaction's record, write set and flush plan.
    log: TxLog,
    ts_counter: u64,
    free_blocks: Vec<usize>,
    stats: TxStats,
    /// Incremental-reclamation state: persistent freshness index, the
    /// chain's watermarked record cache and suffix cursor, cycle counters.
    reclaim: ReclaimState,
    /// Metrics registry (off by default; see [`SpecSpmt::telemetry`]).
    tel: Telemetry,
}

impl SpecSpmt {
    /// Creates the runtime over `pool`, formatting a fresh (empty) log
    /// chain. Construction runs with device timing disabled (it is setup,
    /// not measured execution).
    ///
    /// Calling this on a pool that held earlier SpecPMT state resets the
    /// log; use it only on fresh pools or after [`SpecSpmt::recover`] has
    /// repaired (and the caller has persisted) the data.
    ///
    /// # Panics
    ///
    /// Panics if the block size is out of range.
    pub fn new(mut pool: PmemPool, cfg: SpecConfig) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let layout = PoolLayout::format(&mut pool, 1, cfg.block_bytes);
        let mut free_blocks = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut pool, &mut free_blocks),
            cfg.block_bytes,
            &mut Vec::new(),
        );
        layout.set_head(&mut pool, TID, area.head() as u64);
        pool.device_mut().flush_everything();
        pool.device_mut().set_timing(prev);
        let log = TxLog::new(cfg.data_persistence);
        Self {
            pool,
            cfg,
            layout,
            area,
            in_tx: false,
            log,
            ts_counter: 1,
            free_blocks,
            stats: TxStats::default(),
            reclaim: ReclaimState::default(),
            tel: Telemetry::new(1),
        }
    }

    /// The runtime's telemetry bundle: counters and commit-phase latency
    /// histograms. Disabled until [`Telemetry::set_enabled`] turns it on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Cumulative reclamation counters (cycles, watermark skips, rewrites,
    /// bytes reclaimed).
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim.stats
    }

    /// Total PM bytes currently occupied by the log chain.
    pub fn log_footprint(&self) -> usize {
        self.area.footprint()
    }

    fn refresh_log_stats(&mut self) {
        self.stats.log_live_bytes = self.log_footprint() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
    }

    /// Explicitly runs a log-reclamation cycle (the paper's explicit API).
    /// No-op while the open transaction holds a *record* (it has written;
    /// one that has only read pins nothing) or when reclamation is
    /// disabled.
    ///
    /// Cycles are incremental (see [`crate::reclaim`]): a chain whose
    /// `(head, generation)` watermark has not moved is not read, one that
    /// grew is read only from where the last scan stopped, the freshness
    /// index persists across cycles and is only fed those new records, and
    /// a compaction that drops nothing does not rewrite. A cycle in which
    /// the chain did not change does no PM work at all.
    pub fn reclaim_now(&mut self) {
        if self.cfg.reclaim_mode == ReclaimMode::Disabled || self.log.reserved() {
            return;
        }
        let block_bytes = self.cfg.block_bytes;
        self.reclaim.begin_cycle(1, self.pool.device().now_ns());

        // Scan: read what the chain gained, if its watermark moved.
        if !self.reclaim.scan_chain(self.pool.device(), TID, &self.area, block_bytes) {
            self.reclaim.stats.chains_skipped += 1;
            self.reclaim.stats.noop_cycles += 1;
            self.reclaim.end_cycle(self.pool.device().now_ns(), &self.tel, TID);
            return;
        }

        // Compact: rewrite only if that drops at least one entry.
        let mut dirty = Vec::new();
        let rewrite = self.reclaim.rewrite_chain(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            TID,
            block_bytes,
            &mut dirty,
        );

        // Persist the new chain before the head pointer moves (fence 1),
        // then atomically swap the 8-byte head pointer (fence 2): a crash
        // sees the old chain or the new one, and both parse to the same
        // committed state. In background mode the reclamator core issues
        // these as background writes: they contend for the WPQ but do not
        // stall the application thread.
        let background = self.cfg.reclaim_mode == ReclaimMode::Background;
        if let Some((area, dropped)) = rewrite {
            self.pool.device().crash_point("seq/reclaim/pre_fence");
            if background {
                for &(addr, len) in &dirty {
                    self.pool.device_mut().background_range_write(addr, len);
                }
            } else {
                self.pool.device_mut().clwb_ranges(&dirty);
                self.pool.device_mut().sfence();
            }
            self.pool.device().crash_point("seq/reclaim/fence");
            let (layout, head) = (self.layout, area.head() as u64);
            if background {
                layout.set_head_background(&mut self.pool, TID, head);
            } else {
                layout.set_head(&mut self.pool, TID, head);
            }
            self.reclaim.spliced(TID, &area);
            self.stats.records_reclaimed += dropped;
            let old = std::mem::replace(&mut self.area, area);
            self.free_blocks.extend(old.into_blocks());
            self.pool.device().crash_point("seq/reclaim/splice");
        }

        self.refresh_log_stats();
        let cycle_ns = self.reclaim.end_cycle(self.pool.device().now_ns(), &self.tel, TID);
        if background {
            self.stats.background_ns += cycle_ns;
        }
    }

    /// Adopts *external data* (Section 4.3.2): durable bytes produced by
    /// other software (or an earlier run) have no speculative log records,
    /// so an interrupted update to them could not be revoked. This creates
    /// the one-time snapshot the paper prescribes — a committed record of
    /// the region's current contents — after which the region is fully
    /// covered by speculative logging.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open.
    pub fn snapshot_external(&mut self, addr: usize, len: usize) {
        assert!(!self.in_tx(), "snapshot_external inside a transaction");
        let mut remaining = len;
        let mut at = addr;
        // Chunk the snapshot so a single call cannot monopolize a record.
        const CHUNK: usize = 16 * 1024;
        while remaining > 0 {
            let n = remaining.min(CHUNK);
            let content = self.pool.device().peek(at, n).to_vec();
            self.begin();
            self.write(at, &content);
            self.commit();
            at += n;
            remaining -= n;
        }
    }

    /// Switches out of speculative logging (Section 4.3.1): flushes all
    /// dirty durable data so the log is no longer needed for recovery, then
    /// truncates the log chain. After this another crash-consistency
    /// mechanism may own the pool.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open.
    pub fn switch_out(&mut self) {
        assert!(!self.in_tx, "switch_out inside a transaction");
        // The paper's whole-cache flush (`wbnoinvd`) equivalent.
        self.pool.device_mut().flush_everything();
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            self.cfg.block_bytes,
            &mut dirty,
        );
        self.pool.device_mut().clwb_ranges(&dirty);
        self.pool.device_mut().sfence();
        let layout = self.layout;
        layout.set_head(&mut self.pool, TID, area.head() as u64);
        let old = std::mem::replace(&mut self.area, area);
        self.free_blocks.extend(old.into_blocks());
        // The log was truncated: the cached parse and the freshness index
        // no longer describe the live chain.
        self.reclaim.reset();
        self.refresh_log_stats();
    }
}

impl TxAccess for SpecSpmt {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction on thread 0");
        self.stats.tx_begun += 1;
        self.tel.registry.add(TID, Metric::Begins, 1);
        // Volatile only: the log is not touched until the first write
        // reserves the record header.
        self.log.begin();
        self.in_tx = true;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        let Self { pool, free_blocks, area, log, stats, tel, .. } = self;
        let mut store = PoolStore::new(pool, free_blocks);
        if !log.reserved() {
            log.reserve(&mut store, area);
        }
        // Write-set build phase: everything staged between begin and seal
        // (in-place store + log staging + dedup bookkeeping).
        let _ws_span = tel.registry.span(TID, Phase::Writeset);
        stats.updates += 1;
        stats.data_bytes += data.len() as u64;
        if log.stage(&mut store, area, addr, data) {
            stats.log_bytes += (ENTRY_HDR + data.len()) as u64;
            tel.registry.add(TID, Metric::LogEntries, 1);
        }
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        // Direct in-place access (a key SpecPMT property: no redirection).
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        if !self.log.reserved() {
            // Write-free: no record was reserved, so there is nothing to
            // seal, flush or fence — and no zero-length header to strand
            // the chain's younger records behind.
            self.in_tx = false;
            self.stats.tx_committed += 1;
            self.stats.write_free_commits += 1;
            self.tel.registry.add(TID, Metric::Commits, 1);
            self.tel.registry.add(TID, Metric::WriteFreeCommits, 1);
            return;
        }
        let ts = self.ts_counter;
        self.ts_counter += 1;

        let Self { pool, free_blocks, area, in_tx, log, stats, tel, .. } = self;
        let commit_span = tel.registry.span(TID, Phase::Commit);
        let mut store = PoolStore::new(pool, free_blocks);
        let sim0 = store.pool.device().now_ns();
        let p = probe(tel);
        log.seal(&mut store, area, ts, p);
        stats.log_bytes += REC_HDR as u64;
        log.drain_solo(&mut store, p, |_| {});

        *in_tx = false;
        stats.tx_committed += 1;
        tel.registry.add(TID, Metric::Commits, 1);
        // Simulated device nanoseconds charged for the seal — the
        // scheduler-immune counterpart of the host-time `commit` span,
        // comparable across runtimes.
        let sim_ns = store.pool.device().now_ns().saturating_sub(sim0);
        tel.registry.record(TID, Phase::CommitSim, sim_ns);
        commit_span.stop();
        self.refresh_log_stats();
        // Implicit reclamation trigger (paper §4.2).
        self.maintain();
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn maintain(&mut self) {
        if self.cfg.reclaim_mode != ReclaimMode::Disabled
            && self.log_footprint() > self.cfg.reclaim_threshold_bytes
        {
            self.reclaim_now();
        }
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for SpecSpmt {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        if self.cfg.data_persistence {
            "SpecSPMT-DP"
        } else {
            "SpecSPMT"
        }
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for SpecSpmt {
    fn recover(image: &mut CrashImage) {
        recovery::recover_image_opts(image, &recovery::RecoveryOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice, BUMP_OFF};

    fn runtime(cfg: SpecConfig) -> SpecSpmt {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        SpecSpmt::new(pool, cfg)
    }

    fn alloc_region(rt: &mut SpecSpmt, bytes: usize) -> usize {
        let base = rt.pool_mut().alloc_direct(bytes, 64).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(base, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        base
    }

    #[test]
    fn committed_value_survives_all_lost_crash() {
        let mut rt = runtime(SpecConfig::default());
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 0xFEED);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 0xFEED);
    }

    #[test]
    fn uncommitted_tx_is_revoked_even_if_data_evicted() {
        let mut rt = runtime(SpecConfig::default());
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        // Crash before commit, with *everything* (data + torn log) evicted.
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        SpecSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 1, "uncommitted update must be revoked");
    }

    #[test]
    fn exactly_one_fence_per_commit() {
        let mut rt = runtime(SpecConfig::default());
        let a = alloc_region(&mut rt, 256);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..8 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        let after = rt.pool().device().stats().sfence_count;
        assert_eq!(after - before, 1, "SpecSPMT commits with a single fence");
    }

    #[test]
    fn dp_variant_adds_data_fence_and_flushes() {
        let mut rt = runtime(SpecConfig::default().dp());
        assert_eq!(rt.name(), "SpecSPMT-DP");
        let a = alloc_region(&mut rt, 256);
        let s0 = rt.pool().device().stats().clone();
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        let s1 = rt.pool().device().stats().delta_since(&s0);
        assert_eq!(s1.sfence_count, 2);
        // Data survives AllLost even without recovery.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn write_set_indexing_dedups_repeated_updates() {
        let mut rt = runtime(SpecConfig::default());
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        for v in 0..100u64 {
            rt.write_u64(a, v);
        }
        rt.commit();
        // Only one entry logged (plus header bytes).
        let logged = rt.tx_stats().log_bytes;
        assert_eq!(logged, (REC_HDR + ENTRY_HDR + 8) as u64);
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 99);
    }

    #[test]
    fn transactional_alloc_is_crash_atomic() {
        let mut rt = runtime(SpecConfig::default());
        let root = alloc_region(&mut rt, 64);
        rt.begin();
        let obj = rt.alloc(32, 8);
        rt.write_u64(obj, 77);
        rt.write_u64(root, obj as u64);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmt::recover(&mut img);
        let obj2 = img.read_u64(root) as usize;
        assert_eq!(obj2, obj);
        assert_eq!(img.read_u64(obj2), 77);
        // Bump pointer is durable past the allocation.
        assert!(img.read_u64(BUMP_OFF) as usize >= obj + 32);
    }

    #[test]
    fn reclamation_shrinks_log_and_preserves_recovery() {
        let mut rt = runtime(SpecConfig {
            reclaim_threshold_bytes: usize::MAX, // manual trigger only
            ..SpecConfig::default()
        });
        let a = alloc_region(&mut rt, 64);
        for v in 0..2000u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        let before = rt.log_footprint();
        rt.reclaim_now();
        let after = rt.log_footprint();
        assert!(after < before, "reclamation must shrink the log: {before} -> {after}");
        assert!(rt.tx_stats().records_reclaimed > 0);
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 1999);
    }

    #[test]
    fn implicit_reclaim_bounds_footprint() {
        let mut rt =
            runtime(SpecConfig { reclaim_threshold_bytes: 64 * 1024, ..SpecConfig::default() });
        let a = alloc_region(&mut rt, 64);
        for v in 0..20_000u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        assert!(
            rt.log_footprint() <= 2 * 64 * 1024,
            "footprint {} exceeds bound",
            rt.log_footprint()
        );
    }

    #[test]
    fn background_reclaim_records_background_time() {
        let mut rt =
            runtime(SpecConfig { reclaim_threshold_bytes: 32 * 1024, ..SpecConfig::default() });
        let a = alloc_region(&mut rt, 64);
        for v in 0..10_000u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        assert!(rt.tx_stats().background_ns > 0);
    }

    #[test]
    fn inline_reclaim_charges_foreground() {
        let mut rt = runtime(SpecConfig {
            reclaim_mode: ReclaimMode::Inline,
            reclaim_threshold_bytes: 32 * 1024,
            ..SpecConfig::default()
        });
        let a = alloc_region(&mut rt, 64);
        for v in 0..10_000u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        assert_eq!(rt.tx_stats().background_ns, 0);
    }

    /// `reclaim_now` over a seeded history (writing, write-free and
    /// snapshot transactions), inline and background: after every cycle
    /// the suffix-scanned cache equals a full re-parse, and a rewritten
    /// chain holds exactly `encode_record` of the reference compaction.
    #[test]
    fn reclaim_now_matches_full_reparse_over_a_seeded_history() {
        use crate::reclaim::tests::{encode_all, reference_compaction};
        use crate::record::parse_chain;
        for mode in [ReclaimMode::Inline, ReclaimMode::Background] {
            let mut rt = runtime(SpecConfig {
                block_bytes: 256,
                reclaim_mode: mode,
                reclaim_threshold_bytes: usize::MAX,
                ..SpecConfig::default()
            });
            let a = alloc_region(&mut rt, 160);
            let mut rng = specpmt_pmem::SplitMix64::new(0x5EED ^ mode as u64);
            let mut rewrites = 0;
            for step in 0..800 {
                if rng.below(10) > 0 {
                    rt.begin();
                    // One 16-byte slot per write: entries of different
                    // transactions overlap partially, never within one.
                    let first = rng.range_usize(0, 9);
                    for k in 0..rng.range_usize(0, 3) {
                        let len = rng.range_usize(0, 12);
                        let at = a + (first + k) % 10 * 16 + rng.range_usize(0, 16 - len);
                        let data: Vec<u8> = (0..len).map(|_| rng.next_u8()).collect();
                        rt.write(at, &data);
                    }
                    rt.commit();
                    continue;
                }
                let before = parse_chain(rt.pool.device(), rt.area.head(), 256);
                let want = reference_compaction(std::slice::from_ref(&before)).remove(0);
                let head = rt.area.head();
                rt.reclaim_now();
                let after = parse_chain(rt.pool.device(), rt.area.head(), 256);
                assert_eq!(after, want, "{mode:?} step={step}");
                assert_eq!(rt.area.head() != head, want != before, "{mode:?} step={step}");
                assert_eq!(rt.reclaim.cached_chain(TID), after, "{mode:?} step={step}");
                if want != before {
                    assert_eq!(rt.reclaim.cached_bytes(TID), encode_all(&want));
                    rewrites += 1;
                }
            }
            assert!(rewrites > 20, "history too tame: {rewrites} rewrites");
            let live = rt.pool.device().peek(a, 160).to_vec();
            let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
            SpecSpmt::recover(&mut img);
            assert_eq!(img.as_bytes()[a..a + 160], live[..], "{mode:?}");
        }
    }

    #[test]
    fn reclaim_is_noop_while_record_open() {
        let mut rt =
            runtime(SpecConfig { reclaim_threshold_bytes: usize::MAX, ..SpecConfig::default() });
        let a = alloc_region(&mut rt, 64);
        for v in 0..500u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        rt.begin();
        rt.write_u64(a, 999);
        let before = rt.log_footprint();
        rt.reclaim_now();
        assert_eq!(rt.log_footprint(), before);
        assert_eq!(rt.reclaim_stats().cycles, 0);
        rt.commit();
    }

    #[test]
    fn snapshot_external_enables_revocation_of_foreign_data() {
        // Data written outside the runtime (another software's output).
        let mut rt = runtime(SpecConfig::default());
        let a = rt.pool_mut().alloc_direct(64, 64).unwrap();
        rt.pool_mut().device_mut().write_u64(a, 0x0123);
        rt.pool_mut().device_mut().persist_range(a, 8);

        rt.snapshot_external(a, 64);
        // An interrupted update to the foreign datum is now revocable.
        rt.begin();
        rt.write_u64(a, 0xBAD);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        SpecSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 0x0123);
    }

    #[test]
    fn snapshot_external_chunks_large_regions() {
        let mut rt = runtime(SpecConfig::default());
        let a = rt.pool_mut().alloc_direct(48 * 1024, 64).unwrap();
        rt.snapshot_external(a, 48 * 1024);
        // 3 chunk transactions of 16 KiB each.
        assert_eq!(rt.tx_stats().tx_committed, 3);
    }

    #[test]
    fn switch_out_makes_data_durable_without_log() {
        let mut rt = runtime(SpecConfig::default());
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 0xCAFE);
        rt.commit();
        rt.switch_out();
        // No recovery at all: data must already be persistent.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 0xCAFE);
    }

    #[test]
    fn large_transaction_spills_blocks() {
        let mut rt = runtime(SpecConfig { block_bytes: 256, ..SpecConfig::default() });
        let a = alloc_region(&mut rt, 8192);
        rt.begin();
        for i in 0..512 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmt::recover(&mut img);
        for i in 0..512 {
            assert_eq!(img.read_u64(a + i * 8), i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "nested transaction")]
    fn nested_begin_panics() {
        let mut rt = runtime(SpecConfig::default());
        rt.begin();
        rt.begin();
    }

    #[test]
    #[should_panic(expected = "outside transaction")]
    fn write_outside_tx_panics() {
        let mut rt = runtime(SpecConfig::default());
        let a = rt.pool_mut().alloc_direct(8, 8).unwrap();
        rt.write_u64(a, 1);
    }
}
