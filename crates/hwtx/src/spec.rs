//! Hardware SpecPMT: hybrid logging + epoch-based log reclamation.

use std::collections::VecDeque;

use specpmt_core::record::{LogArea, PoolStore, RecordReader, ENTRY_HDR, REC_HDR};
use specpmt_core::{recovery, PoolLayout};
use specpmt_hwsim::{HwConfig, HwCore};
use specpmt_pmem::{CrashImage, PmemPool, TimingMode, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::common::{flush_line_set, lines_of_ranges, lines_touching, LineSet, RecordBuf, UndoLog};

/// Configuration for [`HwSpecPmt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwSpecConfig {
    /// Hardware core parameters (hot threshold, TLB/cache geometry, …).
    pub hw: HwConfig,
    /// `true` selects SpecHPMT-DP: data lines are also flushed at commit.
    pub data_persistence: bool,
    /// Epoch record-bytes threshold (paper default: 2 MB of records).
    pub epoch_max_bytes: usize,
    /// Epoch page threshold (paper default: 200 speculatively logged pages).
    pub epoch_max_pages: usize,
    /// Live (unreclaimed) epochs kept before the oldest is reclaimed;
    /// bounds log memory at roughly `max_live_epochs x epoch_max_bytes`.
    pub max_live_epochs: usize,
    /// Log block size.
    pub block_bytes: usize,
    /// Undo-log region capacity.
    pub undo_bytes: usize,
}

impl Default for HwSpecConfig {
    fn default() -> Self {
        Self {
            hw: HwConfig::default(),
            data_persistence: false,
            epoch_max_bytes: 2 << 20,
            epoch_max_pages: 200,
            max_live_epochs: 3,
            block_bytes: 4096,
            undo_bytes: 1 << 20,
        }
    }
}

impl HwSpecConfig {
    /// The SpecHPMT-DP variant.
    #[must_use]
    pub fn dp(mut self) -> Self {
        self.data_persistence = true;
        self
    }
}

#[derive(Debug)]
struct Epoch {
    eid: u8,
    slot: usize,
    area: LogArea,
    record_bytes: usize,
    pages: usize,
}

/// Hardware SpecPMT (Section 5): speculative logging for hot pages
/// (tracked by TLB hotness counters, promoted by the bulk-copy engine),
/// undo logging for cold data, commit-time L1 scans creating per-line
/// speculative records persisted with one fence, and foreground
/// epoch-based reclamation via `startepoch`/`clearepoch`.
#[derive(Debug)]
pub struct HwSpecPmt {
    pool: PmemPool,
    core: HwCore,
    cfg: HwSpecConfig,
    layout: PoolLayout,
    epochs: VecDeque<Epoch>,
    next_eid: u8,
    free_slots: Vec<usize>,
    undo: UndoLog,
    free_blocks: Vec<usize>,
    ts_counter: u64,
    in_tx: bool,
    hot_dirty_lines: LineSet,
    cold_data_lines: LineSet,
    logged_cold_lines: LineSet,
    flush_set: LineSet,
    /// The epoch, page or eviction record being encoded.
    rec: RecordBuf,
    /// Footprint sampling for the Fig. 15 memory-consumption axis.
    footprint_samples: u64,
    footprint_sum: u64,
    /// Control-status register bit: speculative logging enabled.
    spec_enabled: bool,
    stats: TxStats,
}

/// Chain slots the pool is formatted with: one per 3-bit EID value. At
/// most `max_live_epochs` (≤ 6) are in use, so a new epoch always finds a
/// free one.
const EPOCH_SLOTS: usize = 8;

impl HwSpecPmt {
    /// Creates the runtime with one open epoch.
    pub fn new(mut pool: PmemPool, cfg: HwSpecConfig) -> Self {
        assert!(
            (1..=6).contains(&cfg.max_live_epochs),
            "max_live_epochs must be 1..=6 (3-bit EIDs, 0 = cold)"
        );
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        // The undo region first, so that it starts the heap on an XPLine
        // boundary: its first line is flushed by every truncation, and
        // behind the descriptor it costs +2.9 % on `tests/hw_golden.rs`.
        let undo = UndoLog::new(&mut pool, cfg.undo_bytes);
        let layout = PoolLayout::format(&mut pool, EPOCH_SLOTS, cfg.block_bytes);
        pool.device_mut().set_timing(prev);
        let mut rt = Self {
            pool,
            core: HwCore::new(cfg.hw.clone()),
            cfg,
            layout,
            epochs: VecDeque::new(),
            next_eid: 1,
            free_slots: (0..EPOCH_SLOTS).rev().collect(),
            undo,
            free_blocks: Vec::new(),
            ts_counter: 1,
            in_tx: false,
            hot_dirty_lines: LineSet::default(),
            cold_data_lines: LineSet::default(),
            logged_cold_lines: LineSet::default(),
            flush_set: LineSet::default(),
            rec: RecordBuf::default(),
            footprint_samples: 0,
            footprint_sum: 0,
            spec_enabled: true,
            stats: TxStats::default(),
        };
        rt.start_epoch();
        rt
    }

    /// Hardware counters.
    pub fn hw_stats(&self) -> &specpmt_hwsim::HwStats {
        self.core.stats()
    }

    /// Sets the control-status register bit enabling speculative logging
    /// (Section 5.1.2). With the bit clear the runtime behaves as pure
    /// hardware undo logging (every page treated as cold).
    pub fn set_speculative_logging(&mut self, enabled: bool) {
        self.spec_enabled = enabled;
    }

    /// Whether speculative logging is currently enabled.
    pub fn speculative_logging(&self) -> bool {
        self.spec_enabled
    }

    /// Current log footprint (epoch chains + undo region use).
    pub fn log_footprint(&self) -> usize {
        self.epochs.iter().map(|e| e.area.footprint()).sum::<usize>() + self.undo.used()
    }

    /// Average sampled log footprint over the run (Fig. 15 x-axis).
    pub fn avg_log_footprint(&self) -> f64 {
        if self.footprint_samples == 0 {
            0.0
        } else {
            self.footprint_sum as f64 / self.footprint_samples as f64
        }
    }

    fn next_ts(&mut self) -> u64 {
        let ts = self.ts_counter;
        self.ts_counter += 1;
        ts
    }

    /// Starts a new epoch (`startepoch EID`), reclaiming the oldest when
    /// the live-epoch bound or the EID space requires it.
    fn start_epoch(&mut self) {
        while self.epochs.len() >= self.cfg.max_live_epochs {
            self.reclaim_oldest();
        }
        let eid = self.next_eid;
        self.next_eid = self.next_eid % 7 + 1;
        // An EID may not be reused while still live.
        while self.epochs.iter().any(|e| e.eid == eid) {
            self.reclaim_oldest();
        }
        let slot = self.free_slots.pop().expect("slot available after reclamation");
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            self.cfg.block_bytes,
            &mut dirty,
        );
        let mut lines = LineSet::default();
        lines_of_ranges(&dirty, &mut lines);
        flush_line_set(self.pool.device_mut(), &lines);
        self.pool.device_mut().sfence();
        self.layout.set_head(&mut self.pool, slot, area.head() as u64);
        self.epochs.push_back(Epoch { eid, slot, area, record_bytes: 0, pages: 0 });
    }

    /// Reclaims the oldest epoch (Section 5.2.1): persist the data its
    /// records speculate, `clearepoch`, free the log space. Foreground —
    /// a few instructions plus the data flushes, no background thread.
    fn reclaim_oldest(&mut self) {
        let Some(epoch) = self.epochs.pop_front() else {
            return;
        };
        // Step 1: persist all speculatively-logged data of the epoch by
        // scanning its records into the flush set (idle: epochs rotate
        // between transactions) and flushing the named lines.
        let mut reader =
            RecordReader::new(self.pool.device(), epoch.area.head(), self.cfg.block_bytes);
        self.flush_set.clear();
        while let Some(rec) = reader.next() {
            self.stats.records_reclaimed += 1;
            rec.entries().for_each(|e| self.flush_set.insert_range(e.addr, e.value.len()));
        }
        for &l in self.flush_set.as_slice() {
            self.pool.device_mut().clwb(l);
            self.core.l1_mut().mark_clean(l);
        }
        self.pool.device_mut().sfence();
        // Step 2: clearepoch — the epoch's pages become cold.
        self.core.clear_epoch(self.pool.device_mut(), epoch.eid);
        // Step 3: reclaim the log space (head pointer cleared atomically).
        self.layout.set_head(&mut self.pool, epoch.slot, 0);
        self.free_slots.push(epoch.slot);
        self.free_blocks.extend(epoch.area.into_blocks());
        self.stats.log_live_bytes = self.log_footprint() as u64;
    }

    /// Seals the record staged in `self.rec` with `ts` and appends it to
    /// the active epoch. `background` selects bulk-engine persistence (page
    /// copies, eviction logging — durable immediately, WPQ bandwidth only)
    /// over commit-fence persistence (the commit record's lines join the
    /// flush set and the single commit fence waits for their acceptance).
    fn append_record(&mut self, ts: u64, background: bool) {
        let epoch = self.epochs.back_mut().expect("active epoch");
        let mut store = PoolStore::new(&mut self.pool, &mut self.free_blocks);
        let bytes = self.rec.append(ts, &mut epoch.area, &mut store);
        epoch.record_bytes += bytes;
        if background {
            for &(addr, len) in self.rec.dirty() {
                self.pool.device_mut().background_range_write(addr, len);
            }
        } else {
            lines_of_ranges(self.rec.dirty(), &mut self.flush_set);
        }
        self.stats.log_bytes += bytes as u64;
    }

    /// Speculatively logs `[addr, addr + len)` as a record of its own
    /// through the bulk engine, straight from the device image.
    fn spec_log_range(&mut self, addr: usize, len: usize) {
        let ts = self.next_ts();
        self.rec.begin();
        self.rec.push(addr, self.pool.device().peek(addr, len));
        self.append_record(ts, true);
    }

    /// Speculatively logs a whole page (cold → hot transition) using the
    /// bulk-copy engine; the record persists immediately (NT writes), so
    /// later evictions of the page's lines are always covered.
    fn bulk_log_page(&mut self, page: usize) {
        self.core.charge_bulk_copy(self.pool.device_mut());
        self.spec_log_range(page * self.cfg.hw.page_bytes, self.cfg.hw.page_bytes);
        let epoch = self.epochs.back_mut().expect("active epoch");
        self.core.make_page_hot(page, epoch.eid);
        epoch.pages += 1;
    }

    /// Undo-logs `line` unless this transaction already has.
    fn undo_log_line(&mut self, line: usize) {
        if self.logged_cold_lines.insert(line) {
            self.undo.append_line(self.pool.device_mut(), line);
            self.stats.log_bytes += (24 + CACHE_LINE) as u64;
        }
    }
}

impl TxAccess for HwSpecPmt {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.hot_dirty_lines.clear();
        self.cold_data_lines.clear();
        self.logged_cold_lines.clear();
        self.flush_set.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        if data.is_empty() {
            return;
        }
        let page = addr / self.cfg.hw.page_bytes;
        let access = self.core.store(self.pool.device_mut(), addr, data.len());
        let tlb = access.tlb.expect("stores carry TLB metadata");
        let lines = lines_touching(addr, data.len());

        let hot = if tlb.epoch_bit {
            true
        } else if !self.spec_enabled {
            false
        } else {
            let counter = self.core.tlb_mut().bump_counter(page);
            if counter >= self.cfg.hw.hot_threshold {
                // Undo-log first (the transition still undo-logs the data
                // being stored), then promote the page.
                lines.clone().for_each(|l| self.undo_log_line(l));
                self.bulk_log_page(page);
                true
            } else {
                false
            }
        };

        for l in lines {
            if hot {
                self.core.l1_mut().set_flags(l, true, true);
                self.hot_dirty_lines.insert(l);
            } else {
                self.undo_log_line(l);
                self.cold_data_lines.insert(l);
            }
        }
        // The in-place update itself.
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;

        // Mid-transaction eviction of a speculatively-logged dirty line:
        // log it before it overflows (Section 5.2).
        if let Some(ev) = access.evicted {
            if ev.dirty && ev.logbit {
                self.spec_log_range(ev.addr, CACHE_LINE);
            }
        }
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.core.load(self.pool.device_mut(), addr, buf.len());
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        // Scan L1 for dirty transactional lines and build the commit
        // record from the speculatively-logged (hot) ones.
        self.core.charge_commit_scan(self.pool.device_mut());
        let ts = self.next_ts();
        if !self.hot_dirty_lines.is_empty() {
            self.rec.begin();
            for &l in self.hot_dirty_lines.as_slice() {
                self.rec.push(l, self.pool.device().peek(l, CACHE_LINE));
            }
            self.append_record(ts, false);
        }
        // One fence persists: the commit record, the undo records, the
        // cold data lines, and the undo truncation. Hot data lines are
        // *not* persisted (they overflow naturally via PBit evictions).
        for &l in self.cold_data_lines.as_slice() {
            self.flush_set.insert(l);
            self.core.l1_mut().mark_clean(l);
        }
        if self.cfg.data_persistence {
            // SpecHPMT-DP: the hot data lines persist by the same commit
            // fence (ordering inside the commit is the hardware's job).
            for &l in self.hot_dirty_lines.as_slice() {
                self.flush_set.insert(l);
                self.core.l1_mut().mark_clean(l);
            }
        }
        if self.undo.used() > 0 {
            self.undo.truncate(self.pool.device_mut(), &mut self.flush_set);
        }
        flush_line_set(self.pool.device_mut(), &self.flush_set);
        self.pool.device_mut().sfence();

        self.core.l1_mut().clear_logbits();
        self.in_tx = false;
        self.stats.tx_committed += 1;
        let footprint = self.log_footprint() as u64;
        self.stats.log_live_bytes = footprint;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(footprint);
        self.footprint_samples += 1;
        self.footprint_sum += footprint;

        // Epoch rotation check (paper: after each commit).
        let epoch = self.epochs.back().expect("active epoch");
        if epoch.record_bytes > self.cfg.epoch_max_bytes || epoch.pages > self.cfg.epoch_max_pages {
            self.start_epoch();
        }
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for HwSpecPmt {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        if self.cfg.data_persistence {
            "SpecHPMT-DP"
        } else {
            "SpecHPMT"
        }
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for HwSpecPmt {
    fn recover(image: &mut CrashImage) {
        // Committed speculative records (all epoch chains) in timestamp
        // order, then roll back the interrupted transaction's cold writes.
        recovery::recover_image_opts(image, &recovery::RecoveryOptions::default());
        UndoLog::recover(image);
    }
}

impl HwSpecPmt {
    /// Per-epoch fixed overhead for test bounds (block + record headers).
    #[doc(hidden)]
    pub fn config_epoch_overhead(&self) -> usize {
        self.cfg.block_bytes + REC_HDR + ENTRY_HDR
    }

    /// Undo-region bytes currently live (test support).
    #[doc(hidden)]
    pub fn undo_used(&self) -> usize {
        self.undo.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hw_pool;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::CrashPolicy;

    fn runtime(cfg: HwSpecConfig) -> HwSpecPmt {
        HwSpecPmt::new(hw_pool(16 << 20), cfg)
    }

    fn region(rt: &mut HwSpecPmt, bytes: usize) -> usize {
        let a = rt.pool_mut().alloc_direct(bytes, 4096).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(a, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        a
    }

    /// Hammer one page hot.
    fn make_hot(rt: &mut HwSpecPmt, addr: usize) {
        for v in 0..16u64 {
            rt.begin();
            rt.write_u64(addr, v);
            rt.commit();
        }
    }

    #[test]
    fn cold_writes_are_undo_logged_and_persisted() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        rt.begin();
        rt.write_u64(a, 5);
        rt.commit();
        // Cold data is flushed at commit — durable without recovery.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 5);
    }

    #[test]
    fn page_becomes_hot_after_threshold_stores() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        make_hot(&mut rt, a);
        assert!(rt.hw_stats().pages_made_hot >= 1);
        assert!(rt.hw_stats().bulk_copies >= 1);
        let page = a / 4096;
        let entry = rt.core.tlb_mut().entry(page).unwrap();
        assert!(entry.epoch_bit, "page must be hot");
    }

    #[test]
    fn hot_writes_skip_data_persistence_but_recover() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        make_hot(&mut rt, a);
        rt.begin();
        rt.write_u64(a, 0xABCD);
        rt.commit();
        // The datum itself stayed in cache; recovery replays the record.
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_ne!(img.read_u64(a), 0xABCD, "a hot line must not be flushed at commit");
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 0xABCD);
    }

    #[test]
    fn uncommitted_hot_write_is_revoked() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        make_hot(&mut rt, a);
        rt.begin();
        rt.write_u64(a, 1111);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2222);
        // Crash before commit with everything surviving (in-place update
        // reached PM): the speculative record for 1111 must win.
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 1111);
    }

    #[test]
    fn uncommitted_cold_write_is_revoked() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn single_fence_per_commit_without_dp() {
        let mut rt = runtime(HwSpecConfig::default());
        let a = region(&mut rt, 4096);
        make_hot(&mut rt, a);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..8 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
    }

    #[test]
    fn dp_variant_persists_hot_data_in_commit_fence() {
        let mut rt = runtime(HwSpecConfig::default().dp());
        assert_eq!(rt.name(), "SpecHPMT-DP");
        let a = region(&mut rt, 4096);
        make_hot(&mut rt, a);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        rt.write_u64(a, 42);
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 42);
    }

    #[test]
    fn epoch_rotation_bounds_log_footprint() {
        let mut rt = runtime(HwSpecConfig {
            epoch_max_bytes: 8 * 1024,
            epoch_max_pages: 4,
            max_live_epochs: 2,
            ..HwSpecConfig::default()
        });
        let a = region(&mut rt, 64 * 4096);
        // Heat many pages to force epoch rotations and reclamations.
        for p in 0..32 {
            for v in 0..12u64 {
                rt.begin();
                rt.write_u64(a + p * 4096, v);
                rt.commit();
            }
        }
        assert!(rt.hw_stats().epochs_cleared > 0, "epochs must be reclaimed");
        let bound = 2 * (8 * 1024 + 3 * rt.config_epoch_overhead()) + rt.undo_used();
        assert!(
            rt.log_footprint() <= bound.max(128 * 1024),
            "footprint {} exceeds bound",
            rt.log_footprint()
        );
        // Recovery still works after reclamations.
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a + 31 * 4096), 11);
    }

    #[test]
    fn csr_disable_reverts_to_pure_undo_logging() {
        let mut rt = runtime(HwSpecConfig::default());
        rt.set_speculative_logging(false);
        let a = region(&mut rt, 4096);
        // Hammering a page must NOT promote it with the CSR bit clear.
        make_hot(&mut rt, a);
        assert_eq!(rt.hw_stats().pages_made_hot, 0);
        assert_eq!(rt.hw_stats().bulk_copies, 0);
        // And it still behaves like a correct undo-logging runtime.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 15, "cold path persists data at commit");
        rt.begin();
        rt.write_u64(a, 999);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 15);
    }

    #[test]
    fn reclaimed_epoch_data_is_durable_without_its_records() {
        let mut rt = runtime(HwSpecConfig {
            epoch_max_bytes: 4 * 1024,
            max_live_epochs: 1,
            ..HwSpecConfig::default()
        });
        let a = region(&mut rt, 8 * 4096);
        make_hot(&mut rt, a);
        // Force enough records to rotate + reclaim the first epoch.
        for v in 0..200u64 {
            rt.begin();
            rt.write_u64(a, 0xE000 + v);
            rt.commit();
        }
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        HwSpecPmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 0xE000 + 199);
    }
}
