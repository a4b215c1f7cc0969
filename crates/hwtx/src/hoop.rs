//! HOOP: hardware-assisted out-of-place updates.

use specpmt_core::record::{LogArea, PoolStore};
use specpmt_core::{recovery, PoolLayout};
use specpmt_hwsim::{HwConfig, HwCore};
use specpmt_pmem::{CrashImage, PmemPool, TimingMode, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::common::{flush_line_set, lines_of_ranges, LineSet, RecordBuf};

/// Configuration for [`Hoop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoopConfig {
    /// Hardware core parameters.
    pub hw: HwConfig,
    /// Log block size.
    pub block_bytes: usize,
    /// GC batch: home locations are updated once this many log bytes
    /// accumulate (paper: 128 KB per GC cycle).
    pub gc_batch_bytes: usize,
    /// On-chip eviction buffer (paper: 16 KB/core + 256 KB mapping
    /// structures); write sets beyond it spill.
    pub onchip_buffer_bytes: usize,
}

impl Default for HoopConfig {
    fn default() -> Self {
        Self {
            hw: HwConfig::default(),
            block_bytes: 4096,
            gc_batch_bytes: 128 * 1024,
            onchip_buffer_bytes: 16 * 1024,
        }
    }
}

/// HOOP (Cai et al.), per the paper's Section 7.1.3 setup: out-of-place
/// updates buffered on chip, commits persisting packed redo records with
/// one fence (plus records for in-transaction cache misses — the
/// indirection bookkeeping that inflates HOOP's log on large-footprint
/// applications), and a background GC that applies *coalesced* updates to
/// home locations in 128 KB batches — contending with the foreground for
/// the WPQ. Address-redirection latency is modelled as zero (the paper's
/// optimistic assumption).
#[derive(Debug)]
pub struct Hoop {
    pool: PmemPool,
    core: HwCore,
    cfg: HoopConfig,
    layout: PoolLayout,
    area: LogArea,
    free_blocks: Vec<usize>,
    in_tx: bool,
    /// The transaction's write intents as `(addr, offset, len)` into
    /// `tx_data`, in program order (offsets only grow).
    tx_writes: Vec<(usize, usize, usize)>,
    tx_data: Vec<u8>,
    tx_miss_lines: LineSet,
    /// Home-location lines awaiting GC (coalesced across transactions).
    gc_pending: LineSet,
    /// The redo record being encoded, and the lines it dirtied.
    rec: RecordBuf,
    rec_lines: LineSet,
    gc_accum_bytes: usize,
    /// Write sets that overflowed the on-chip buffer.
    pub spills: u64,
    ts_counter: u64,
    stats: TxStats,
}

impl Hoop {
    /// Creates the runtime with an empty redo log.
    pub fn new(mut pool: PmemPool, cfg: HoopConfig) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let layout = PoolLayout::format(&mut pool, 1, cfg.block_bytes);
        let mut free_blocks = Vec::new();
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut pool, &mut free_blocks),
            cfg.block_bytes,
            &mut dirty,
        );
        layout.set_head(&mut pool, 0, area.head() as u64);
        pool.device_mut().flush_everything();
        pool.device_mut().set_timing(prev);
        Self {
            pool,
            core: HwCore::new(cfg.hw.clone()),
            cfg,
            layout,
            area,
            free_blocks,
            in_tx: false,
            tx_writes: Vec::new(),
            tx_data: Vec::new(),
            tx_miss_lines: LineSet::default(),
            gc_pending: LineSet::default(),
            rec: RecordBuf::default(),
            rec_lines: LineSet::default(),
            gc_accum_bytes: 0,
            spills: 0,
            ts_counter: 1,
            stats: TxStats::default(),
        }
    }

    /// Hardware counters.
    pub fn hw_stats(&self) -> &specpmt_hwsim::HwStats {
        self.core.stats()
    }

    /// Unapplied log footprint.
    pub fn log_footprint(&self) -> usize {
        self.area.footprint()
    }

    /// Runs a GC cycle: applies coalesced home-location updates (random
    /// traffic, from the GC engine — it contends for the WPQ but does not
    /// stall the core) and truncates the log.
    pub fn gc_now(&mut self) {
        if self.in_tx {
            return;
        }
        let t0 = self.pool.device().now_ns();
        let applied = self.gc_pending.as_slice().len() as u64;
        for &line in self.gc_pending.as_slice() {
            self.pool.device_mut().background_line_write(line);
        }
        self.gc_pending.clear();
        // Truncate the applied log.
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            self.cfg.block_bytes,
            &mut dirty,
        );
        for (addr, len) in dirty {
            self.pool.device_mut().background_range_write(addr, len);
        }
        self.layout.set_head_background(&mut self.pool, 0, area.head() as u64);
        let old = std::mem::replace(&mut self.area, area);
        self.free_blocks.extend(old.into_blocks());
        self.gc_accum_bytes = 0;
        self.stats.records_reclaimed += applied;
        self.stats.log_live_bytes = self.area.footprint() as u64;
        self.stats.background_ns += self.pool.device().now_ns() - t0;
    }
}

impl TxAccess for Hoop {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.tx_writes.clear();
        self.tx_data.clear();
        self.tx_miss_lines.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        // Out-of-place: the store lands in the on-chip buffer; the home
        // location is only updated by GC. (The volatile image carries the
        // redirected value so reads observe it.)
        self.pool.device_mut().write(addr, data);
        self.core.store(self.pool.device_mut(), addr, data.len());
        self.tx_writes.push((addr, self.tx_data.len(), data.len()));
        self.tx_data.extend_from_slice(data);
        if self.tx_data.len() > self.cfg.onchip_buffer_bytes {
            self.spills += 1;
        }
        self.gc_pending.insert_range(addr, data.len());
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        let all_hit = self.core.load(self.pool.device_mut(), addr, buf.len());
        if self.in_tx && !all_hit && !buf.is_empty() {
            // HOOP logs in-transaction cache misses for its indirection
            // bookkeeping — the "excessive logs" on big-footprint apps.
            self.tx_miss_lines.insert_range(addr, buf.len());
        }
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        let ts = self.ts_counter;
        self.ts_counter += 1;
        // Pack the record: miss lines first (indirection state), then the
        // coalesced write intents, ascending by address; of several writes
        // to one address the last wins (its offset sorts last).
        self.rec.begin();
        for &l in self.tx_miss_lines.as_slice() {
            self.rec.push(l, self.pool.device().peek(l, CACHE_LINE));
        }
        self.tx_writes.sort_unstable();
        for (i, &(addr, off, len)) in self.tx_writes.iter().enumerate() {
            if self.tx_writes.get(i + 1).is_none_or(|next| next.0 != addr) {
                self.rec.push(addr, &self.tx_data[off..off + len]);
            }
        }
        let mut store = PoolStore::new(&mut self.pool, &mut self.free_blocks);
        let bytes = self.rec.append(ts, &mut self.area, &mut store);
        // One fence: persist the packed redo records.
        self.rec_lines.clear();
        lines_of_ranges(self.rec.dirty(), &mut self.rec_lines);
        flush_line_set(self.pool.device_mut(), &self.rec_lines);
        self.pool.device_mut().sfence();
        self.stats.log_bytes += bytes as u64;
        self.gc_accum_bytes += bytes;
        self.in_tx = false;
        self.stats.tx_committed += 1;
        self.stats.log_live_bytes = self.area.footprint() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
        if self.gc_accum_bytes >= self.cfg.gc_batch_bytes {
            self.gc_now();
        }
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn maintain(&mut self) {
        if self.gc_accum_bytes >= self.cfg.gc_batch_bytes {
            self.gc_now();
        }
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for Hoop {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "HOOP"
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for Hoop {
    fn recover(image: &mut CrashImage) {
        // Same chain layout as the speculative log: committed redo records
        // replay in timestamp order over possibly-stale home locations.
        recovery::recover_image_opts(image, &recovery::RecoveryOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hw_pool;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::CrashPolicy;

    fn runtime() -> Hoop {
        Hoop::new(hw_pool(16 << 20), HoopConfig::default())
    }

    fn region(rt: &mut Hoop, bytes: usize) -> usize {
        let a = rt.pool_mut().alloc_direct(bytes, 64).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(a, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        a
    }

    #[test]
    fn committed_tx_recovers_from_redo_log() {
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        rt.begin();
        rt.write_u64(a, 77);
        rt.commit();
        // Home location never updated (no GC yet): recovery must replay.
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Hoop::recover(&mut img);
        assert_eq!(img.read_u64(a), 77);
    }

    #[test]
    fn uncommitted_tx_is_discarded() {
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        // HOOP's uncommitted updates live on chip: a crash discards them
        // (the in-place volatile value models read redirection, so even
        // AllSurvive must be revoked by replaying the committed log).
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        Hoop::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn gc_applies_homes_and_truncates() {
        let mut rt = Hoop::new(
            hw_pool(16 << 20),
            HoopConfig { gc_batch_bytes: 2048, ..HoopConfig::default() },
        );
        let a = region(&mut rt, 4096);
        for v in 0..100u64 {
            rt.begin();
            rt.write_u64(a + (v as usize % 32) * 64, v);
            rt.commit();
        }
        assert!(rt.tx_stats().records_reclaimed > 0, "GC must have run");
        assert!(rt.log_footprint() <= 3 * 4096);
        // After GC the home locations are durable even without the log.
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Hoop::recover(&mut img);
        // Slot 3 was last written by v = 99 (99 % 32 == 3).
        assert_eq!(img.read_u64(a + 3 * 64), 99);
    }

    #[test]
    fn single_fence_per_commit() {
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..8 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
    }

    #[test]
    fn cache_miss_reads_inflate_log() {
        let mut rt = runtime();
        let a = region(&mut rt, 1 << 20);
        // Large-footprint reads inside a transaction: every cold line read
        // adds a record entry.
        rt.begin();
        let mut buf = [0u8; 8];
        for i in 0..64 {
            rt.read(a + i * 4096, &mut buf);
        }
        rt.write_u64(a, 1);
        rt.commit();
        let logged = rt.tx_stats().log_bytes;
        assert!(logged > 64 * CACHE_LINE as u64, "miss logging must inflate the record: {logged}");
    }

    #[test]
    fn write_set_coalesces_per_address() {
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        rt.begin();
        for v in 0..50u64 {
            rt.write_u64(a, v);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Hoop::recover(&mut img);
        assert_eq!(img.read_u64(a), 49);
    }
}
