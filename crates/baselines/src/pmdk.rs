//! PMDK-style undo logging (the paper's baseline).

use std::collections::BTreeSet;

use specpmt_core::undo::{self, entry_bytes};
use specpmt_pmem::frame::Fields;
use specpmt_pmem::{CrashImage, PmemPool, TimingMode, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

const ENTRY_MAGIC: u32 = 0x554E_444F; // "UNDO"
/// Entries start here; the first 64 B of the region hold the tx-stage word
/// and the used-offset word.
const ENTRIES_OFF: usize = 64;

/// The magic of transaction `generation`'s entries. The stage word holds
/// the generation in flight (0: none) and recovery rolls back only its
/// entries: commit invalidates just the first entry, so older entries
/// behind it (or under a rewrite torn after its magic) still verify.
fn entry_magic(generation: u64) -> u32 {
    ENTRY_MAGIC ^ (generation ^ generation >> 32) as u32
}

/// Configuration for [`PmdkUndo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmdkConfig {
    /// Size of the per-runtime undo log region; bounds the largest
    /// transaction write set.
    pub log_bytes: usize,
    /// Snapshot granularity in bytes (power of two, >= 64). `libpmemobj`'s
    /// `TX_ADD` snapshots whole objects/ranges, not words; 256 B models the
    /// typical STAMP node/struct size and is the main reason PMDK's
    /// overhead is so large.
    pub snapshot_granule: usize,
    /// CPU bookkeeping cost per snapshot (ns): range-tree insertion, ulog
    /// entry allocation, checksum, publication — the software overheads
    /// that dominate `libpmemobj` transactions in published measurements.
    pub sw_overhead_ns: u64,
}

impl Default for PmdkConfig {
    fn default() -> Self {
        Self { log_bytes: 1 << 20, snapshot_granule: 256, sw_overhead_ns: 1600 }
    }
}

/// Undo-logging transaction runtime following the PMDK (`libpmemobj`)
/// discipline.
///
/// Like `pmemobj`, snapshots are object-granular (`TX_ADD` of whole
/// structs): the first update inside a granule reads its old contents from
/// PM and persists an undo record — flush + **fence** for the snapshot
/// bytes, then flush + **fence** for the ulog metadata — *before* the
/// in-place write. These per-update persist barriers are the cost whose
/// removal is SpecPMT's whole point. Transaction-stage metadata is
/// persisted at begin (one more fence); commit flushes the updated data
/// (fence) and truncates the log (fence).
#[derive(Debug)]
pub struct PmdkUndo {
    pool: PmemPool,
    cfg: PmdkConfig,
    log_base: usize,
    log_pos: usize,
    /// The open (or last) transaction's generation, counted from 1.
    generation: u64,
    in_tx: bool,
    logged_objects: BTreeSet<usize>,
    /// The byte ranges this transaction updated, flushed at commit.
    data_ranges: Vec<(usize, usize)>,
    stats: TxStats,
}

impl PmdkUndo {
    /// Creates the runtime, allocating the undo-log region.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot hold the log region.
    pub fn new(mut pool: PmemPool, cfg: PmdkConfig) -> Self {
        assert!(cfg.snapshot_granule.is_power_of_two() && cfg.snapshot_granule >= CACHE_LINE);
        assert!(
            cfg.log_bytes > ENTRIES_OFF + entry_bytes(cfg.snapshot_granule),
            "log region too small"
        );
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let log_base = pool
            .alloc_direct(cfg.log_bytes, CACHE_LINE)
            .expect("pool too small for undo log region");
        pool.device_mut().persist_range(log_base, ENTRIES_OFF + 8);
        undo::publish_region(&mut pool, log_base, cfg.log_bytes);
        pool.device_mut().set_timing(prev);
        Self {
            pool,
            cfg,
            log_base,
            log_pos: ENTRIES_OFF,
            generation: 0,
            in_tx: false,
            logged_objects: BTreeSet::new(),
            data_ranges: Vec::new(),
            stats: TxStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PmdkConfig {
        &self.cfg
    }

    /// Persists one object-granular undo snapshot: PM read of the
    /// pre-image, append + flush + fence for the snapshot, flush + fence
    /// for the ulog metadata.
    fn snapshot_object(&mut self, obj_start: usize) {
        let granule = self.cfg.snapshot_granule;
        let sz = entry_bytes(granule);
        assert!(
            self.log_pos + sz + 4 <= self.cfg.log_bytes,
            "undo log region exhausted; raise PmdkConfig::log_bytes"
        );
        // Transaction bookkeeping (range tree, ulog allocation).
        self.pool.device_mut().advance(self.cfg.sw_overhead_ns);
        // Reading the pre-image typically misses the cache for STAMP-sized
        // working sets: charge a PM read (first line full latency, the
        // rest streamed).
        let read_ns = self.pool.device().config().line_read_ns;
        let lines = granule / CACHE_LINE;
        self.pool.device_mut().advance(read_ns + (lines as u64 - 1) * read_ns / 3);
        let mut entry = vec![0u8; sz];
        let old = self.pool.device().peek(obj_start, granule);
        undo::encode_entry(&mut entry, entry_magic(self.generation), obj_start, old);
        let at = self.log_base + self.log_pos;
        let dev = self.pool.device_mut();
        dev.write(at, &entry);
        // Zero terminator so recovery stops after the last live entry.
        dev.write(at + sz, &[0u8; 4]);
        dev.clwb_range(at, sz + 4);
        // Persist barrier 1: the undo record must be durable before the
        // in-place data write.
        dev.sfence();
        // Persist barrier 2: the ulog used-offset metadata (pmemobj
        // persists its log header after appending the entry).
        self.log_pos += sz;
        let pos = self.log_pos as u64;
        self.pool.device_mut().write_u64(self.log_base + 8, pos);
        self.pool.device_mut().clwb(self.log_base + 8);
        self.pool.device_mut().sfence();
        self.stats.log_bytes += sz as u64;
        self.stats.log_live_bytes = (self.log_pos - ENTRIES_OFF) as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
    }
}

impl TxAccess for PmdkUndo {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.log_pos = ENTRIES_OFF;
        self.logged_objects.clear();
        self.data_ranges.clear();
        self.stats.tx_begun += 1;
        self.generation += 1;
        // Persist the TX_STAGE_WORK transition, as libpmemobj does; the
        // stage word names the transaction's generation (see `entry_magic`).
        self.pool.device_mut().write_u64(self.log_base, self.generation);
        self.pool.device_mut().clwb(self.log_base);
        self.pool.device_mut().sfence();
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        if !data.is_empty() {
            let granule = self.cfg.snapshot_granule;
            let first_obj = addr / granule;
            let last_obj = (addr + data.len() - 1) / granule;
            for o in first_obj..=last_obj {
                let start = o * granule;
                if self.logged_objects.insert(start) {
                    self.snapshot_object(start);
                }
            }
        }
        self.data_ranges.push((addr, data.len()));
        // In-place data update, after its lines are snapshot-protected.
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        // 1. Persist all updated data (fence).
        self.pool.device_mut().clwb_ranges(&self.data_ranges);
        self.pool.device_mut().sfence();
        // 2. Truncate the log: invalidate the first entry and reset the
        //    stage word (fence).
        self.pool.device_mut().write(self.log_base + ENTRIES_OFF, &[0u8; 4]);
        self.pool.device_mut().write_u64(self.log_base, 0);
        self.pool.device_mut().clwb(self.log_base + ENTRIES_OFF);
        self.pool.device_mut().clwb(self.log_base);
        self.pool.device_mut().sfence();
        self.log_pos = ENTRIES_OFF;
        self.stats.log_live_bytes = 0;
        self.in_tx = false;
        self.stats.tx_committed += 1;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for PmdkUndo {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "PMDK"
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for PmdkUndo {
    fn recover(image: &mut CrashImage) {
        let stage = undo::region(image).and_then(|region| Fields::new(region).read::<u64>());
        if let Some(generation) = stage.filter(|&generation| generation != 0) {
            undo::roll_back(image, ENTRIES_OFF, entry_magic(generation));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice};

    fn runtime() -> PmdkUndo {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        PmdkUndo::new(pool, PmdkConfig::default())
    }

    fn region(rt: &mut PmdkUndo, bytes: usize) -> usize {
        let base = rt.pool_mut().alloc_direct(bytes, 64).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(base, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        base
    }

    #[test]
    fn committed_data_is_persisted_directly() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 5);
        rt.commit();
        // No recovery needed: undo logging persists data at commit.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 5);
    }

    #[test]
    fn uncommitted_update_rolls_back() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        PmdkUndo::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn rollback_restores_pre_transaction_object() {
        let mut rt = runtime();
        let a = region(&mut rt, 256);
        rt.begin();
        rt.write_u64(a, 1); // object snapshot taken here (old value 0)
        rt.write_u64(a, 2); // same object: no second snapshot
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        PmdkUndo::recover(&mut img);
        assert_eq!(img.read_u64(a), 0, "must revert to pre-transaction value");
    }

    #[test]
    fn fences_scale_with_objects_not_updates() {
        let mut rt = runtime();
        let a = region(&mut rt, 1024);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..4 {
            rt.write_u64(a + i * 8, i as u64); // all in one 256 B object
        }
        rt.commit();
        // begin stage + (snapshot + ulog metadata) + data + truncate.
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1 + 2 + 2);

        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..4 {
            rt.write_u64(a + i * 256, i as u64); // four distinct objects
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1 + 4 * 2 + 2);
    }

    #[test]
    fn snapshots_count_object_sized_log_bytes() {
        let mut rt = runtime();
        let a = region(&mut rt, 256);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        assert_eq!(rt.tx_stats().log_bytes, entry_bytes(256) as u64);
    }

    #[test]
    fn truncated_log_does_not_roll_back_committed_tx() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 9);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        PmdkUndo::recover(&mut img);
        assert_eq!(img.read_u64(a), 9);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oversized_tx_panics() {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        let mut rt = PmdkUndo::new(
            pool,
            PmdkConfig { log_bytes: 512, snapshot_granule: 64, sw_overhead_ns: 0 },
        );
        let a = region(&mut rt, 4096);
        rt.begin();
        rt.write(a, &[0u8; 4096]);
    }
}
