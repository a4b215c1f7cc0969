//! SPHT-style redo logging with a background replayer.

use std::collections::HashMap;

use specpmt_core::record::{PoolStore, REC_HDR};
use specpmt_core::{recovery, Probe, SingleChain, Telemetry, TxLog};
use specpmt_pmem::{CrashImage, PmemPool};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

/// Log block size.
const BLOCK_BYTES: usize = 4096;

/// Unreplayed log footprint that wakes the background replayer. A small
/// threshold approximates SPHT's continuously-running replayer: replay
/// happens in frequent small batches, so its PM traffic steadily contends
/// with foreground commits.
const REPLAY_THRESHOLD_BYTES: usize = 8 * 1024;

/// CPU cost per commit for SPHT's cross-thread log linking (ns).
const LINK_OVERHEAD_NS: u64 = 500;

/// SPHT (forward-linking variant with a background replayer), per the
/// paper's Section 7.1.2 description.
///
/// Transactions execute against a volatile DRAM snapshot — modelled as an
/// explicit byte overlay, so uncommitted (and committed-but-unreplayed)
/// data can never reach PM, exactly like the real design. Commit persists
/// only the redo records — sequential lines, one fence. The background
/// replayer applies committed records to PM data (writing the data lines
/// back), then truncates the log. Its time is charged to
/// [`TxStats::background_ns`] (a dedicated core), but its PM traffic shares
/// the WPQ with the foreground — the contention the paper observes.
///
/// The log is `specpmt-core`'s record chain, written through its record
/// protocol ([`TxLog`]), so recovery is the same timestamp-ordered replay.
#[derive(Debug)]
pub struct Spht {
    pool: PmemPool,
    chain: SingleChain,
    in_tx: bool,
    /// The open transaction's record, write set and flush plan.
    log: TxLog,
    /// The DRAM snapshot: bytes written but not yet replayed to PM. Holds
    /// both the open transaction's writes and committed-unreplayed ones.
    overlay: HashMap<usize, u8>,
    /// Data ranges of committed-but-unreplayed records.
    pending_data: Vec<(usize, usize)>,
    ts_counter: u64,
    stats: TxStats,
    /// Never enabled: SPHT has no commit crash sites or phase histograms,
    /// so the record protocol's spans stay off.
    tel: Telemetry,
}

impl Spht {
    /// Creates the runtime with an empty redo log chain.
    pub fn new(mut pool: PmemPool) -> Self {
        let chain = SingleChain::format(&mut pool, BLOCK_BYTES);
        Self {
            pool,
            chain,
            in_tx: false,
            log: TxLog::new(false),
            overlay: HashMap::new(),
            pending_data: Vec::new(),
            ts_counter: 1,
            stats: TxStats::default(),
            tel: Telemetry::new(1),
        }
    }

    /// Unreplayed log footprint in bytes.
    pub fn log_footprint(&self) -> usize {
        self.chain.area.footprint()
    }

    /// Runs the background replayer: persists the data named by committed
    /// redo records, then truncates the log.
    pub fn replay_now(&mut self) {
        if self.in_tx {
            return;
        }
        let t0 = self.pool.device().now_ns();
        // Apply the DRAM snapshot to PM, then write the lines covered by
        // committed records back — from the replayer core, contending for
        // the WPQ with the foreground.
        for (addr, b) in std::mem::take(&mut self.overlay) {
            self.pool.device_mut().write(addr, &[b]);
        }
        self.pool.device_mut().background_ranges(&self.pending_data);
        self.pending_data.clear();
        self.stats.records_reclaimed += self.chain.truncate_background(&mut self.pool);
        self.stats.log_live_bytes = self.log_footprint() as u64;
        self.stats.background_ns += self.pool.device().now_ns() - t0;
    }
}

impl TxAccess for Spht {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.stats.tx_begun += 1;
        self.log.begin();
        self.in_tx = true;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        let Self { pool, chain, log, overlay, pending_data, stats, .. } = self;
        if !log.reserved() {
            log.reserve(&chain.area);
        }
        // Update the DRAM snapshot (no PM data write on the critical
        // path; the replayer applies it later). Charge the store cost the
        // in-place runtimes pay at the device.
        for (i, &b) in data.iter().enumerate() {
            overlay.insert(addr + i, b);
        }
        let word_ns = pool.device().config().store_word_ns;
        pool.device_mut().advance(data.len().div_ceil(8) as u64 * word_ns);
        stats.updates += 1;
        stats.data_bytes += data.len() as u64;
        stats.log_bytes += log.stage(addr, data) as u64;
        pending_data.push((addr, data.len()));
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        // Reads hit the DRAM snapshot directly (SPHT's design point: no
        // log lookup on reads).
        self.pool.device_mut().read(addr, buf);
        for (i, slot) in buf.iter_mut().enumerate() {
            if let Some(&b) = self.overlay.get(&(addr + i)) {
                *slot = b;
            }
        }
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        self.in_tx = false;
        self.stats.tx_committed += 1;
        if !self.log.reserved() {
            // Write-free: no record, nothing to link, flush or fence.
            self.stats.write_free_commits += 1;
            return;
        }
        let ts = self.ts_counter;
        self.ts_counter += 1;
        self.pool.device_mut().advance(LINK_OVERHEAD_NS);
        let Self { pool, chain, log, tel, .. } = self;
        let mut store = PoolStore::new(pool, &mut chain.free_blocks);
        // Single fence: persist the redo record only.
        let p = Probe { seal: None, append: None, flush: None, fence: None, tel, tid: 0 };
        log.seal(&mut store, &mut chain.area, ts, p);
        log.drain_solo(&mut store, p, |_| {});
        self.stats.log_bytes += REC_HDR as u64;
        self.stats.log_live_bytes = self.log_footprint() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
        self.maintain();
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn maintain(&mut self) {
        if self.log_footprint() > REPLAY_THRESHOLD_BYTES {
            self.replay_now();
        }
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for Spht {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "SPHT"
    }

    fn close(&mut self) {
        self.replay_now();
        self.pool.device_mut().flush_everything();
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for Spht {
    fn recover(image: &mut CrashImage) {
        // Same chain format and pool layout as software SpecPMT.
        recovery::recover_image_opts(image, &recovery::RecoveryOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice, TimingMode};

    fn runtime() -> Spht {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        Spht::new(pool)
    }

    fn region(rt: &mut Spht, bytes: usize) -> usize {
        let base = rt.pool_mut().alloc_direct(bytes, 64).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(base, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        base
    }

    #[test]
    fn committed_survives_all_lost_via_redo() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 11);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 11);
    }

    #[test]
    fn single_fence_per_commit() {
        let mut rt = runtime();
        let a = region(&mut rt, 256);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..6 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
    }

    #[test]
    fn replay_truncates_log_and_persists_data() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 3);
        rt.commit();
        rt.replay_now();
        // After replay the data itself is durable: no recovery needed.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 3);
        assert!(rt.tx_stats().background_ns > 0);
    }

    #[test]
    fn uncommitted_tx_revoked() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn coalesced_rewrites_recover_to_last_value() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        for v in 0..50u64 {
            rt.write_u64(a, v);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 49);
    }

    #[test]
    fn crossing_threshold_triggers_replay() {
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        // Each one-word record is tens of bytes: enough of them fill the
        // chain past the threshold several times over.
        for i in 0..1000u64 {
            rt.begin();
            rt.write_u64(a + ((i as usize * 8) % 4096), i);
            rt.commit();
        }
        assert!(rt.log_footprint() <= REPLAY_THRESHOLD_BYTES);
        assert!(rt.tx_stats().background_ns > 0);
        assert!(rt.tx_stats().records_reclaimed > 0);
    }
}
