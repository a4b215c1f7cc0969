//! HOOP: hardware-assisted out-of-place updates.

use specpmt_core::record::PoolStore;
use specpmt_core::{recovery, SingleChain, WriteSet};
use specpmt_hwsim::{HwConfig, HwCore};
use specpmt_pmem::{line_start, CrashImage, PmemPool, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::common::{LineSet, RecordBuf};

/// Log block size.
const BLOCK_BYTES: usize = 4096;

/// GC batch: home locations are updated once this many log bytes
/// accumulate (paper: 128 KB per GC cycle).
const GC_BATCH_BYTES: usize = 128 * 1024;

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
    chain: SingleChain,
    in_tx: bool,
    /// The transaction's write intents, coalesced in program order by
    /// the record protocol's write set: of two writes, the later one
    /// overwrites the earlier's entry only where recovery would replay
    /// them in the same order ([`WriteSet::patchable`]).
    ws: WriteSet,
    tx_miss_lines: LineSet,
    /// Home-location lines awaiting GC (coalesced across transactions).
    gc_pending: LineSet,
    /// The redo record being encoded.
    rec: RecordBuf,
    gc_accum_bytes: usize,
    ts_counter: u64,
    stats: TxStats,
}

impl Hoop {
    /// Creates the runtime with an empty redo log.
    pub fn new(mut pool: PmemPool) -> Self {
        let chain = SingleChain::format(&mut pool, BLOCK_BYTES);
        Self {
            pool,
            core: HwCore::new(HwConfig::default()),
            chain,
            in_tx: false,
            ws: WriteSet::new(),
            tx_miss_lines: LineSet::default(),
            gc_pending: LineSet::default(),
            rec: RecordBuf::default(),
            gc_accum_bytes: 0,
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
        self.chain.area.footprint()
    }

    /// Runs a GC cycle: applies coalesced home-location updates (random
    /// traffic, from the GC engine — it contends for the WPQ but does not
    /// stall the core) and truncates the log.
    pub fn gc_now(&mut self) {
        if self.in_tx {
            return;
        }
        let t0 = self.pool.device().now_ns();
        for &line in self.gc_pending.as_slice() {
            self.pool.device_mut().background_line_write(line_start(line));
        }
        self.gc_pending.clear();
        self.stats.records_reclaimed += self.chain.truncate_background(&mut self.pool);
        self.gc_accum_bytes = 0;
        self.stats.log_live_bytes = self.log_footprint() as u64;
        self.stats.background_ns += self.pool.device().now_ns() - t0;
    }
}

impl TxAccess for Hoop {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.ws.begin();
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
        self.ws.coalesce(addr, data);
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
        // coalesced write intents in program order.
        self.rec.begin();
        for &l in self.tx_miss_lines.as_slice() {
            let addr = line_start(l);
            self.rec.push(addr, self.pool.device().peek(addr, CACHE_LINE));
        }
        self.rec.push_entries(self.ws.payload());
        let mut store = PoolStore::new(&mut self.pool, &mut self.chain.free_blocks);
        let bytes = self.rec.append(ts, &mut self.chain.area, &mut store);
        // One fence: persist the packed redo records.
        self.pool.device_mut().clwb_ranges(self.rec.dirty());
        self.pool.device_mut().sfence();
        self.stats.log_bytes += bytes as u64;
        self.gc_accum_bytes += bytes;
        self.in_tx = false;
        self.stats.tx_committed += 1;
        self.stats.log_live_bytes = self.log_footprint() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
        if self.gc_accum_bytes >= GC_BATCH_BYTES {
            self.gc_now();
        }
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn maintain(&mut self) {
        if self.gc_accum_bytes >= GC_BATCH_BYTES {
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
    use specpmt_pmem::{CrashPolicy, TimingMode};

    fn runtime() -> Hoop {
        Hoop::new(hw_pool(16 << 20))
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
        let mut rt = runtime();
        let a = region(&mut rt, 4096);
        // One-word records of a few dozen bytes: enough of them to pass
        // the GC batch once.
        let txs = 5000u64;
        for v in 0..txs {
            rt.begin();
            rt.write_u64(a + (v as usize % 32) * 64, v);
            rt.commit();
        }
        assert!(rt.tx_stats().records_reclaimed > 0, "GC must have run");
        assert!(rt.log_footprint() <= GC_BATCH_BYTES);
        // After GC the home locations are durable even without the log.
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Hoop::recover(&mut img);
        let last_of_slot_3 = (0..txs).rev().find(|v| v % 32 == 3).unwrap();
        assert_eq!(img.read_u64(a + 3 * 64), last_of_slot_3);
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
