//! Kamino-Tx upper-bound model.

use specpmt_core::undo;
use specpmt_pmem::{CrashImage, PmemPool, TimingMode, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

const ENTRY_MAGIC: u32 = 0x4B41_4D4E; // "KAMN"
/// An intent is an undo entry with no pre-image: `magic | 0`, the
/// object's address, and its seal.
const ENTRY_BYTES: usize = undo::entry_bytes(0);

/// Size of the address-log region; bounds the largest transaction write
/// set (one 24-byte entry per write).
const LOG_BYTES: usize = 1 << 20;

/// CPU bookkeeping cost per logged object (ns): write-set tracking and
/// backup-copy accounting on the critical path.
const SW_OVERHEAD_NS: u64 = 900;

/// Kamino-Tx as the paper implements it (Section 7.1.2): the performance
/// **upper bound** of the in-place + backup-copy design.
///
/// Kamino-Tx keeps a backup copy of all durable data; a background thread
/// applies main-copy updates to the backup after commit, and recovery
/// restores corrupted data from the backup using the logged addresses. The
/// paper's implementation *omits the main→backup copying*, keeping only
/// the critical-path work: logging every write intent's **address** with a
/// persist fence before the in-place update, plus a commit record. We model
/// exactly that, which — like the paper's version — cannot actually
/// recover; [`TxRuntime::crash_consistent`] returns `false` and the
/// atomicity harness skips it.
#[derive(Debug)]
pub struct KaminoTx {
    pool: PmemPool,
    log_base: usize,
    log_pos: usize,
    in_tx: bool,
    logged_lines: std::collections::BTreeSet<usize>,
    stats: TxStats,
}

impl KaminoTx {
    /// Creates the runtime, allocating the address-log region.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot hold the log region.
    pub fn new(mut pool: PmemPool) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let log_base = pool
            .alloc_direct(LOG_BYTES, CACHE_LINE)
            .expect("pool too small for Kamino address log");
        pool.device_mut().set_timing(prev);
        Self {
            pool,
            log_base,
            log_pos: 0,
            in_tx: false,
            logged_lines: std::collections::BTreeSet::new(),
            stats: TxStats::default(),
        }
    }
}

impl TxAccess for KaminoTx {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.log_pos = 0;
        self.logged_lines.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        // Log each newly-dirtied object's address and persist it before the
        // in-place update — the fence Kamino-Tx cannot avoid. (Recovery
        // copies the named ranges back from the backup, so object-granular
        // intent records with per-transaction dedup suffice.)
        const GRANULE: usize = 256;
        if !data.is_empty() {
            let first = addr / GRANULE;
            let last = (addr + data.len() - 1) / GRANULE;
            for l in first..=last {
                let line_start = l * GRANULE;
                if !self.logged_lines.insert(line_start) {
                    continue;
                }
                assert!(
                    self.log_pos + ENTRY_BYTES <= LOG_BYTES,
                    "Kamino address log exhausted; raise LOG_BYTES"
                );
                self.pool.device_mut().advance(SW_OVERHEAD_NS);
                let mut entry = [0u8; ENTRY_BYTES];
                undo::encode_entry(&mut entry, ENTRY_MAGIC, line_start, &[]);
                let at = self.log_base + self.log_pos;
                let dev = self.pool.device_mut();
                dev.write(at, &entry);
                dev.clwb_range(at, ENTRY_BYTES);
                dev.sfence();
                self.log_pos += ENTRY_BYTES;
                self.stats.log_bytes += ENTRY_BYTES as u64;
                self.stats.log_live_bytes = self.log_pos as u64;
                self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.log_pos as u64);
            }
        }
        // In-place data update; persistence is asynchronous (the backup
        // copy machinery, omitted in this upper bound, would absorb it).
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        // Persist the commit record so recovery would know the transaction
        // completed (single fence; no data flushes on the critical path).
        let at = self.log_base + self.log_pos.min(LOG_BYTES - 8);
        self.pool.device_mut().write_u64(at, u64::from(ENTRY_MAGIC) | 0xC0_0000_0000);
        self.pool.device_mut().clwb(at);
        self.pool.device_mut().sfence();
        self.log_pos = 0;
        self.stats.log_live_bytes = 0;
        self.in_tx = false;
        self.stats.tx_committed += 1;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for KaminoTx {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "Kamino-Tx"
    }

    fn crash_consistent(&self) -> bool {
        false // upper-bound model: backup-copy machinery omitted
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for KaminoTx {
    fn recover(_image: &mut CrashImage) {
        // The upper-bound model has no backup copy to restore from.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice};

    fn runtime() -> KaminoTx {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        KaminoTx::new(pool)
    }

    #[test]
    fn fence_per_dirty_object_plus_commit() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(1024, 256).unwrap();
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        rt.write_u64(a, 1);
        rt.write_u64(a + 64, 2); // same 256 B object: deduped
        rt.write_u64(a + 256, 3); // second object
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 2 + 1);
    }

    #[test]
    fn no_data_flush_on_commit_path() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(1024, 64).unwrap();
        rt.begin();
        for i in 0..8 {
            rt.write_u64(a + i * 64, i as u64);
        }
        rt.commit();
        // Data persistence is asynchronous (absorbed by the omitted backup
        // machinery): a crash where no cache line happened to be evicted
        // loses the data — only the address log survives.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        for i in 0..8 {
            assert_eq!(img.read_u64(a + i * 64), 0, "data line {i} must not be flushed");
        }
    }

    #[test]
    fn marked_not_crash_consistent() {
        let rt = runtime();
        assert!(!rt.crash_consistent());
    }

    #[test]
    fn reports_are_counted() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(64, 8).unwrap();
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        let s = rt.tx_stats();
        assert_eq!(s.tx_committed, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.log_bytes, ENTRY_BYTES as u64);
    }
}
