//! The no-crash-consistency bound.

use specpmt_pmem::{CrashImage, PmemPool};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

/// Transactions without any logging: plain stores, nothing ever flushed —
/// the "version without persistent memory transactions" that Figure 1
/// measures overhead against. **Not crash consistent** — exists as the
/// ideal performance bound. (Figure 13's hardware no-log ideal, which
/// persists data at commit, is `specpmt_hwtx::HwNoLog`.)
#[derive(Debug)]
pub struct NoLog {
    pool: PmemPool,
    in_tx: bool,
    stats: TxStats,
}

impl NoLog {
    /// Creates the runtime.
    pub fn new(pool: PmemPool) -> Self {
        Self { pool, in_tx: false, stats: TxStats::default() }
    }
}

impl TxAccess for NoLog {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        self.in_tx = false;
        self.stats.tx_committed += 1;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for NoLog {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "no-tx"
    }

    fn crash_consistent(&self) -> bool {
        false
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for NoLog {
    fn recover(_image: &mut CrashImage) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{PmemConfig, PmemDevice};

    fn runtime() -> NoLog {
        NoLog::new(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20))))
    }

    #[test]
    fn no_tx_never_flushes() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(64, 8).unwrap();
        let before = rt.pool().device().stats().clone();
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        let d = rt.pool().device().stats().delta_since(&before);
        assert_eq!(d.clwb_count, 0);
        assert_eq!(d.sfence_count, 0);
    }

    #[test]
    fn named_no_tx() {
        assert_eq!(runtime().name(), "no-tx");
    }

    #[test]
    fn not_crash_consistent() {
        assert!(!runtime().crash_consistent());
    }
}
