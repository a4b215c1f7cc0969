//! The hardware no-log ideal bound.

use specpmt_hwsim::{HwConfig, HwCore};
use specpmt_pmem::{CrashImage, PmemPool};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::common::{lines_touching, LineSet};

/// Transactions without logging on the simulated hardware: data is flushed
/// with one fence at commit (Section 7.1.3's `no-log`). **Not crash
/// consistent** — the ideal performance bound of Figure 13.
#[derive(Debug)]
pub struct HwNoLog {
    pool: PmemPool,
    core: HwCore,
    in_tx: bool,
    data_lines: LineSet,
    stats: TxStats,
}

impl HwNoLog {
    /// Creates the runtime.
    pub fn new(pool: PmemPool, hw: HwConfig) -> Self {
        Self {
            pool,
            core: HwCore::new(hw),
            in_tx: false,
            data_lines: LineSet::default(),
            stats: TxStats::default(),
        }
    }

    /// Hardware counters.
    pub fn hw_stats(&self) -> &specpmt_hwsim::HwStats {
        self.core.stats()
    }
}

impl TxAccess for HwNoLog {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.data_lines.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        self.pool.device_mut().write(addr, data);
        self.core.store(self.pool.device_mut(), addr, data.len());
        if !data.is_empty() {
            for l in lines_touching(addr, data.len()) {
                self.data_lines.insert(l);
            }
        }
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.core.load(self.pool.device_mut(), addr, buf.len());
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        for &l in self.data_lines.as_slice() {
            self.pool.device_mut().clwb(l);
            self.core.l1_mut().mark_clean(l);
        }
        self.pool.device_mut().sfence();
        self.in_tx = false;
        self.stats.tx_committed += 1;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for HwNoLog {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "no-log(hw)"
    }

    fn crash_consistent(&self) -> bool {
        false
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for HwNoLog {
    fn recover(_image: &mut CrashImage) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hw_pool;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::CrashPolicy;

    #[test]
    fn data_persists_at_commit() {
        let mut rt = HwNoLog::new(hw_pool(1 << 20), HwConfig::default());
        let a = rt.pool_mut().alloc_direct(64, 64).unwrap();
        rt.begin();
        rt.write_u64(a, 9);
        rt.commit();
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 9);
    }

    #[test]
    fn not_crash_consistent() {
        let rt = HwNoLog::new(hw_pool(1 << 20), HwConfig::default());
        assert!(!rt.crash_consistent());
    }
}
