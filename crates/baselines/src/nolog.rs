//! The no-crash-consistency bounds.

use specpmt_pmem::{CrashImage, PmemPool, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use std::collections::BTreeSet;

/// Configuration for [`NoLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoLogConfig {
    /// `false`: plain stores, nothing ever flushed — the "version without
    /// persistent memory transactions" that Figure 1 measures overhead
    /// against. `true`: data flushed + one fence at commit — the hardware
    /// `no-log` ideal of Figure 13 (persists data, still no logging).
    pub persist_data_at_commit: bool,
}

/// Transactions without any logging. **Not crash consistent** — exists as
/// the ideal performance bound.
#[derive(Debug)]
pub struct NoLog {
    pool: PmemPool,
    cfg: NoLogConfig,
    in_tx: bool,
    data_lines: BTreeSet<usize>,
    stats: TxStats,
}

impl NoLog {
    /// Creates the runtime.
    pub fn new(pool: PmemPool, cfg: NoLogConfig) -> Self {
        Self { pool, cfg, in_tx: false, data_lines: BTreeSet::new(), stats: TxStats::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &NoLogConfig {
        &self.cfg
    }
}

impl TxAccess for NoLog {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.data_lines.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
        if self.cfg.persist_data_at_commit && !data.is_empty() {
            for l in addr / CACHE_LINE..=(addr + data.len() - 1) / CACHE_LINE {
                self.data_lines.insert(l * CACHE_LINE);
            }
        }
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        if self.cfg.persist_data_at_commit {
            let lines = std::mem::take(&mut self.data_lines);
            for l in lines {
                self.pool.device_mut().clwb(l);
            }
            self.pool.device_mut().sfence();
        }
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
        if self.cfg.persist_data_at_commit {
            "no-log"
        } else {
            "no-tx"
        }
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
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice};

    fn runtime(cfg: NoLogConfig) -> NoLog {
        NoLog::new(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20))), cfg)
    }

    #[test]
    fn no_tx_never_flushes() {
        let mut rt = runtime(NoLogConfig::default());
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
    fn no_log_persists_data_at_commit() {
        let mut rt = runtime(NoLogConfig { persist_data_at_commit: true });
        let a = rt.pool_mut().alloc_direct(64, 8).unwrap();
        rt.begin();
        rt.write_u64(a, 7);
        rt.commit();
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 7);
    }

    #[test]
    fn names_differ_by_variant() {
        assert_eq!(runtime(NoLogConfig::default()).name(), "no-tx");
        assert_eq!(runtime(NoLogConfig { persist_data_at_commit: true }).name(), "no-log");
    }

    #[test]
    fn not_crash_consistent() {
        assert!(!runtime(NoLogConfig::default()).crash_consistent());
    }
}
