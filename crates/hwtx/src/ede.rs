//! EDE: Execution Dependence Extension (the hardware baseline).

use specpmt_hwsim::{HwConfig, HwCore};
use specpmt_pmem::{CrashImage, PmemPool, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::common::{flush_line_set, lines_touching, LineSet, UndoLog};

/// Configuration for [`Ede`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdeConfig {
    /// Hardware core parameters.
    pub hw: HwConfig,
    /// Undo-log region capacity (bounds the largest transaction).
    pub undo_bytes: usize,
}

impl Default for EdeConfig {
    fn default() -> Self {
        Self { hw: HwConfig::default(), undo_bytes: 1 << 20 }
    }
}

/// EDE-style hardware undo logging (Shull et al., the paper's hardware
/// baseline): log records are created by hardware with **no fences between
/// logging and data updates** — persist ordering is carried by ISA-level
/// dependencies through the write queue. Both the (coalesced, line-granular)
/// undo records and the updated data persist by commit; the model issues
/// one commit fence over both sets.
#[derive(Debug)]
pub struct Ede {
    pool: PmemPool,
    core: HwCore,
    undo: UndoLog,
    in_tx: bool,
    /// Lines this transaction stored to: each is undo-logged on first
    /// touch and flushed (with the truncation) at commit.
    lines: LineSet,
    stats: TxStats,
}

impl Ede {
    /// Creates the runtime.
    pub fn new(mut pool: PmemPool, cfg: EdeConfig) -> Self {
        let undo = UndoLog::new(&mut pool, cfg.undo_bytes);
        Self {
            pool,
            core: HwCore::new(cfg.hw),
            undo,
            in_tx: false,
            lines: LineSet::default(),
            stats: TxStats::default(),
        }
    }

    /// Hardware counters.
    pub fn hw_stats(&self) -> &specpmt_hwsim::HwStats {
        self.core.stats()
    }
}

impl TxAccess for Ede {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.in_tx = true;
        self.lines.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        if !data.is_empty() {
            for line in lines_touching(addr, data.len()) {
                if self.lines.insert(line) {
                    // Hardware undo record (old value) — created before the
                    // store, no fence.
                    self.undo.append_line(self.pool.device_mut(), line);
                    self.stats.log_bytes += (24 + CACHE_LINE) as u64;
                }
            }
        }
        self.pool.device_mut().write(addr, data);
        self.core.store(self.pool.device_mut(), addr, data.len());
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.undo.used() as u64);
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.core.load(self.pool.device_mut(), addr, buf.len());
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        // Persist undo records + data + truncation; ordering within the
        // commit is the hardware's dependency tracking (one fence here).
        for &l in self.lines.as_slice() {
            self.core.l1_mut().mark_clean(l);
        }
        if self.undo.used() > 0 {
            self.undo.truncate(self.pool.device_mut(), &mut self.lines);
        }
        flush_line_set(self.pool.device_mut(), &self.lines);
        self.pool.device_mut().sfence();
        self.in_tx = false;
        self.stats.tx_committed += 1;
        self.stats.log_live_bytes = 0;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for Ede {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "EDE"
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for Ede {
    fn recover(image: &mut CrashImage) {
        UndoLog::recover(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hw_pool;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::CrashPolicy;

    fn runtime() -> Ede {
        Ede::new(hw_pool(1 << 22), EdeConfig::default())
    }

    #[test]
    fn committed_data_persists() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(64, 64).unwrap();
        rt.begin();
        rt.write_u64(a, 3);
        rt.commit();
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 3);
    }

    #[test]
    fn uncommitted_tx_rolls_back() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(64, 64).unwrap();
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        Ede::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn single_fence_per_commit() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(256, 64).unwrap();
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..4 {
            rt.write_u64(a + i * 64, i as u64);
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
    }

    #[test]
    fn log_and_data_both_flushed() {
        let mut rt = runtime();
        let a = rt.pool_mut().alloc_direct(256, 64).unwrap();
        let before = rt.pool().device().stats().lines_persisted;
        rt.begin();
        rt.write_u64(a, 1); // 1 data line + ~2 log lines + truncate line
        rt.commit();
        let flushed = rt.pool().device().stats().lines_persisted - before;
        assert!(flushed >= 3, "expected log + data flushes, got {flushed}");
    }
}
