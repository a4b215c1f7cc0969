//! Runtime counters and per-run reports.

use specpmt_pmem::PmemStats;

/// Counters maintained by a [`crate::TxRuntime`] implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Transactions begun.
    pub tx_begun: u64,
    /// Transactions committed.
    pub tx_committed: u64,
    /// Of those, commits of transactions that never wrote (no log record,
    /// no flush, no fence) — counted by the runtimes that reserve the
    /// record at the first write (SpecSPMT, SPHT).
    pub write_free_commits: u64,
    /// Durable update operations (one per `write` call).
    pub updates: u64,
    /// Durable data bytes written by transactions.
    pub data_bytes: u64,
    /// Bytes appended to (any kind of) log.
    pub log_bytes: u64,
    /// Live log footprint in bytes (after reclamation).
    pub log_live_bytes: u64,
    /// High-water mark of the log footprint in bytes.
    pub log_peak_bytes: u64,
    /// Log *entries* (one per datum a transaction wrote — not whole
    /// records) reclaimed as stale; the name is part of the exported schema.
    pub records_reclaimed: u64,
    /// Simulated nanoseconds consumed by background maintenance (log
    /// reclamation / redo replay) that runs on a dedicated core in the
    /// modelled system and must be excluded from foreground execution time.
    pub background_ns: u64,
}

impl TxStats {
    /// Average durable write-set size per committed transaction, in bytes.
    pub fn avg_tx_bytes(&self) -> f64 {
        if self.tx_committed == 0 {
            0.0
        } else {
            self.data_bytes as f64 / self.tx_committed as f64
        }
    }
}

/// Everything measured about one workload execution on one runtime.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Runtime identifier (e.g. `"PMDK"`).
    pub runtime: String,
    /// Workload identifier (e.g. `"vacation-high"`).
    pub workload: String,
    /// Simulated execution time of the measured phase, in nanoseconds.
    pub sim_ns: u64,
    /// Runtime counters over the measured phase.
    pub tx: TxStats,
    /// Device counters over the measured phase.
    pub pmem: PmemStats,
    /// Heap high-water mark in bytes.
    pub heap_peak_bytes: u64,
}

impl RunReport {
    /// Speedup of this run relative to `baseline` (baseline time / this
    /// time). Greater than 1.0 means this run is faster.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.sim_ns == 0 {
            return f64::INFINITY;
        }
        baseline.sim_ns as f64 / self.sim_ns as f64
    }

    /// Execution-time overhead of this run relative to `ideal`
    /// (`time/ideal_time - 1`), as a fraction. 0.10 means 10 % slower.
    pub fn overhead_over(&self, ideal: &RunReport) -> f64 {
        if ideal.sim_ns == 0 {
            return 0.0;
        }
        self.sim_ns as f64 / ideal.sim_ns as f64 - 1.0
    }

    /// PM write-traffic reduction relative to `baseline`, as a fraction
    /// (positive = this run writes less).
    pub fn traffic_reduction_over(&self, baseline: &RunReport) -> f64 {
        let base = baseline.pmem.pm_write_bytes();
        if base == 0 {
            return 0.0;
        }
        1.0 - self.pmem.pm_write_bytes() as f64 / base as f64
    }
}

/// Geometric mean of a sequence of positive ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_tx_bytes_handles_zero() {
        assert_eq!(TxStats::default().avg_tx_bytes(), 0.0);
        let s = TxStats { tx_committed: 4, data_bytes: 100, ..TxStats::default() };
        assert_eq!(s.avg_tx_bytes(), 25.0);
    }

    #[test]
    fn speedup_and_overhead() {
        let base = RunReport { sim_ns: 1000, ..RunReport::default() };
        let fast = RunReport { sim_ns: 200, ..RunReport::default() };
        assert_eq!(fast.speedup_over(&base), 5.0);
        assert!((base.overhead_over(&fast) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_reduction() {
        let mut base = RunReport::default();
        base.pmem.lines_persisted = 100;
        let mut lean = RunReport::default();
        lean.pmem.lines_persisted = 40;
        assert!((lean.traffic_reduction_over(&base) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean([1.0, 0.0]);
    }
}
