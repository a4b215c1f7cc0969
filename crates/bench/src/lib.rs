//! What the paper's figure and table binaries share: runtime factories,
//! suite runners and table formatting. Every number they print is
//! simulated (deterministic, diffed against `results/`); host time is
//! measured by `benchmark/` and nowhere else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specpmt_baselines::{KaminoTx, NoLog, PmdkConfig, PmdkUndo, Spht};
use specpmt_core::{HashLogConfig, HashLogSpmt, SpecConfig, SpecSpmt};
use specpmt_hwtx::{hw_pool, Ede, EdeConfig, Hoop, HwNoLog, HwSpecConfig, HwSpecPmt};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt_stamp::{run_app, AppRun, Scale, StampApp};
use specpmt_txn::RunReport;

/// Pool size used by the figure and table binaries and `txstat`.
pub const POOL_BYTES: usize = 64 << 20;

/// The software runtimes of the paper's Figure 12 (plus extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwRuntime {
    /// Intel PMDK-style undo logging (the baseline).
    Pmdk,
    /// Kamino-Tx upper bound.
    Kamino,
    /// SPHT redo logging with background replay.
    Spht,
    /// SpecSPMT-DP (speculative logging + enforced data persistence).
    SpecDp,
    /// SpecSPMT (the full design).
    Spec,
    /// No persistent transactions at all (Figure 1's reference).
    NoTx,
    /// The hash-table log strawman (Section 4 micro-experiment).
    HashLog,
}

impl SwRuntime {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            SwRuntime::Pmdk => "PMDK",
            SwRuntime::Kamino => "Kamino-Tx",
            SwRuntime::Spht => "SPHT",
            SwRuntime::SpecDp => "SpecSPMT-DP",
            SwRuntime::Spec => "SpecSPMT",
            SwRuntime::NoTx => "no-tx",
            SwRuntime::HashLog => "HashLog-SPMT",
        }
    }
}

fn fresh_pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)))
}

/// Runs one app on one software runtime (fresh pool each run).
///
/// # Panics
///
/// Panics if the workload fails verification — an experiment on an
/// incorrect runtime would be meaningless.
pub fn run_sw(rt: SwRuntime, app: StampApp, scale: Scale) -> AppRun {
    let run = match rt {
        SwRuntime::Pmdk => {
            run_app(app, &mut PmdkUndo::new(fresh_pool(), PmdkConfig::default()), scale)
        }
        SwRuntime::Kamino => run_app(app, &mut KaminoTx::new(fresh_pool()), scale),
        SwRuntime::Spht => run_app(app, &mut Spht::new(fresh_pool()), scale),
        SwRuntime::SpecDp => {
            run_app(app, &mut SpecSpmt::new(fresh_pool(), SpecConfig::default().dp()), scale)
        }
        SwRuntime::Spec => {
            run_app(app, &mut SpecSpmt::new(fresh_pool(), SpecConfig::default()), scale)
        }
        SwRuntime::NoTx => run_app(app, &mut NoLog::new(fresh_pool()), scale),
        SwRuntime::HashLog => run_app(
            app,
            &mut HashLogSpmt::new(fresh_pool(), HashLogConfig { capacity: 1 << 18 }),
            scale,
        ),
    };
    assert!(
        run.verified.is_ok(),
        "{} on {} failed verification: {:?}",
        app.name(),
        rt.label(),
        run.verified
    );
    run
}

/// Runs every app on every listed runtime; returns reports indexed
/// `[app][runtime]` in the given orders.
pub fn run_sw_suite(runtimes: &[SwRuntime], scale: Scale) -> Vec<Vec<RunReport>> {
    StampApp::all()
        .iter()
        .map(|&app| runtimes.iter().map(|&rt| run_sw(rt, app, scale).report).collect())
        .collect()
}

/// Prints a table: rows = apps (+ geomean), columns = `headers`.
pub fn print_table(title: &str, headers: &[&str], rows: &[(String, Vec<f64>)], unit: &str) {
    println!("\n## {title}");
    print!("{:<14}", "app");
    for h in headers {
        print!(" {h:>15}");
    }
    println!();
    for (name, values) in rows {
        print!("{name:<14}");
        for v in values {
            print!(" {v:>14.2}{unit}");
        }
        println!();
    }
}

/// Appends a geometric-mean row across the app rows.
pub fn with_geomean(mut rows: Vec<(String, Vec<f64>)>) -> Vec<(String, Vec<f64>)> {
    if rows.is_empty() {
        return rows;
    }
    let cols = rows[0].1.len();
    let geo: Vec<f64> =
        (0..cols).map(|c| specpmt_txn::geomean(rows.iter().map(|(_, v)| v[c]))).collect();
    rows.push(("geomean".to_string(), geo));
    rows
}

/// The hardware runtimes of Figures 13–15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwRuntime {
    /// EDE (the hardware baseline).
    Ede,
    /// HOOP out-of-place updates.
    Hoop,
    /// SpecHPMT-DP (data persistence at commit).
    SpecDp,
    /// SpecHPMT (the full hardware design).
    Spec,
    /// No-log ideal bound.
    NoLog,
}

impl HwRuntime {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            HwRuntime::Ede => "EDE",
            HwRuntime::Hoop => "HOOP",
            HwRuntime::SpecDp => "SpecHPMT-DP",
            HwRuntime::Spec => "SpecHPMT",
            HwRuntime::NoLog => "no-log",
        }
    }
}

/// Runs one app on one hardware runtime with the given epoch thresholds
/// for SpecHPMT (ignored by the others). Returns the run plus the average
/// log footprint (Fig. 15's memory-consumption axis) where applicable.
///
/// # Panics
///
/// Panics if the workload fails verification.
pub fn run_hw_with(
    rt: HwRuntime,
    app: StampApp,
    scale: Scale,
    spec_cfg: HwSpecConfig,
) -> (AppRun, f64) {
    let pool = hw_pool(POOL_BYTES);
    let (run, avg_footprint) = match rt {
        HwRuntime::Ede => (run_app(app, &mut Ede::new(pool, EdeConfig::default()), scale), 0.0),
        HwRuntime::Hoop => (run_app(app, &mut Hoop::new(pool), scale), 0.0),
        HwRuntime::SpecDp => {
            let mut r = HwSpecPmt::new(pool, spec_cfg.dp());
            let run = run_app(app, &mut r, scale);
            (run, r.avg_log_footprint())
        }
        HwRuntime::Spec => {
            let mut r = HwSpecPmt::new(pool, spec_cfg);
            let run = run_app(app, &mut r, scale);
            (run, r.avg_log_footprint())
        }
        HwRuntime::NoLog => {
            (run_app(app, &mut HwNoLog::new(pool, specpmt_hwsim::HwConfig::default()), scale), 0.0)
        }
    };
    assert!(
        run.verified.is_ok(),
        "{} on {} failed verification: {:?}",
        app.name(),
        rt.label(),
        run.verified
    );
    (run, avg_footprint)
}

/// Runs one app on one hardware runtime with default parameters.
pub fn run_hw(rt: HwRuntime, app: StampApp, scale: Scale) -> AppRun {
    run_hw_with(rt, app, scale, HwSpecConfig::default()).0
}

/// Runs every app on every listed hardware runtime.
pub fn run_hw_suite(runtimes: &[HwRuntime], scale: Scale) -> Vec<Vec<RunReport>> {
    StampApp::all()
        .iter()
        .map(|&app| runtimes.iter().map(|&rt| run_hw(rt, app, scale).report).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            SwRuntime::Pmdk,
            SwRuntime::Kamino,
            SwRuntime::Spht,
            SwRuntime::SpecDp,
            SwRuntime::Spec,
            SwRuntime::NoTx,
            SwRuntime::HashLog,
        ];
        let set: std::collections::HashSet<_> = all.iter().map(|r| r.label()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn tiny_suite_runs_and_orders() {
        let reports = run_sw_suite(&[SwRuntime::NoTx], Scale::Tiny);
        assert_eq!(reports.len(), 9);
        assert_eq!(reports[0][0].workload, "genome");
    }

    #[test]
    fn geomean_row_added() {
        let rows = vec![("a".into(), vec![2.0]), ("b".into(), vec![8.0])];
        let rows = with_geomean(rows);
        assert_eq!(rows.last().unwrap().0, "geomean");
        assert!((rows.last().unwrap().1[0] - 4.0).abs() < 1e-9);
    }
}
