//! Every STAMP mini-app must verify on every hardware runtime.

use specpmt_hwtx::{hw_pool, Ede, EdeConfig, Hoop, HwNoLog, HwSpecConfig, HwSpecPmt};
use specpmt_stamp::{run_app, Scale, StampApp};
use specpmt_txn::TxRuntime;

fn check<R: TxRuntime>(mut rt: R) {
    for app in StampApp::all() {
        let run = run_app(app, &mut rt, Scale::Tiny);
        assert!(run.verified.is_ok(), "{} failed on {}: {:?}", app.name(), rt.name(), run.verified);
        assert!(run.report.tx.tx_committed > 0);
    }
}

#[test]
fn spechpmt_runs_all_apps() {
    check(HwSpecPmt::new(hw_pool(64 << 20), HwSpecConfig::default()));
}

#[test]
fn spechpmt_dp_runs_all_apps() {
    check(HwSpecPmt::new(hw_pool(64 << 20), HwSpecConfig::default().dp()));
}

#[test]
fn ede_runs_all_apps() {
    check(Ede::new(hw_pool(64 << 20), EdeConfig::default()));
}

#[test]
fn hoop_runs_all_apps() {
    check(Hoop::new(hw_pool(64 << 20)));
}

#[test]
fn hw_nolog_runs_all_apps() {
    check(HwNoLog::new(hw_pool(64 << 20), specpmt_hwsim::HwConfig::default()));
}

#[test]
fn spechpmt_small_epochs_run_all_apps() {
    // Aggressive epoch rotation (the Fig. 15 low-memory end) must not
    // break correctness.
    check(HwSpecPmt::new(
        hw_pool(64 << 20),
        HwSpecConfig {
            epoch_max_bytes: 16 * 1024,
            epoch_max_pages: 8,
            max_live_epochs: 2,
            ..HwSpecConfig::default()
        },
    ));
}
