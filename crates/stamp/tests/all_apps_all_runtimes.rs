//! Every STAMP mini-app must produce a verified result on every software
//! runtime — the workloads are runtime-agnostic and the runtimes preserve
//! sequential semantics.

use specpmt_baselines::{KaminoTx, NoLog, PmdkConfig, PmdkUndo, Spht};
use specpmt_core::{HashLogConfig, HashLogSpmt, SpecConfig, SpecSpmt};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt_stamp::{run_app, Scale, StampApp};
use specpmt_txn::TxRuntime;

fn pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(16 << 20)))
}

fn check<R: TxRuntime>(mut rt: R) {
    for app in StampApp::all() {
        let run = run_app(app, &mut rt, Scale::Tiny);
        assert!(run.verified.is_ok(), "{} failed on {}: {:?}", app.name(), rt.name(), run.verified);
        assert!(run.report.tx.tx_committed > 0, "{} committed nothing", app.name());
        assert_eq!(run.report.tx.tx_begun, run.report.tx.tx_committed);
    }
}

#[test]
fn specspmt_runs_all_apps() {
    check(SpecSpmt::new(pool(), SpecConfig::default()));
}

#[test]
fn specspmt_dp_runs_all_apps() {
    check(SpecSpmt::new(pool(), SpecConfig::default().dp()));
}

#[test]
fn pmdk_runs_all_apps() {
    check(PmdkUndo::new(pool(), PmdkConfig::default()));
}

#[test]
fn kamino_runs_all_apps() {
    check(KaminoTx::new(pool()));
}

#[test]
fn spht_runs_all_apps() {
    check(Spht::new(pool()));
}

#[test]
fn nolog_runs_all_apps() {
    check(NoLog::new(pool()));
}

#[test]
fn hashlog_runs_all_apps() {
    check(HashLogSpmt::new(pool(), HashLogConfig { capacity: 1 << 16 }));
}
