//! Multi-threaded STAMP smoke tests: every application must complete and
//! verify on real OS threads over `LockedTxHandle` fleets, and the
//! one-handle fleet must behave like a sequential run.

use std::sync::Arc;

use specpmt_core::{ConcurrentConfig, LockedTxHandle, SpecSpmtShared};
use specpmt_pmem::{PmemConfig, SharedPmemDevice, SharedPmemPool};
use specpmt_stamp::{run_app_mt, Scale, StampApp};
use specpmt_txn::SharedLockTable;

const POOL_BYTES: usize = 1 << 23;

fn fleet(n: usize) -> (Arc<SpecSpmtShared>, Vec<LockedTxHandle>) {
    let dev = SharedPmemDevice::new(PmemConfig::new(POOL_BYTES));
    let shared = SpecSpmtShared::open_or_format(
        SharedPmemPool::create(dev),
        ConcurrentConfig::builder().threads(n.max(1)).build(),
    );
    let locks = SharedLockTable::new(POOL_BYTES, 64);
    let handles = LockedTxHandle::fleet(&shared, &locks, n);
    (shared, handles)
}

#[test]
fn every_app_verifies_at_one_thread() {
    for app in StampApp::all() {
        let (_shared, mut handles) = fleet(1);
        let run = run_app_mt(app, &mut handles, Scale::Tiny);
        assert!(run.verified.is_ok(), "{}: {:?}", app.name(), run.verified);
        assert!(run.report.commits > 0, "{}: no commits", app.name());
        assert!(run.report.sim_ns > 0, "{}: no simulated time", app.name());
    }
}

#[test]
fn every_app_verifies_at_two_threads() {
    for app in StampApp::all() {
        let (_shared, mut handles) = fleet(2);
        let run = run_app_mt(app, &mut handles, Scale::Tiny);
        assert!(run.verified.is_ok(), "{}: {:?}", app.name(), run.verified);
        assert!(run.report.commits > 0, "{}: no commits", app.name());
    }
}

#[test]
fn every_app_verifies_at_four_threads() {
    for app in StampApp::all() {
        let (_shared, mut handles) = fleet(4);
        let run = run_app_mt(app, &mut handles, Scale::Tiny);
        assert!(run.verified.is_ok(), "{}: {:?}", app.name(), run.verified);
    }
}

#[test]
fn lock_table_is_empty_after_every_app() {
    for app in StampApp::all() {
        let (_shared, mut handles) = fleet(3);
        let locks = handles[0].locks().clone();
        let run = run_app_mt(app, &mut handles, Scale::Tiny);
        assert!(run.verified.is_ok(), "{}: {:?}", app.name(), run.verified);
        assert_eq!(locks.held_stripes(), 0, "{}: stripes leaked", app.name());
    }
}

#[test]
fn sequential_runtimes_also_drive_run_mt() {
    // A one-element fleet of a single-threaded runtime: run_mt is generic
    // over any `TxAccess + Send`, so the deterministic runtimes can drive
    // the same multi-threaded entry points.
    use specpmt_core::{SpecConfig, SpecSpmt};
    use specpmt_pmem::{PmemDevice, PmemPool};

    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let mut rts = [SpecSpmt::new(pool, SpecConfig::default())];
    let run = run_app_mt(StampApp::Genome, &mut rts, Scale::Tiny);
    assert!(run.verified.is_ok(), "{:?}", run.verified);
    assert!(run.report.commits > 0);
}
