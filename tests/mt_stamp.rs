//! End-to-end multi-threaded STAMP acceptance sweep through the facade
//! crate: every workload must complete and verify at 1, 2, 4, and 8 real
//! OS threads over a [`LockedTxHandle`] fleet, and the strict-2PL lock
//! table must drain completely after each run. (Per-crate smoke lives in
//! `crates/stamp/tests/mt_apps.rs`; this sweep is the top-level contract.)

use specpmt::core::{ConcurrentConfig, LockedTxHandle, SpecSpmtShared};
use specpmt::pmem::{PmemConfig, SharedPmemDevice, SharedPmemPool};
use specpmt::stamp::{run_app_mt, Scale, StampApp};
use specpmt::txn::SharedLockTable;
use specpmt_pmem::CrashControl;

const POOL_BYTES: usize = 1 << 23;

#[test]
fn every_workload_completes_at_one_two_four_eight_threads() {
    for app in StampApp::all() {
        for threads in [1usize, 2, 4, 8] {
            let dev = SharedPmemDevice::new(PmemConfig::new(POOL_BYTES));
            let shared = SpecSpmtShared::open_or_format(
                SharedPmemPool::create(dev),
                ConcurrentConfig::builder().threads(threads).build(),
            );
            let locks = SharedLockTable::new(POOL_BYTES, 64);
            let mut handles = LockedTxHandle::fleet(&shared, &locks, threads);
            let run = run_app_mt(app, &mut handles, Scale::Tiny);
            assert!(run.verified.is_ok(), "{} @ {threads} threads: {:?}", app.name(), run.verified);
            assert!(run.report.commits > 0, "{} @ {threads} threads: no commits", app.name());
            assert!(run.report.sim_ns > 0, "{} @ {threads} threads: no sim time", app.name());
            assert_eq!(run.report.threads, threads, "{}: thread count", app.name());
            assert_eq!(locks.held_stripes(), 0, "{} @ {threads} threads: leak", app.name());
        }
    }
}

/// Smoke past the old 8-slot cap: a representative subset of the workloads
/// must complete, verify, and recover on a 16-thread fleet over one
/// dynamically formatted pool.
#[test]
fn sixteen_thread_fleet_runs_past_the_legacy_cap() {
    use specpmt::pmem::CrashPolicy;

    const THREADS: usize = 16;
    for app in [StampApp::Intruder, StampApp::Ssca2, StampApp::KmeansLow] {
        let dev = SharedPmemDevice::new(PmemConfig::new(POOL_BYTES));
        let shared = SpecSpmtShared::open_or_format(
            SharedPmemPool::create(dev),
            ConcurrentConfig::builder().threads(THREADS).build(),
        );
        let locks = SharedLockTable::new(POOL_BYTES, 64);
        let mut handles = LockedTxHandle::fleet(&shared, &locks, THREADS);
        let run = run_app_mt(app, &mut handles, Scale::Tiny);
        assert!(run.verified.is_ok(), "{} @ 16 threads: {:?}", app.name(), run.verified);
        assert_eq!(run.report.threads, THREADS, "{}: thread count", app.name());
        assert_eq!(locks.held_stripes(), 0, "{} @ 16 threads: leak", app.name());
        // The pool the fleet wrote must still parse and recover as a
        // 16-thread pool.
        let mut img = shared.pool().device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        let report = specpmt::core::inspect_image(&img);
        assert_eq!(report.threads, THREADS, "{}: inspect threads", app.name());
    }
}
