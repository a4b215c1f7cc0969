//! Crash-point sw        .map(|out| out.run)eps through the shared runtime's group-commit window,
//! on real threads through [`check_mt_crash_atomicity`].

use specpmt_check::driver::TxOp;
use specpmt_check::{check_mt_crash_atomicity, run_fuel_sweep};
use specpmt_core::{ConcurrentConfig, SpecSpmtShared, TxHandle};
use specpmt_pmem::{CrashPlan, CrashPolicy};
use specpmt_txn::TxAccess;

/// Crash-point sweep through the group-commit window (batched-fence crash
/// atomicity). Multi-op transactions on four threads with the crash armed
/// at every fuel budget across the run: the capture lands before the
/// combiner's batch fence, between the fence and receipt distribution, and
/// while waiters sit staged — receipt-holders must never lose a
/// transaction, boundary/non-receipt transactions must be all-or-nothing
/// after recovery.
#[test]
fn group_commit_mt_crash_sweep_all_lost() {
    group_crash_sweep(CrashPolicy::AllLost);
}

#[test]
fn group_commit_mt_crash_sweep_random_policy() {
    group_crash_sweep(CrashPolicy::Random(0xC0FFEE));
}

fn group_crash_sweep(policy: CrashPolicy) {
    let threads = 4usize;
    let region = 256usize;
    let plans = CrashPlan::sweep_fuel((1..90).step_by(2).map(|n| n as u64), policy);
    let repro = "cargo test -p specpmt-check --test group_crash group_crash_sweep";
    let report = run_fuel_sweep(&plans, repro, |plan| {
        let s = SpecSpmtShared::open_or_format(
            1usize << 22,
            ConcurrentConfig::builder().threads(threads).group_commit(true).build(),
        );
        let mut handles: Vec<TxHandle> = (0..threads).map(|t| s.tx_handle(t)).collect();
        let base = handles[0].setup_alloc(threads * region, 64);
        let bases: Vec<usize> = (0..threads).map(|t| base + t * region).collect();
        let streams: Vec<Vec<Vec<TxOp>>> = (0..threads as u8)
            .map(|t| {
                (0..6u8)
                    .map(|i| {
                        vec![
                            TxOp { addr: 0, data: vec![t * 32 + i + 1; 8] },
                            TxOp { addr: 64, data: vec![t * 32 + i + 1; 8] },
                            TxOp { addr: 160, data: vec![0xA0 + i; 4] },
                        ]
                    })
                    .collect()
            })
            .collect();
        check_mt_crash_atomicity(
            s.device(),
            handles,
            &bases,
            region,
            &streams,
            plan,
            SpecSpmtShared::recover,
        )
        .map(|out| out.run)
    });
    assert!(report.passed(), "failures:\n{}", report.failure_lines().join("\n"));
}
