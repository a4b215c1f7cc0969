//! Atomic bank transfers under crash torture, on every crash-consistent
//! software runtime.
//!
//! The classic crash-consistency demo: money moves between accounts in
//! transactions; a crash at *any* persistence operation must never create
//! or destroy money. The driver arms a crash at a sweep of fault-injection
//! points (including inside commit sequences), recovers, and audits the
//! total balance.
//!
//! Run with: `cargo run --release --example bank_transfer`

use specpmt::baselines::{PmdkConfig, PmdkUndo, Spht};
use specpmt::core::{HashLogConfig, HashLogSpmt, SpecConfig, SpecSpmt};
use specpmt::pmem::{CrashPlan, CrashPolicy, PmemConfig, PmemDevice, PmemPool};
use specpmt::txn::{Recover, TxRuntime};
use specpmt_pmem::CrashControl;

const ACCOUNTS: usize = 16;
const INITIAL: u64 = 1_000;
const TRANSFERS: usize = 50;

fn pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(4 << 20)))
}

/// Runs the transfer workload with a crash armed after `fuel` persistence
/// operations; recovers; returns the audited total.
fn run_with_crash<R, F>(make: F, fuel: u64, seed: u64) -> u64
where
    R: TxRuntime + Recover,
    F: FnOnce(PmemPool) -> R,
{
    let mut rt = make(pool());
    // Setup: accounts with initial balances (committed snapshot).
    rt.begin();
    let table = rt.alloc(ACCOUNTS * 8, 64);
    for a in 0..ACCOUNTS {
        rt.write_u64(table + a * 8, INITIAL);
    }
    rt.commit();

    rt.pool_mut()
        .device_mut()
        .arm(CrashPlan::after_ops(fuel).with_policy(CrashPolicy::Random(seed)));

    let mut state = seed | 1;
    let mut step = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..TRANSFERS {
        let from = step() % ACCOUNTS;
        let to = step() % ACCOUNTS;
        let amount = (step() % 100) as u64;
        rt.begin();
        let from_balance = rt.read_u64(table + from * 8);
        let to_balance = rt.read_u64(table + to * 8);
        if from_balance >= amount && from != to {
            rt.write_u64(table + from * 8, from_balance - amount);
            rt.write_u64(table + to * 8, to_balance + amount);
        }
        rt.commit();
        rt.maintain();
        if rt.pool().device().fired() {
            break;
        }
    }

    // Crash (or finish), recover, audit.
    let mut image = match rt.pool_mut().device_mut().take_image() {
        Some(img) => img,
        None => {
            rt.close();
            rt.pool().device().capture(CrashPolicy::AllLost)
        }
    };
    R::recover(&mut image);
    (0..ACCOUNTS).map(|a| image.read_u64(table + a * 8)).sum()
}

fn torture<R, F>(name: &str, make: F)
where
    R: TxRuntime + Recover,
    F: Fn(PmemPool) -> R + Copy,
{
    let want = (ACCOUNTS as u64) * INITIAL;
    let mut crashes = 0;
    for fuel in (0..600).step_by(7) {
        let total = run_with_crash(make, fuel, 0xB0B + fuel);
        assert_eq!(
            total,
            want,
            "{name}: money {} after crash at fuel {fuel}!",
            if total > want { "created" } else { "destroyed" }
        );
        crashes += 1;
    }
    println!("{name:<14} survived {crashes} crash points — total always {want}");
}

fn main() {
    torture("SpecSPMT", |p| SpecSpmt::new(p, SpecConfig::default()));
    torture("SpecSPMT-DP", |p| SpecSpmt::new(p, SpecConfig::default().dp()));
    torture("PMDK", |p| PmdkUndo::new(p, PmdkConfig::default()));
    torture("SPHT", Spht::new);
    torture("HashLog-SPMT", |p| HashLogSpmt::new(p, HashLogConfig { capacity: 1 << 10 }));
    println!("bank_transfer OK");
}
