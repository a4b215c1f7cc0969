//! Multi-threaded crash-atomicity sweep for the concurrent SpecSPMT
//! runtime ([`specpmt::core::SpecSpmtShared`]).
//!
//! Real OS threads drive per-thread transaction streams into one shared
//! pool; the device crashes at a swept persistence-operation boundary
//! under every [`CrashPolicy`]; recovery replays the speculative logs and
//! [`specpmt::txn::check_mt_crash_atomicity`] verifies per-thread atomic
//! durability via the crash-epoch bracketing protocol. The sweep covers
//! both SpecSPMT and SpecSPMT-DP, with and without the background
//! reclamation daemon racing the application threads.

use specpmt_pmem::CrashControl;
use std::time::Duration;

use specpmt::core::{ConcurrentConfig, LockedTxHandle, SpecSpmtShared};
use specpmt::pmem::{
    CrashPlan, CrashPolicy, CrashTrigger, PmemConfig, SharedPmemDevice, SharedPmemPool,
};
use specpmt::txn::driver::{generate_stream, StreamSpec, TxOp};
use specpmt::txn::{
    check_mt_crash_atomicity, run_fuel_sweep, run_tx, MtScenario, RunSummary, SharedLockTable,
    TxAccess,
};

const REGION_LEN: usize = 256;

/// Builds a shared pool with `threads` disjoint data regions, runs one
/// random stream per thread with `plan` armed, and verifies atomic
/// durability. Returns the scenario for extra assertions, or the first
/// atomicity violation.
fn run_scenario(
    cfg: ConcurrentConfig,
    plan: CrashPlan,
    seed: u64,
    daemon_poll: Option<Duration>,
) -> Result<MtScenario, String> {
    let threads = cfg.threads;
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 22));
    let pool = SharedPmemPool::create(dev.clone());
    let shared = SpecSpmtShared::open_or_format(pool, cfg);

    let bases: Vec<usize> = (0..threads)
        .map(|_| shared.pool().alloc_direct(REGION_LEN, 64).expect("pool holds all regions"))
        .collect();
    let streams: Vec<Vec<Vec<TxOp>>> = (0..threads)
        .map(|t| {
            generate_stream(&StreamSpec {
                txs: 12,
                max_writes_per_tx: 4,
                max_write_len: 12,
                region_len: REGION_LEN,
                seed: seed * 31 + t as u64,
            })
        })
        .collect();
    let handles: Vec<_> = (0..threads).map(|t| shared.tx_handle(t)).collect();

    let daemon = daemon_poll.map(|poll| shared.spawn_reclaimer(poll));
    let out = check_mt_crash_atomicity(
        &dev,
        handles,
        &bases,
        REGION_LEN,
        &streams,
        plan,
        SpecSpmtShared::recover,
    )
    .map_err(|e| format!("threads={threads} plan={plan:?} seed={seed}: {e}"));
    if let Some(d) = daemon {
        d.stop();
    }
    out
}

/// Adapts a scenario outcome to the enumerator's per-run summary so the
/// fuel sweeps below share [`run_fuel_sweep`]'s coverage/failure report.
fn summarize(out: MtScenario) -> RunSummary {
    RunSummary { fired: out.crash_fired, fired_at: out.fired_at, site_hits: out.site_hits }
}

/// Fuel used by a sweep plan, for deriving per-case seeds.
fn fuel_of(plan: CrashPlan) -> u64 {
    match plan.trigger() {
        CrashTrigger::AfterOps(n) => n,
        t => panic!("sweep plan has non-fuel trigger {t:?}"),
    }
}

/// Sweeps `fuels` × `policies` through [`run_fuel_sweep`] so every case
/// lands in one merged report with shared failure formatting.
fn sweep_policies(
    cfg_of: impl Fn() -> ConcurrentConfig,
    fuels: &[u64],
    policies: &[CrashPolicy],
    seed_mul: u64,
    daemon_poll: Option<Duration>,
    repro: &str,
) {
    let mut merged = specpmt::txn::EnumReport::default();
    for (p, &policy) in policies.iter().enumerate() {
        let plans = CrashPlan::sweep_fuel(fuels.iter().copied(), policy);
        let report = run_fuel_sweep(&plans, repro, |plan| {
            let seed = fuel_of(plan).wrapping_mul(seed_mul) + p as u64;
            run_scenario(cfg_of(), plan, seed, daemon_poll).map(summarize)
        });
        merged.merge(report);
    }
    assert!(merged.passed(), "atomicity violations:\n{}", merged.failure_lines().join("\n"));
}

#[test]
fn specpmt_mt_sweep_all_policies() {
    for threads in [2usize, 4] {
        sweep_policies(
            || ConcurrentConfig::builder().threads(threads).build(),
            &[3, 17, 41, 97, 211, 4001],
            &[CrashPolicy::AllLost, CrashPolicy::AllSurvive, CrashPolicy::Random(0x5eed)],
            7,
            None,
            "cargo test --test concurrency specpmt_mt_sweep_all_policies",
        );
    }
}

#[test]
fn specpmt_dp_mt_sweep_all_policies() {
    for threads in [2usize, 4] {
        sweep_policies(
            || ConcurrentConfig::builder().data_persistence(true).threads(threads).build(),
            &[5, 23, 61, 131, 3001],
            &[CrashPolicy::AllLost, CrashPolicy::AllSurvive, CrashPolicy::Random(0xd9)],
            13,
            None,
            "cargo test --test concurrency specpmt_dp_mt_sweep_all_policies",
        );
    }
}

/// The same write-free-laced streams through the group-commit path: a
/// write-free commit stages nothing, so it must neither join a batch nor
/// wait for one.
#[test]
fn specpmt_group_commit_mt_sweep() {
    sweep_policies(
        || ConcurrentConfig::builder().threads(4).group_commit(true).build(),
        &[11, 53, 173, 509, 5001],
        &[CrashPolicy::AllLost, CrashPolicy::Random(0x6c)],
        17,
        None,
        "cargo test --test concurrency specpmt_group_commit_mt_sweep",
    );
}

#[test]
fn specpmt_mt_sweep_with_reclaim_daemon_racing() {
    // A tiny threshold keeps the daemon compacting continuously while the
    // application threads commit — crashes may land inside a reclamation
    // cycle, exercising the two-fence splice under fire.
    sweep_policies(
        || ConcurrentConfig::builder().threads(4).reclaim_threshold_bytes(2048).build(),
        &[29, 83, 241, 701],
        &[CrashPolicy::AllLost, CrashPolicy::Random(0x29)],
        1,
        Some(Duration::from_micros(50)),
        "cargo test --test concurrency specpmt_mt_sweep_with_reclaim_daemon_racing",
    );
}

#[test]
fn specpmt_dp_mt_with_reclaim_daemon_racing() {
    sweep_policies(
        || {
            ConcurrentConfig::builder()
                .threads(2)
                .reclaim_threshold_bytes(2048)
                .data_persistence(true)
                .build()
        },
        &[37, 149, 499],
        &[CrashPolicy::AllLost],
        1,
        Some(Duration::from_micros(50)),
        "cargo test --test concurrency specpmt_dp_mt_with_reclaim_daemon_racing",
    );
}

// --- racing writers on overlapping stripes ------------------------------
//
// Unlike the disjoint-region sweeps above, these threads contend for the
// *same* slots of one shared region through [`LockedTxHandle`]s: strict
// 2PL plus doom/abort-retry must serialize the conflicting transactions,
// and the speculative-logging commit protocol must keep every recovered
// slot internally consistent no matter where the crash lands.

/// Each 16-byte slot holds a `(tag, tag ^ PAIR_MASK)` pair written by one
/// transaction; recovery observing any other combination means a torn mix
/// of two writers (or a half-applied transaction) leaked through.
const SLOT_BYTES: usize = 16;
const SLOTS: usize = 32;
const PAIR_MASK: u64 = 0xA5A5_5A5A_C3C3_3C3C;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Races `threads` writers over one striped region with a crash armed at
/// `crash_after` and asserts (a) the lock table drains to zero stripes and
/// (b) no recovered slot is torn. Returns whether the crash fired.
fn run_racing_writers(threads: usize, crash_after: u64, seed: u64) -> bool {
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 22));
    let pool = SharedPmemPool::create(dev.clone());
    let shared =
        SpecSpmtShared::open_or_format(pool, ConcurrentConfig::builder().threads(threads).build());
    let base = shared.pool().alloc_direct(SLOTS * SLOT_BYTES, 64).expect("region fits");
    // 64-byte stripes over 16-byte slots: four slots share each stripe, so
    // even threads aiming at different slots collide on lock stripes.
    let locks = SharedLockTable::new(1 << 22, 64);
    let mut handles = LockedTxHandle::fleet(&shared, &locks, threads);

    // External-data protocol: one committed snapshot of zeros over the
    // shared region before the crash is armed.
    run_tx(&mut handles[0], |tx| {
        for w in 0..SLOTS * SLOT_BYTES / 8 {
            tx.write_u64(base + w * 8, 0);
        }
    });

    dev.arm(CrashPlan::after_ops(crash_after).with_policy(CrashPolicy::Random(seed ^ 0xc4a5)));
    std::thread::scope(|s| {
        for (t, h) in handles.iter_mut().enumerate() {
            let dev = dev.clone();
            s.spawn(move || {
                let mut rng = seed.wrapping_mul(31).wrapping_add(t as u64 + 1);
                for i in 0..24u64 {
                    if dev.observe().1 {
                        break; // image frozen: later commits cannot be captured
                    }
                    let slot = (splitmix(&mut rng) as usize) % SLOTS;
                    let tag = ((t as u64 + 1) << 32) | (i + 1);
                    // Between writers, a write-free transaction on a
                    // contended slot: it takes (and may be doomed on) the
                    // stripe, reserves no record, and commits or aborts
                    // for free — under a reader a pair is never torn.
                    let peek = base + (splitmix(&mut rng) as usize % SLOTS) * SLOT_BYTES;
                    if i % 2 == 0 {
                        let (w0, w1) = run_tx(h, |tx| (tx.read_u64(peek), tx.read_u64(peek + 8)));
                        assert!(
                            w1 == w0 ^ PAIR_MASK || (w0, w1) == (0, 0),
                            "reader saw a torn pair"
                        );
                    } else {
                        h.begin();
                        let _ = h.read_u64(peek);
                        h.abort();
                    }
                    run_tx(h, |tx| {
                        let a = base + slot * SLOT_BYTES;
                        tx.write_u64(a, tag);
                        tx.write_u64(a + 8, tag ^ PAIR_MASK);
                    });
                }
            });
        }
    });
    assert_eq!(locks.held_stripes(), 0, "stripes leaked after commit/abort");

    let crash_fired = dev.fired();
    let mut image = match dev.take_image() {
        Some(img) => img,
        None => {
            dev.flush_everything();
            dev.capture(CrashPolicy::AllLost)
        }
    };
    SpecSpmtShared::recover(&mut image);
    for slot in 0..SLOTS {
        let a = base + slot * SLOT_BYTES;
        let (w0, w1) = (image.read_u64(a), image.read_u64(a + 8));
        assert!(
            (w0 == 0 && w1 == 0) || w1 == (w0 ^ PAIR_MASK),
            "torn slot {slot} after recovery (threads={threads} crash_after={crash_after} \
             seed={seed}): {w0:#x} / {w1:#x}"
        );
    }
    crash_fired
}

#[test]
fn racing_writers_never_recover_torn_slots() {
    for threads in [2usize, 3, 4, 8] {
        for (k, crash_after) in [7u64, 43, 131, 977].into_iter().enumerate() {
            run_racing_writers(threads, crash_after, threads as u64 * 101 + k as u64);
        }
    }
}

#[test]
fn racing_writers_survive_shutdown_image_when_crash_never_fires() {
    // Fuel far beyond the run: every slot must still pair up under an
    // adversarial post-shutdown AllLost image.
    let fired = run_racing_writers(4, u64::MAX / 2, 4242);
    assert!(!fired);
}

#[test]
fn nested_begin_message_is_identical_across_runtimes() {
    // API contract: the deterministic runtime and the concurrent handle
    // reject nested `begin` with the *same* panic message, so test
    // harnesses can match one string for both.
    use specpmt::core::{SpecConfig, SpecSpmt};
    use specpmt::pmem::{PmemDevice, PmemPool};

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let err = std::panic::catch_unwind(f).expect_err("nested begin must panic");
        std::panic::set_hook(prev);
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string")
    }

    let single = panic_message(|| {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = SpecSpmt::new(pool, SpecConfig::default());
        rt.begin();
        rt.begin();
    });
    let handle = panic_message(|| {
        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 20));
        let shared = SpecSpmtShared::open_or_format(
            SharedPmemPool::create(dev),
            ConcurrentConfig::default(),
        );
        let mut h = shared.tx_handle(0);
        h.begin();
        h.begin();
    });
    assert_eq!(single, "nested transaction on thread 0");
    assert_eq!(handle, single, "begin contract diverged between SpecSpmt and TxHandle");
}

#[test]
fn full_streams_commit_when_crash_never_fires() {
    // Fuel far beyond the stream length: every transaction must commit and
    // survive an adversarial post-shutdown AllLost image.
    let out = run_scenario(
        ConcurrentConfig::builder().threads(4).build(),
        CrashPlan::after_ops(u64::MAX / 2).with_policy(CrashPolicy::AllLost),
        99,
        None,
    )
    .expect("crash-free run verifies");
    assert!(!out.crash_fired);
    assert_eq!(out.committed_per_thread, vec![12; 4]);
    assert_eq!(out.boundary_per_thread, vec![false; 4]);
}

/// The incremental reclamator's `(head, generation)` watermarks: an idle
/// chain is never re-parsed or rewritten (its cached parse is reused and a
/// cycle over only-idle chains is a complete no-op), while a churning
/// chain is compacted exactly once per burst of churn.
#[test]
fn reclaim_watermarks_skip_idle_chains() {
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 22));
    let pool = SharedPmemPool::create(dev);
    let shared =
        SpecSpmtShared::open_or_format(pool, ConcurrentConfig::builder().threads(2).build());
    let a = shared.pool().alloc_direct(32, 8).unwrap();
    let mut churn = shared.tx_handle(0);
    let mut quiet = shared.tx_handle(1);

    // Chain 1 commits once to a private word: nothing to reclaim there.
    quiet.begin();
    quiet.write_u64(a + 16, 9);
    quiet.commit();
    // Chain 0 overwrites one word twenty times: nineteen stale entries.
    for i in 0..20u64 {
        churn.begin();
        churn.write_u64(a, i);
        churn.commit();
    }

    shared.reclaim_cycle();
    let s1 = shared.reclaim_stats();
    assert_eq!(s1.cycles, 1);
    assert_eq!(s1.chains_scanned, 2, "first cycle parses both chains");
    assert_eq!(s1.chains_rewritten, 1, "churning chain compacted exactly once");
    assert_eq!(s1.rewrites_skipped, 1, "quiet chain dropped nothing: no rewrite, no fences");
    assert_eq!(s1.records_dropped, 19);

    // Fully idle second cycle: no watermark moved, so the cycle is a no-op
    // (no parses, no rewrites, no splice fences).
    shared.reclaim_cycle();
    let s2 = shared.reclaim_stats();
    assert_eq!(s2.cycles, 2);
    assert_eq!(s2.noop_cycles, 1);
    assert_eq!(s2.chains_skipped, s1.chains_skipped + 2, "both cached parses reused");
    assert_eq!(s2.chains_scanned, s1.chains_scanned, "idle chains are not re-parsed");
    assert_eq!(s2.chains_rewritten, 1, "idle chain -> zero rewrites");
    assert_eq!(s2.records_dropped, 19);

    // Churn chain 0 again: the next cycle re-parses *only* that chain
    // (chain 1 is skipped via its watermark) and compacts it once.
    for i in 0..5u64 {
        churn.begin();
        churn.write_u64(a, 100 + i);
        churn.commit();
    }
    shared.reclaim_cycle();
    let s3 = shared.reclaim_stats();
    assert_eq!(s3.chains_scanned, s2.chains_scanned + 1, "only the churned chain re-parsed");
    assert!(s3.chains_skipped > s2.chains_skipped, "quiet chain skipped via watermark");
    assert_eq!(s3.chains_rewritten, 2, "churning chain compacted exactly once more");
    assert!(s3.bytes_reclaimed > s1.bytes_reclaimed);

    // Compaction preserved crash semantics: recovery from a cacheless
    // crash still replays the youngest value of every word.
    let mut img = shared.device().capture(CrashPolicy::AllLost);
    SpecSpmtShared::recover(&mut img);
    assert_eq!(img.read_u64(a), 104);
    assert_eq!(img.read_u64(a + 16), 9);
}
