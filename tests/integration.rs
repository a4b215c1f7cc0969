//! Cross-crate integration tests: multi-threaded logs, mode switching,
//! workload durability end-to-end, and hardware-model recovery.

use specpmt::core::{ConcurrentConfig, SpecConfig, SpecSpmt, SpecSpmtShared};
use specpmt::hwtx::{hw_pool, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{CrashPolicy, PmemConfig, PmemDevice, PmemPool};
use specpmt::stamp::{run_app, Scale, StampApp};
use specpmt::txn::{Recover, TxAccess, TxRuntime};
use specpmt_pmem::CrashControl;

fn pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(16 << 20)))
}

/// Interleaved transactions from several chains — one `TxHandle` each,
/// stepped round-robin from this thread; recovery must order commits
/// globally by timestamp.
#[test]
fn multithread_interleaving_recovers_in_commit_order() {
    let shared =
        SpecSpmtShared::open_or_format(16 << 20, ConcurrentConfig::builder().threads(4).build());
    let a = shared.pool().alloc_direct(256, 64).unwrap();
    let mut handles: Vec<_> = (0..4).map(|tid| shared.tx_handle(tid)).collect();

    // Round-robin: each thread overwrites the same words in turn, plus a
    // private word of its own.
    let rounds = 50u64;
    for round in 0..rounds {
        for (tid, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write_u64(a, round * 4 + tid as u64);
            h.write_u64(a + 8 + tid * 8, round);
            h.commit();
        }
    }
    // Leave one thread's transaction open (must be revoked).
    handles[2].begin();
    handles[2].write_u64(a, 0xDEAD);
    let mut img = shared.device().capture(CrashPolicy::AllSurvive);
    SpecSpmtShared::recover(&mut img);
    assert_eq!(img.read_u64(a), (rounds - 1) * 4 + 3, "youngest commit wins");
    for tid in 0..4usize {
        assert_eq!(img.read_u64(a + 8 + tid * 8), rounds - 1);
    }
}

/// Reclamation with multiple threads: global freshness must keep the last
/// committed record for data another thread may still need to revoke (the
/// Fig. 11 hazard).
#[test]
fn multithread_reclamation_preserves_revocability() {
    let shared = SpecSpmtShared::open_or_format(
        16 << 20,
        ConcurrentConfig::builder().threads(2).block_bytes(512).build(),
    );
    let a = shared.pool().alloc_direct(64, 64).unwrap();
    let mut h0 = shared.tx_handle(0);
    let mut h1 = shared.tx_handle(1);

    // Thread 0 commits w1, w2, … to the datum, reclaiming throughout.
    for v in 0..300u64 {
        h0.begin();
        h0.write_u64(a, v);
        h0.commit();
        if v % 25 == 24 {
            shared.reclaim_cycle();
        }
    }
    assert!(shared.stats().records_reclaimed > 0);
    // Thread 1 starts w3 but crashes before commit (Fig. 11's w3).
    h1.begin();
    h1.write_u64(a, 0xBAD);
    let mut img = shared.device().capture(CrashPolicy::AllSurvive);
    SpecSpmtShared::recover(&mut img);
    assert_eq!(img.read_u64(a), 299, "w3 must be revoked to the last committed value");
}

/// Section 4.3.1: switching out of speculative logging leaves the pool
/// consistent for a successor mechanism with no log at all.
#[test]
fn mode_switch_handoff() {
    let mut rt = SpecSpmt::new(pool(), SpecConfig::default());
    let a = rt.pool_mut().alloc_direct(128, 64).unwrap();
    for v in 0..20u64 {
        rt.begin();
        rt.write_u64(a + (v as usize % 4) * 8, v);
        rt.commit();
    }
    rt.switch_out();
    // After the switch, even a recovery-free image is fully consistent.
    let img = rt.pool().device().capture(CrashPolicy::AllLost);
    assert_eq!(img.read_u64(a), 16);
    assert_eq!(img.read_u64(a + 8), 17);
    // And the (now truncated) log replays to the same state.
    let mut img2 = rt.pool().device().capture(CrashPolicy::AllLost);
    SpecSpmt::recover(&mut img2);
    assert_eq!(img2.read_u64(a), 16);
}

/// End-to-end: run a real workload, crash with everything in the cache
/// lost, recover, and check workload-level state survived.
#[test]
fn workload_state_survives_crash_after_run() {
    let mut rt = SpecSpmt::new(pool(), SpecConfig::default());
    let run = run_app(StampApp::VacationLow, &mut rt, Scale::Tiny);
    assert!(run.verified.is_ok());
    let committed = run.report.tx.tx_committed;

    let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
    SpecSpmt::recover(&mut img);
    // Spot-check: re-running verification against the recovered image is
    // heavyweight; instead check the reservation counter monotonicity
    // invariant survived — the pool must not have reverted to zero state.
    let nonzero = img.as_bytes().iter().filter(|&&b| b != 0).count();
    assert!(nonzero > 1000, "recovered image lost committed workload state");
    assert!(committed > 0);
}

/// Hardware SpecPMT across epochs: interleave hot/cold phases and crash at
/// the end of the run — then crash inside every epoch-head publication of
/// a run. `layout/head_write` fires with the new head word stored but not
/// yet persisted: in `start_epoch` that is after the new chain's
/// `LogArea::create` fence and before its head is published, in
/// `reclaim_oldest` after `clear_epoch` and before the cleared head is
/// durable. `AllLost` keeps the old word and `AllSurvive` the new one, and
/// either way recovery must reach the oracle's committed state.
///
/// The sweep promotes a page on its first store (`hot_threshold: 1`): with
/// the default threshold a page re-cooled by `clearepoch` takes cold,
/// in-place writes while a younger live epoch still holds its older
/// record, which recovery then replays over them — EXPERIMENTS.md
/// divergence 7, open, and not what this test is about.
#[test]
fn hw_spec_epoch_lifecycle_recovers() {
    use specpmt::hwsim::HwConfig;
    use specpmt::pmem::{CrashImage, CrashPlan};
    use specpmt_check::CommitOracle;
    const HEAD_WRITE: &str = "layout/head_write";

    /// Runs the workload under `plan` until it fires (or to the end);
    /// returns the recovered image of that instant, the oracle at it, the
    /// data base, the head-write hits and the epochs cleared.
    fn run(hw: HwConfig, plan: CrashPlan) -> (CrashImage, CommitOracle, usize, u64, u64) {
        let mut rt = HwSpecPmt::new(
            hw_pool(4 << 20),
            HwSpecConfig {
                hw,
                epoch_max_bytes: 8 * 1024,
                epoch_max_pages: 4,
                max_live_epochs: 2,
                ..HwSpecConfig::default()
            },
        );
        rt.begin();
        let a = rt.alloc(8 * 4096, 4096);
        rt.commit();
        rt.pool().device().arm(plan);
        let mut oracle = CommitOracle::new();
        for round in 0..120u64 {
            rt.begin();
            oracle.begin();
            // Two hot pages + one rotating cold page.
            let writes =
                [(a, round), (a + 4096, round * 3), (a + 4096 * (2 + (round as usize % 6)), round)];
            for (addr, v) in writes {
                rt.write_u64(addr, v);
                oracle.write(addr, &v.to_le_bytes());
            }
            // Epochs rotate (and publish heads) after the commit fence, so
            // a capture inside this call already holds the transaction.
            rt.commit();
            oracle.commit();
            if rt.pool().device().fired() {
                break;
            }
        }
        let dev = rt.pool().device();
        let hits = dev.site_hits().iter().find(|(s, _)| *s == HEAD_WRITE).map_or(0, |&(_, n)| n);
        let mut img = dev.take_image().unwrap_or_else(|| dev.capture(CrashPolicy::AllLost));
        HwSpecPmt::recover(&mut img);
        (img, oracle, a, hits, rt.hw_stats().epochs_cleared)
    }

    let (img, _, a, ..) = run(HwConfig::default(), CrashPlan::observe());
    assert_eq!(img.read_u64(a), 119);
    assert_eq!(img.read_u64(a + 4096), 357);
    assert_eq!(img.read_u64(a + 4096 * (2 + (119 % 6))), 119);

    let eager = HwConfig { hot_threshold: 1, ..HwConfig::default() };
    let (img, oracle, _, hits, cleared) = run(eager.clone(), CrashPlan::observe());
    oracle.verify(&img).expect("end-of-run image recovers to the oracle state");
    assert!(cleared > 16 && hits > 2 * 16, "{hits} publications, {cleared} of them clears");
    // The first 32 publications: some sixteen epochs opened and as many
    // cleared, which wraps the 3-bit EID space twice.
    for hit in 1..=32 {
        for policy in [CrashPolicy::AllLost, CrashPolicy::AllSurvive] {
            let plan = CrashPlan::at_site(HEAD_WRITE, hit).with_policy(policy);
            let (img, oracle, ..) = run(eager.clone(), plan);
            oracle
                .verify(&img)
                .unwrap_or_else(|e| panic!("{HEAD_WRITE}:{hit} under {policy:?}: {e}"));
        }
    }
}

/// Send/Sync sanity: runtimes can move across threads (useful for test
/// harnesses running scenarios in parallel).
#[test]
fn runtimes_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<SpecSpmt>();
    assert_send::<specpmt::baselines::PmdkUndo>();
    assert_send::<specpmt::baselines::Spht>();
    assert_send::<specpmt::core::HashLogSpmt>();
}

/// A multi-chain history is replayable without a scheduler: three
/// `TxHandle`s of one `SpecSpmtShared` stepped round-robin from this
/// thread. Recovery of the `AllLost` image matches the schedule's commit
/// oracle exactly, and a second run reproduces the image byte for byte.
#[test]
fn round_robin_handles_recover_to_oracle_state_deterministically() {
    use specpmt_check::driver::{generate_stream, StreamSpec};
    use specpmt_check::CommitOracle;

    let streams: Vec<_> = (0..3u64)
        .map(|seed| {
            generate_stream(&StreamSpec {
                txs: 15,
                max_writes_per_tx: 4,
                max_write_len: 12,
                region_len: 512,
                seed,
            })
        })
        .collect();
    let run = || {
        let shared = SpecSpmtShared::open_or_format(
            16 << 20,
            ConcurrentConfig::builder().threads(3).group_commit(false).build(),
        );
        let mut handles: Vec<_> = (0..3).map(|tid| shared.tx_handle(tid)).collect();
        let base = handles[0].setup_alloc(512, 64);
        let mut oracle = CommitOracle::new();
        for round in 0..15 {
            for (h, stream) in handles.iter_mut().zip(&streams) {
                h.begin();
                oracle.begin();
                for op in &stream[round] {
                    h.write(base + op.addr, &op.data);
                    oracle.write(base + op.addr, &op.data);
                }
                h.commit();
                oracle.commit();
            }
        }
        assert_eq!(shared.stats().commits, 45);
        (shared.device().capture(CrashPolicy::AllLost), oracle)
    };

    let (mut img, oracle) = run();
    let (again, _) = run();
    assert!(img.as_bytes() == again.as_bytes(), "the same schedule must leave the same image");
    SpecSpmtShared::recover(&mut img);
    oracle.verify(&img).expect("recovered state matches the schedule's oracle");
}

/// Sequential-runtime counterpart of the concurrent watermark test: an
/// explicit `reclaim_now` on an unchanged log is a complete no-op (cached
/// parses reused, zero rewrites), and a churned chain is compacted exactly
/// once per burst.
#[test]
fn seq_reclaim_watermarks_make_idle_cycles_noops() {
    let mut rt = SpecSpmt::new(
        pool(),
        SpecConfig { reclaim_threshold_bytes: usize::MAX, ..SpecConfig::default() },
    );
    let a = rt.pool_mut().alloc_direct(16, 8).unwrap();
    for i in 0..20u64 {
        rt.begin();
        rt.write_u64(a, i);
        rt.commit();
    }

    rt.reclaim_now();
    let s1 = rt.reclaim_stats();
    assert_eq!(s1.cycles, 1);
    assert_eq!(s1.chains_rewritten, 1, "churned chain compacted exactly once");
    assert_eq!(s1.records_dropped, 19);

    rt.reclaim_now();
    let s2 = rt.reclaim_stats();
    assert_eq!(s2.cycles, 2);
    assert_eq!(s2.noop_cycles, s1.noop_cycles + 1, "idle cycle is a no-op");
    assert_eq!(s2.chains_scanned, s1.chains_scanned, "no chain re-parsed while idle");
    assert_eq!(s2.chains_rewritten, 1, "idle chain -> zero rewrites");

    // The compacted log still recovers the youngest committed value.
    let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
    SpecSpmt::recover(&mut img);
    assert_eq!(img.read_u64(a), 19);
}
