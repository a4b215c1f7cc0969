//! `txstat`: per-phase commit-latency breakdown for the sequential and
//! shared SpecSPMT runtimes — the profiling companion to the ROADMAP
//! question "why is the shared-runtime commit ~4x the sequential one?".
//!
//! For the sequential runtime (one chain, one row) and for the shared
//! runtime at each thread count (1, 8, 16) the binary runs a fixed write
//! workload — the commit-cost goldens' transaction shape
//! (`tests/telemetry_accounting.rs`): eight scattered 16-byte updates in
//! a 64 KiB region — with the metrics
//! registry **enabled** and prints one JSON line carrying the per-phase
//! summaries (count / mean / p50 / p90 / p99 / max; a phase's count is its
//! event count) and (for the shared runtime, which runs under strict 2PL
//! with a shared hot address) the lock-table wait histogram. Shared points are emitted
//! twice — per-commit fences (`"group_commit":false`, the comparison
//! baseline) and the epoch/group-commit path (`"group_commit":true`, its
//! batch fences issued by the runtime's drain thread, whose stalls are
//! reported under `daemon` and folded into `commit_sim_amortized_ns_avg`) —
//! each carrying `fences_per_commit` (the device's `sfence_count` over
//! sealed records) and the batch-occupancy summary (`group_batches`,
//! `batch_txs_mean`, `batch_txs_max`) from the `group_batch_size` phase.
//! Commit and abort counts are the runtimes' own (`TxStats`,
//! `SharedStats`).
//!
//! Host time is `benchmark/`'s (`telemetry.on_overhead_pct` there is the
//! telemetry on-cost); this bin reports the simulated clock and counts.
//!
//! `--check` additionally holds the run to the group-commit budget and
//! exits non-zero when it fails (see [`check`]): 16-thread amortized sim
//! cost within 1.5x sequential, at < 1 fence per commit.
//! `scripts/verify.sh` runs `txstat --check` at full scale and requires the
//! group-commit keys on the `"group_commit":true` lines. `--smoke` shrinks
//! every point to a quick pass.

use specpmt_bench::POOL_BYTES;
use specpmt_core::{ConcurrentConfig, LockedTxHandle, SpecConfig, SpecSpmt, SpecSpmtShared};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt_telemetry::{JsonWriter, Phase};
use specpmt_txn::{run_tx, SharedLockTable, TxAccess, TxRuntime};

const WRITES_PER_TX: usize = 8;
const WRITE_BYTES: usize = 16;
const REGION: usize = 64 * 1024;
/// Every Nth shared-runtime transaction also bumps one shared counter, so
/// the strict-2PL wrapper has real stripe contention to measure.
const HOT_EVERY: u64 = 4;

/// One representative transaction: 8 scattered 16-byte updates (the
/// commit-cost goldens' shape).
fn tx_body<A: TxAccess>(a: &mut A, base: usize, round: u64) {
    let mut val = [0u8; WRITE_BYTES];
    for w in 0..WRITES_PER_TX {
        val[..8].copy_from_slice(&(round + w as u64).to_le_bytes());
        val[8..].copy_from_slice(&(round ^ w as u64).to_le_bytes());
        let off = ((round as usize * 131 + w * 509) % (REGION / WRITE_BYTES - 1)) * WRITE_BYTES;
        a.write(base + off, &val);
    }
}

/// Serializes one runtime's telemetry into a self-contained JSON object:
/// the registry's phase histograms (transaction threads only), a `daemon`
/// sub-object attributing the background threads' (reclamation daemon +
/// group-commit drain thread, which share the shard past the last
/// transaction thread) WPQ drains, reclamation cycles and batch occupancies
/// separately, and the lock table's stripe-wait histogram.
///
/// Every observation is attributed exactly once: the main block excludes
/// the daemon's registry shard, so its `phases.wpq_drain` histogram is
/// the transaction threads' drain waits and nothing else (there is no
/// device-wide sibling `wpq_drain` key whose counts could disagree).
fn telemetry_block(shared: &SpecSpmtShared, locks: &SharedLockTable) -> String {
    let reg = &shared.telemetry().registry;
    let daemon_tid = shared.config().threads;
    let mut w = JsonWriter::new();
    w.begin_object();
    reg.emit_excluding(&mut w, &[daemon_tid]);
    w.begin_object_field("daemon");
    w.begin_object_field("phases");
    for (name, phase) in [
        ("wpq_drain", Phase::WpqDrain),
        ("reclaim_cycle", Phase::ReclaimCycle),
        // Batch occupancy: every group-commit drain (and so the occupancy
        // histogram) lands on the drain thread's shard.
        ("group_batch", Phase::GroupBatch),
    ] {
        let snap = reg.phase_in(daemon_tid, phase);
        if snap.count() == 0 {
            continue;
        }
        w.begin_object_field(name);
        snap.emit(&mut w);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.begin_object_field("lock_wait");
    locks.wait_histogram().emit(&mut w);
    w.end_object();
    w.end_object();
    w.finish()
}

/// What [`check`] reads back from one emitted shared-runtime point.
struct Point {
    /// The 16-thread group-commit line: the one the group-commit budget
    /// is stated against.
    group16: bool,
    sim_amortized_ns: f64,
    fences_per_commit: f64,
}

/// Runs the sequential runtime with telemetry enabled, prints its
/// per-phase line and returns its simulated commit cost.
fn seq_point(txs: u64) -> f64 {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_threshold_bytes: usize::MAX, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    rt.telemetry().set_enabled(true);
    for round in 0..txs {
        rt.begin();
        tx_body(&mut rt, base, round);
        rt.commit();
    }
    let tel = rt.telemetry();
    let commit = tel.registry.phase(Phase::Commit);
    let sim = tel.registry.phase(Phase::CommitSim);
    let mut w = JsonWriter::new();
    w.begin_object();
    tel.registry.emit(&mut w);
    w.end_object();
    println!(
        "{{\"bench\":\"txstat\",\"runtime\":\"seq\",\"threads\":1,\
         \"commits\":{},\"commit_ns_avg\":{:.1},\"commit_sim_ns_avg\":{:.1},\
         \"commit_sim_amortized_ns_avg\":{:.1},\
         \"telemetry\":{}}}",
        rt.tx_stats().tx_committed,
        commit.mean(),
        sim.mean(),
        // No drain thread in the sequential runtime: the amortized
        // column equals the plain per-commit simulated cost.
        sim.mean(),
        w.finish()
    );
    sim.mean()
}

/// Interleaved media channels of every shared-runtime point's device.
const MEDIA_CHANNELS: usize = 12;

/// Runs the shared runtime on real OS threads under strict 2PL (disjoint
/// per-thread regions plus one shared hot counter) with telemetry enabled
/// and prints its per-phase line.
fn shared_point(threads: usize, txs_per_thread: u64, group_commit: bool) -> Point {
    let shared = SpecSpmtShared::open_or_format(
        PmemConfig::new(POOL_BYTES).with_media_channels(MEDIA_CHANNELS),
        ConcurrentConfig::builder().threads(threads).group_commit(group_commit).build(),
    );
    let bases: Vec<usize> =
        (0..threads).map(|_| shared.pool().alloc_direct(REGION, 64).unwrap()).collect();
    let hot = shared.pool().alloc_direct(64, 64).unwrap();
    shared.telemetry().set_enabled(true);
    let sfences_before = shared.device().stats().sfence_count;
    let locks = SharedLockTable::new(POOL_BYTES, 64);
    let mut handles = LockedTxHandle::fleet(&shared, &locks, threads);
    std::thread::scope(|s| {
        for (t, h) in handles.iter_mut().enumerate() {
            let base = bases[t];
            s.spawn(move || {
                for round in 0..txs_per_thread {
                    run_tx(h, |tx| {
                        tx_body(tx, base, round);
                        if round % HOT_EVERY == 0 {
                            let v = tx.read_u64(hot);
                            tx.write_u64(hot, v + 1);
                        }
                    });
                }
            });
        }
    });
    let tel = shared.telemetry();
    let commit = tel.registry.phase(Phase::Commit);
    let sim = tel.registry.phase(Phase::CommitSim);
    let stats = shared.stats();
    let (commits, aborts) = (stats.commits, stats.aborts);
    // Every fence the device executed during the run: the committing
    // threads' solo fences, the drain thread's batch drains, and the
    // heap's bump persists when the log takes a new batch of blocks (no
    // reclaimer runs here). This is the fence-amortization headline —
    // group commit drops it below one. The denominator is *sealed records*
    // (commits + aborts): doomed transactions also seal and fence a
    // record, so per-commit normalization would overstate the fence rate
    // on contended runs.
    let fences = shared.device().stats().sfence_count - sfences_before;
    let seals = commits + aborts;
    let fences_per_commit = if seals > 0 { fences as f64 / seals as f64 } else { 0.0 };
    let batch = tel.registry.phase(Phase::GroupBatch);
    // Amortized per-commit device cost: the committing threads' own
    // `commit_sim` charges plus the drain thread's batch-drain stalls
    // (daemon shard `wpq_drain`), divided by commits. With group commit
    // off the second term is zero and this equals `commit_sim_ns_avg`, so
    // the column is comparable across group-off and group-on points — it
    // is the headline for the "shared commit within 1.5x of sequential"
    // target.
    let daemon_drain = tel.registry.phase_in(threads, Phase::WpqDrain);
    let sim_amortized =
        if commits > 0 { (sim.sum + daemon_drain.sum) as f64 / commits as f64 } else { 0.0 };
    println!(
        "{{\"bench\":\"txstat\",\"runtime\":\"shared\",\"mode\":\"point\",\"threads\":{threads},\
         \"group_commit\":{group_commit},\"media_channels\":{MEDIA_CHANNELS},\
         \"commits\":{commits},\"aborts\":{aborts},\"commit_ns_avg\":{:.1},\
         \"commit_sim_ns_avg\":{:.1},\"commit_sim_amortized_ns_avg\":{sim_amortized:.1},\
         \"fences_per_commit\":{fences_per_commit:.3},\
         \"group_commits\":{},\"group_batches\":{},\
         \"batch_txs_mean\":{:.3},\"batch_txs_max\":{},\
         \"flight_recorder\":{},\
         \"telemetry\":{}}}",
        commit.mean(),
        sim.mean(),
        tel.registry.phase(Phase::BatchWait).count(),
        batch.count(),
        batch.mean(),
        batch.max,
        shared.config().flight_recorder,
        telemetry_block(&shared, &locks)
    );
    Point {
        group16: group_commit && threads == 16,
        sim_amortized_ns: sim_amortized,
        fences_per_commit,
    }
}

/// The group-commit budget of a full run, one message per failure: at 16
/// threads with group commit, the amortized simulated commit cost
/// (committer staging plus the drain thread's stalls, per commit) is
/// within 1.5x the sequential runtime's `seq_sim_ns`, at under one fence
/// per commit.
fn check(seq_sim_ns: f64, shared: &[Point]) -> Vec<String> {
    let g16 = shared.iter().find(|p| p.group16).expect("the 16-thread group-commit point ran");
    let mut failures = Vec::new();
    if g16.sim_amortized_ns > 1.5 * seq_sim_ns {
        failures.push(format!(
            "16-thread group-commit amortized sim cost {:.1} ns exceeds 1.5x sequential {:.1} ns",
            g16.sim_amortized_ns, seq_sim_ns
        ));
    }
    if g16.fences_per_commit >= 1.0 {
        failures.push(format!(
            "group commit at 16 threads still fences per commit ({:.3})",
            g16.fences_per_commit
        ));
    }
    failures
}

fn main() {
    let txs = if std::env::args().any(|a| a == "--smoke") { 96 } else { 4000 };
    let seq_sim_ns = seq_point(txs);
    let mut shared = Vec::new();
    for &threads in &[1usize, 8, 16] {
        shared.push(shared_point(threads, txs, false));
        shared.push(shared_point(threads, txs, true));
    }

    if std::env::args().any(|a| a == "--check") {
        let failures = check(seq_sim_ns, &shared);
        for f in &failures {
            eprintln!("txstat --check: FAIL {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("txstat --check: OK ({} points)", shared.len() + 1);
    }
}
