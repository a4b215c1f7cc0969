//! `txstat`: per-phase commit-latency breakdown for the sequential and
//! shared SpecSPMT runtimes — the profiling companion to the ROADMAP
//! question "why is the shared-runtime commit ~4x the sequential one?".
//!
//! For the sequential runtime (one chain, one row) and for the shared
//! runtime at each thread count (1, 8, 16) the binary runs a fixed write
//! workload — the commit-cost goldens' transaction shape
//! (`tests/telemetry_accounting.rs`): eight scattered 16-byte updates in
//! a 64 KiB region — with the metrics
//! registry **enabled** and prints one JSON line carrying the merged
//! counters, the per-phase latency summaries (count / mean / p50 / p90 /
//! p99 / max), the device's per-channel queue-depth high-water, and (for
//! the shared runtime, which runs under strict 2PL with a shared hot
//! address) the lock-table wait histogram. Shared points are emitted
//! twice — per-commit fences (`"group_commit":false`, the comparison
//! baseline) and the epoch/group-commit path (`"group_commit":true`) —
//! each carrying `fences_per_commit` and the batch-occupancy summary
//! (`group_batches`, `batch_txs_mean`, `batch_txs_max`) from the new
//! `group_batch_size` telemetry.
//!
//! A `"mode":"sweep"` block re-runs the 16-thread group-commit point
//! across media-channel counts (override with `--media-channels A,B,..`)
//! and WPQ depths, quantifying how much fence batching buys as the
//! device's drain bandwidth shrinks.
//!
//! A final summary line reports the telemetry-**off** sequential commit
//! cost (`commit_ns_seq`), the telemetry-on cost, and the on/off overhead
//! ratio.
//!
//! `--check` additionally holds the run to its acceptance assertions and
//! exits non-zero when one fails (see [`check`]): the group-commit budget
//! (16-thread amortized sim cost within 1.5x sequential, < 1 fence per
//! commit) and the live series reconciling exactly with each point's
//! commit count. `scripts/verify.sh` runs `txstat --check` at full scale,
//! and `txstat --group-only` (shared, 8 threads, group commit forced on)
//! as the group-commit smoke.

use std::time::Instant;

use std::sync::atomic::{AtomicBool, Ordering};

use specpmt_bench::{media_channels_arg, telemetry_block, POOL_BYTES};
use specpmt_core::{
    ConcurrentConfig, LockedTxHandle, ReclaimMode, SpecConfig, SpecSpmt, SpecSpmtShared,
};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt_telemetry::{JsonWriter, Metric, Phase, Series};
use specpmt_txn::{run_tx, SharedLockTable, TxAccess};

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

/// Renders a [`Series`] as the `"series":{...}` fragment the point
/// lines splice into their printed JSON objects.
fn series_fragment(series: &Series) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    series.emit_field(&mut w);
    w.end_object();
    let s = w.finish();
    s[1..s.len() - 1].to_string()
}

/// What [`check`] reads back from one emitted point.
struct Point {
    threads: usize,
    /// The `"mode":"point"` 16-thread group-commit line: the one the
    /// group-commit budget is stated against.
    group16: bool,
    commits: u64,
    sim_amortized_ns: f64,
    fences_per_commit: f64,
    series: Series,
}

/// Runs the sequential runtime with telemetry enabled and prints its
/// per-phase line.
fn seq_point(txs: u64) -> Point {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    rt.telemetry().set_enabled(true);
    // Live export: one interval snapshot every eighth of the run
    // (deterministic in rounds — the single-threaded point needs no
    // sampler thread).
    let mut series = Series::new();
    let sample_every = (txs / 8).max(1);
    let t0 = Instant::now();
    for round in 0..txs {
        rt.begin();
        tx_body(&mut rt, base, round);
        rt.commit();
        if (round + 1) % sample_every == 0 {
            let delta = rt.telemetry().registry.snapshot_delta();
            series.push(t0.elapsed().as_nanos() as u64, delta);
        }
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
         \"commit_sim_amortized_ns_avg\":{:.1},{},\
         \"telemetry\":{}}}",
        tel.registry.counter(Metric::Commits),
        commit.mean(),
        sim.mean(),
        // No combiner daemon in the sequential runtime: the amortized
        // column equals the plain per-commit simulated cost.
        sim.mean(),
        series_fragment(&series),
        w.finish()
    );
    Point {
        threads: 1,
        group16: false,
        commits: tel.registry.counter(Metric::Commits),
        sim_amortized_ns: sim.mean(),
        fences_per_commit: 1.0,
        series,
    }
}

/// Group-commit batch window. Zero: with the dedicated combiner daemon
/// draining every batch, batches form naturally from whatever staged
/// while the daemon was busy with the previous drain — an artificial
/// linger only adds commit latency (and on an oversubscribed host it
/// stacks with daemon wake latency, starving lock holders and causing
/// retry storms).
const LINGER_NS: u64 = 0;

/// Knobs for one shared-runtime point.
struct SharedOpts {
    threads: usize,
    txs_per_thread: u64,
    group_commit: bool,
    media_channels: usize,
    wpq_entries: usize,
    /// `"point"` for the main 1/8/16 breakdown, `"sweep"` for the
    /// media-provisioning sweep lines.
    mode: &'static str,
}

impl SharedOpts {
    fn linger_ns(&self) -> u64 {
        if self.group_commit && self.threads > 1 {
            LINGER_NS
        } else {
            0
        }
    }
}

/// Runs the shared runtime on real OS threads under strict 2PL (disjoint
/// per-thread regions plus one shared hot counter) with telemetry enabled
/// and prints its per-phase line.
fn shared_point(opts: &SharedOpts) -> Point {
    let threads = opts.threads;
    let shared = SpecSpmtShared::open_or_format(
        PmemConfig::new(POOL_BYTES)
            .with_media_channels(opts.media_channels)
            .with_wpq_entries(opts.wpq_entries),
        ConcurrentConfig::builder()
            .threads(threads)
            .group_commit(opts.group_commit)
            .group_linger_ns(opts.linger_ns())
            .build(),
    );
    let bases: Vec<usize> =
        (0..threads).map(|_| shared.pool().alloc_direct(REGION, 64).unwrap()).collect();
    let hot = shared.pool().alloc_direct(64, 64).unwrap();
    shared.telemetry().set_enabled(true);
    let locks = SharedLockTable::new(POOL_BYTES, 64);
    let mut handles = LockedTxHandle::fleet(&shared, &locks, threads);
    // Group mode runs with the dedicated combiner daemon: batch drains
    // (and their WPQ stalls) land on the daemon's telemetry shard, so
    // `commit_sim_ns_avg` isolates what the committing threads pay.
    let combiner = opts
        .group_commit
        .then(|| shared.spawn_group_combiner(std::time::Duration::from_micros(100)));
    let txs_per_thread = opts.txs_per_thread;
    // Live export: a sampler thread pushes registry delta snapshots at a
    // fixed cadence while the workers run, plus one final point covering
    // the tail interval.
    let registry = &shared.telemetry().registry;
    let done = AtomicBool::new(false);
    let series = std::thread::scope(|s| {
        let workers: Vec<_> = handles
            .iter_mut()
            .enumerate()
            .map(|(t, h)| {
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
                })
            })
            .collect();
        let done = &done;
        let sampler = s.spawn(move || {
            let mut series = Series::new();
            let t0 = Instant::now();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(5));
                series.push(t0.elapsed().as_nanos() as u64, registry.snapshot_delta());
            }
            series.push(t0.elapsed().as_nanos() as u64, registry.snapshot_delta());
            series
        });
        for wkr in workers {
            wkr.join().expect("worker thread");
        }
        done.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread")
    });
    drop(combiner);
    let tel = shared.telemetry();
    let commit = tel.registry.phase(Phase::Commit);
    let sim = tel.registry.phase(Phase::CommitSim);
    let commits = tel.registry.counter(Metric::Commits);
    let aborts = shared.stats().aborts;
    // Device-wide commit fences: the committing threads' solo fences plus
    // the combiner daemon's batch-drain fences (its shard also holds the
    // reclaimer's splice fences, but no reclaimer runs here). This is the
    // fence-amortization headline — group commit drops it below one. The
    // denominator is *sealed records* (commits + aborts): doomed
    // transactions also seal and fence a record, so per-commit
    // normalization would overstate the fence rate on contended runs.
    let fences: u64 = (0..=threads).map(|t| tel.registry.counter_in(t, Metric::Fences)).sum();
    let seals = commits + aborts;
    let fences_per_commit = if seals > 0 { fences as f64 / seals as f64 } else { 0.0 };
    let batch = tel.registry.phase(Phase::GroupBatch);
    // Amortized per-commit device cost: the committing threads' own
    // `commit_sim` charges plus the combiner daemon's batch-drain stalls
    // (daemon shard `wpq_drain`), divided by commits. Without a daemon
    // the second term is zero and this equals `commit_sim_ns_avg`, so the
    // column is comparable across group-off, flat-combining, and
    // daemon-combining points — it is the headline for the "shared
    // commit within 1.5x of sequential" target.
    let daemon_drain = tel.registry.phase_in(threads, Phase::WpqDrain);
    let sim_amortized =
        if commits > 0 { (sim.sum + daemon_drain.sum) as f64 / commits as f64 } else { 0.0 };
    println!(
        "{{\"bench\":\"txstat\",\"runtime\":\"shared\",\"mode\":\"{}\",\"threads\":{threads},\
         \"group_commit\":{},\"group_linger_ns\":{},\"media_channels\":{},\"wpq_entries\":{},\
         \"commits\":{commits},\"aborts\":{aborts},\"retries\":{},\"commit_ns_avg\":{:.1},\
         \"commit_sim_ns_avg\":{:.1},\"commit_sim_amortized_ns_avg\":{sim_amortized:.1},\
         \"fences_per_commit\":{fences_per_commit:.3},\
         \"group_commits\":{},\"group_batches\":{},\
         \"batch_txs_mean\":{:.3},\"batch_txs_max\":{},\
         \"flight_recorder\":{},{},\
         \"telemetry\":{}}}",
        opts.mode,
        opts.group_commit,
        opts.linger_ns(),
        opts.media_channels,
        opts.wpq_entries,
        tel.registry.counter(Metric::Retries),
        commit.mean(),
        sim.mean(),
        tel.registry.counter(Metric::GroupCommits),
        tel.registry.counter(Metric::GroupBatches),
        batch.mean(),
        batch.max,
        shared.config().flight_recorder,
        series_fragment(&series),
        telemetry_block(&shared, &locks)
    );
    Point {
        threads,
        group16: opts.group_commit && threads == 16 && opts.mode == "point",
        commits,
        sim_amortized_ns: sim_amortized,
        fences_per_commit,
        series,
    }
}

/// The acceptance assertions of a full run, one message per failure.
///
/// * **Group commit pays off.** At 16 threads with the combiner daemon,
///   the amortized simulated commit cost (committer staging plus the
///   daemon's drain stalls, per commit) is within 1.5x the sequential
///   runtime's, at under one fence per commit.
/// * **The live series is lossless.** Every point sampled at least one
///   interval, timestamps are monotone, and the summed commit deltas
///   equal the cumulative commit count the same line reports — the
///   sampler neither drops nor double-counts an interval.
fn check(seq: &Point, shared: &[Point]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, msg: String| {
        if !ok {
            failures.push(msg);
        }
    };
    let g16 = shared.iter().find(|p| p.group16).expect("the 16-thread group-commit point ran");
    require(
        g16.sim_amortized_ns <= 1.5 * seq.sim_amortized_ns,
        format!(
            "16-thread group-commit amortized sim cost {:.1} ns exceeds 1.5x sequential {:.1} ns",
            g16.sim_amortized_ns, seq.sim_amortized_ns
        ),
    );
    require(
        g16.fences_per_commit < 1.0,
        format!(
            "group commit at 16 threads still fences per commit ({:.3})",
            g16.fences_per_commit
        ),
    );
    for p in std::iter::once(seq).chain(shared) {
        let at: Vec<u64> = p.series.points().iter().map(|pt| pt.at_ns).collect();
        require(
            !at.is_empty() && at.windows(2).all(|w| w[0] <= w[1]),
            format!("{}-thread series: {} points, timestamps {at:?}", p.threads, at.len()),
        );
        let delta_sum = p.series.total(Metric::Commits);
        require(
            delta_sum == p.commits,
            format!(
                "{}-thread series commit deltas sum to {delta_sum}, the line reports {}",
                p.threads, p.commits
            ),
        );
    }
    failures
}

/// Host nanoseconds per committed sequential transaction with the given
/// telemetry state.
fn seq_commit_ns(telemetry_on: bool, warmup: u64, measured: u64) -> f64 {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    rt.telemetry().set_enabled(telemetry_on);
    let mut round = 0u64;
    for _ in 0..warmup {
        rt.begin();
        tx_body(&mut rt, base, round);
        rt.commit();
        round += 1;
    }
    let t0 = Instant::now();
    for _ in 0..measured {
        rt.begin();
        tx_body(&mut rt, base, round);
        rt.commit();
        round += 1;
    }
    t0.elapsed().as_nanos() as f64 / measured as f64
}

fn main() {
    let smoke = specpmt_bench::harness::smoke_mode();
    let (txs, warmup, measured) = if smoke { (96, 64, 192) } else { (4000, 512, 4096) };
    let point = |threads: usize, group_commit: bool| SharedOpts {
        threads,
        txs_per_thread: txs,
        group_commit,
        media_channels: 12,
        wpq_entries: 8,
        mode: "point",
    };

    if std::env::args().any(|a| a == "--group-only") {
        // verify.sh group-commit smoke: one shared point, group commit
        // forced on, 8 threads.
        shared_point(&point(8, true));
        return;
    }

    let seq = seq_point(txs);
    let mut shared = Vec::new();
    for &threads in &[1usize, 8, 16] {
        shared.push(shared_point(&point(threads, false)));
        shared.push(shared_point(&point(threads, true)));
    }

    // Media-provisioning sweep: the 16-thread group-commit point across
    // channel counts (drain bandwidth) and WPQ depths (queue headroom).
    // Fewer transactions per point — the sweep reads trends, not tails.
    let sweep_txs = (txs / 4).max(64);
    let channels = media_channels_arg().unwrap_or_else(|| vec![1, 4, 12]);
    for &ch in &channels {
        shared.push(shared_point(&SharedOpts {
            threads: 16,
            txs_per_thread: sweep_txs,
            group_commit: true,
            media_channels: ch,
            wpq_entries: 8,
            mode: "sweep",
        }));
    }
    for &wpq in &[4usize, 16] {
        shared.push(shared_point(&SharedOpts {
            threads: 16,
            txs_per_thread: sweep_txs,
            group_commit: true,
            media_channels: 12,
            wpq_entries: wpq,
            mode: "sweep",
        }));
    }

    // Telemetry-off vs -on sequential commit cost. Median of three
    // passes each, interleaved, so transient host noise does not land on
    // one side only.
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    for _ in 0..3 {
        offs.push(seq_commit_ns(false, warmup, measured));
        ons.push(seq_commit_ns(true, warmup, measured));
    }
    let off_ns = median(offs);
    let on_ns = median(ons);
    let overhead_pct = (on_ns / off_ns - 1.0) * 100.0;
    println!(
        "{{\"bench\":\"txstat\",\"writes_per_tx\":{WRITES_PER_TX},\
         \"write_bytes\":{WRITE_BYTES},\"commit_ns_seq\":{off_ns:.1},\
         \"commit_ns_seq_telemetry\":{on_ns:.1},\
         \"telemetry_overhead_pct\":{overhead_pct:.2}}}"
    );

    if std::env::args().any(|a| a == "--check") {
        let failures = check(&seq, &shared);
        for f in &failures {
            eprintln!("txstat --check: FAIL {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("txstat --check: OK ({} points)", shared.len() + 1);
    }
}
