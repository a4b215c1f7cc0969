//! Thread-scaling benchmark for the concurrent SpecSPMT runtime: aggregate
//! commit throughput at 1, 2, 4, and 8 application threads, with and
//! without the background reclamation daemon, plus the live log footprint
//! each configuration ends with.
//!
//! The primary metric is **simulated** throughput: every [`TxHandle`]
//! drives its own core-local timeline (`DeviceHandle::local_now_ns`), so
//! fence stalls of different threads overlap — exactly like independent
//! cores sharing one WPQ — and the result is deterministic regardless of
//! host core count. Host wall-clock is reported alongside for reference.
//!
//! Output is one JSON line per configuration:
//! `{"bench":"scaling","threads":N,"daemon":B,...}`.
//!
//! With `--threads N,M,..` (default 1,2,4,8; any counts in 1..=4096,
//! `PoolLayout::MAX_THREADS`) the bench instead sweeps the STAMP workloads
//! on real OS threads over `LockedTxHandle` fleets and prints per-workload
//! simulated commit throughput as JSON. With `--stripe-bytes A,B,..` it sweeps the shared
//! lock table's stripe size at a fixed thread count and reports lock
//! acquire/conflict counters per point. With `--media-channels A,B,..` it
//! sweeps the device's interleaved-DIMM count at a fixed thread count
//! with the per-commit and group-commit paths side by side (the
//! fence-batching provisioning study); `--app NAME` filters any sweep to
//! a single STAMP workload.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use specpmt_bench::harness::smoke_mode;
use specpmt_bench::{
    apps_arg, media_channels_arg, print_media_sweep, print_mt_scaling, print_stripe_sweep,
    stripe_bytes_arg, threads_arg,
};
use specpmt_core::{ConcurrentConfig, SpecSpmtShared};
use specpmt_pmem::PmemConfig;
use specpmt_stamp::Scale;
use specpmt_telemetry::JsonWriter;
use specpmt_txn::TxAccess;

struct ScalePoint {
    sim_commits_per_ms: f64,
    wall_commits_per_sec: f64,
    log_footprint: usize,
    reclaim_cycles: u64,
    /// Serialized telemetry block: merged counters, commit-phase latency
    /// summaries, and the WPQ drain-wait histogram for the run.
    telemetry_json: String,
}

/// Runs `threads` OS threads, each committing `txs_per_thread` transactions
/// of 4 scattered 8-byte writes into its own region of one shared pool.
/// Simulated elapsed time is the slowest application core's timeline (the
/// reclaim daemon models a dedicated core: its time is excluded, its
/// traffic still contends in the shared WPQ).
fn run_scale(threads: usize, txs_per_thread: u64, daemon: bool) -> ScalePoint {
    // Twelve interleaved DIMMs (the paper's two-socket platform has six per
    // socket) — a single log-appending core must not saturate media
    // bandwidth, or no amount of concurrency could scale; and with eight
    // log streams there must be enough channels that streams rarely shear
    // each other's sequential-write window.
    let shared = SpecSpmtShared::open_or_format(
        PmemConfig::new(64 << 20).with_media_channels(12),
        ConcurrentConfig::builder().threads(threads).reclaim_threshold_bytes(256 * 1024).build(),
    );
    // Host-side metrics never touch the simulated timeline, so enabling
    // them does not move `sim_commits_per_ms`.
    shared.telemetry().set_enabled(true);
    let bases: Vec<usize> =
        (0..threads).map(|_| shared.pool().alloc_direct(64 * 1024, 64).unwrap()).collect();

    let reclaimer = daemon.then(|| shared.spawn_reclaimer(Duration::from_micros(100)));
    // Per-transaction rendezvous: keeps the core-local clocks advancing in
    // lock-step so simulated media contention is computed between
    // *contemporaneous* operations, independent of host scheduling
    // granularity (a single-core host would otherwise run threads in large
    // slices and skew the timelines).
    let round = Barrier::new(threads);
    let t0 = Instant::now();
    let sim_elapsed_per_thread: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = bases
            .iter()
            .enumerate()
            .map(|(t, &base)| {
                let mut h = shared.tx_handle(t);
                let round = &round;
                s.spawn(move || {
                    let start = h.local_now_ns();
                    for i in 0..txs_per_thread {
                        h.begin();
                        for w in 0..4usize {
                            let off = ((i as usize * 131 + w * 257) % 4000) * 8;
                            h.write_u64(base + off, i + w as u64);
                        }
                        h.commit();
                        round.wait();
                    }
                    h.local_now_ns() - start
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).collect()
    });
    let wall = t0.elapsed();
    if let Some(r) = reclaimer {
        r.stop();
    }

    let total = threads as u64 * txs_per_thread;
    let sim_elapsed_ns = *sim_elapsed_per_thread.iter().max().expect("threads >= 1");
    let telemetry_json = {
        let mut w = JsonWriter::new();
        w.begin_object();
        shared.telemetry().registry.emit(&mut w);
        w.begin_object_field("wpq_drain");
        shared.device().wpq_drain_histogram().emit(&mut w);
        w.end_object();
        w.end_object();
        w.finish()
    };
    ScalePoint {
        sim_commits_per_ms: total as f64 / (sim_elapsed_ns as f64 / 1e6),
        wall_commits_per_sec: total as f64 / wall.as_secs_f64(),
        log_footprint: shared.log_footprint(),
        reclaim_cycles: shared.stats().reclaim_cycles,
        telemetry_json,
    }
}

fn main() {
    let scale = if smoke_mode() { Scale::Tiny } else { Scale::Small };
    if let Some(channels) = media_channels_arg() {
        let threads = threads_arg().map_or(8, |counts| counts[0]);
        print_media_sweep("scaling_media", &channels, threads, scale, &apps_arg());
        return;
    }
    if let Some(stripes) = stripe_bytes_arg() {
        let threads = threads_arg().map_or(4, |counts| counts[0]);
        print_stripe_sweep("scaling_stripe", &stripes, threads, scale, &apps_arg());
        return;
    }
    if let Some(counts) = threads_arg() {
        print_mt_scaling("scaling_stamp", &counts, scale, &apps_arg());
        return;
    }
    let txs_per_thread: u64 = if smoke_mode() { 200 } else { 20_000 };
    for daemon in [false, true] {
        let mut prev: Option<f64> = None;
        for threads in [1usize, 2, 4, 8, 16, 32] {
            let p = run_scale(threads, txs_per_thread, daemon);
            let scales = prev.is_none_or(|prev| p.sim_commits_per_ms > prev);
            prev = Some(p.sim_commits_per_ms);
            println!(
                "{{\"bench\":\"scaling\",\"threads\":{threads},\"daemon\":{daemon},\
                 \"txs_per_thread\":{txs_per_thread},\"sim_commits_per_ms\":{:.1},\
                 \"wall_commits_per_sec\":{:.0},\"log_footprint_bytes\":{},\
                 \"reclaim_cycles\":{},\"scales_up\":{scales},\"telemetry\":{}}}",
                p.sim_commits_per_ms,
                p.wall_commits_per_sec,
                p.log_footprint,
                p.reclaim_cycles,
                p.telemetry_json
            );
        }
    }
}
