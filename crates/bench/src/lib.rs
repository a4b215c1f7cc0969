//! Shared experiment harness: runtime factories, suite runners, and table
//! formatting used by the per-figure binaries and the wall-clock benches
//! (see [`harness`] -- the workspace is zero-dependency, so there is no
//! criterion).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use specpmt_baselines::{
    KaminoConfig, KaminoTx, NoLog, NoLogConfig, PmdkConfig, PmdkUndo, Spht, SphtConfig,
};
use specpmt_core::{HashLogConfig, HashLogSpmt, ReclaimMode, ReclaimStats, SpecConfig, SpecSpmt};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};
use specpmt_stamp::{run_app, AppRun, Scale, StampApp};
use specpmt_txn::RunReport;

/// Pool size used by the experiment harnesses.
pub const POOL_BYTES: usize = 64 << 20;

/// The software runtimes of the paper's Figure 12 (plus extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwRuntime {
    /// Intel PMDK-style undo logging (the baseline).
    Pmdk,
    /// Kamino-Tx upper bound.
    Kamino,
    /// SPHT redo logging with background replay.
    Spht,
    /// SpecSPMT-DP (speculative logging + enforced data persistence).
    SpecDp,
    /// SpecSPMT (the full design).
    Spec,
    /// SpecSPMT with inline (foreground) reclamation — ablation.
    SpecInline,
    /// No persistent transactions at all (Figure 1's reference).
    NoTx,
    /// The hash-table log strawman (Section 4 micro-experiment).
    HashLog,
}

impl SwRuntime {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            SwRuntime::Pmdk => "PMDK",
            SwRuntime::Kamino => "Kamino-Tx",
            SwRuntime::Spht => "SPHT",
            SwRuntime::SpecDp => "SpecSPMT-DP",
            SwRuntime::Spec => "SpecSPMT",
            SwRuntime::SpecInline => "SpecSPMT-inline",
            SwRuntime::NoTx => "no-tx",
            SwRuntime::HashLog => "HashLog-SPMT",
        }
    }
}

fn fresh_pool() -> PmemPool {
    PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)))
}

/// Runs one app on one software runtime (fresh pool each run).
///
/// # Panics
///
/// Panics if the workload fails verification — an experiment on an
/// incorrect runtime would be meaningless.
pub fn run_sw(rt: SwRuntime, app: StampApp, scale: Scale) -> AppRun {
    let run = match rt {
        SwRuntime::Pmdk => {
            run_app(app, &mut PmdkUndo::new(fresh_pool(), PmdkConfig::default()), scale)
        }
        SwRuntime::Kamino => {
            run_app(app, &mut KaminoTx::new(fresh_pool(), KaminoConfig::default()), scale)
        }
        SwRuntime::Spht => run_app(app, &mut Spht::new(fresh_pool(), SphtConfig::default()), scale),
        SwRuntime::SpecDp => {
            run_app(app, &mut SpecSpmt::new(fresh_pool(), SpecConfig::default().dp()), scale)
        }
        SwRuntime::Spec => {
            run_app(app, &mut SpecSpmt::new(fresh_pool(), SpecConfig::default()), scale)
        }
        SwRuntime::SpecInline => run_app(
            app,
            &mut SpecSpmt::new(
                fresh_pool(),
                SpecConfig { reclaim_mode: ReclaimMode::Inline, ..SpecConfig::default() },
            ),
            scale,
        ),
        SwRuntime::NoTx => {
            run_app(app, &mut NoLog::new(fresh_pool(), NoLogConfig::default()), scale)
        }
        SwRuntime::HashLog => run_app(
            app,
            &mut HashLogSpmt::new(fresh_pool(), HashLogConfig { capacity: 1 << 18 }),
            scale,
        ),
    };
    assert!(
        run.verified.is_ok(),
        "{} on {} failed verification: {:?}",
        app.name(),
        rt.label(),
        run.verified
    );
    run
}

/// Runs every app on every listed runtime; returns reports indexed
/// `[app][runtime]` in the given orders.
pub fn run_sw_suite(runtimes: &[SwRuntime], scale: Scale) -> Vec<Vec<RunReport>> {
    StampApp::all()
        .iter()
        .map(|&app| runtimes.iter().map(|&rt| run_sw(rt, app, scale).report).collect())
        .collect()
}

/// Prints a table: rows = apps (+ geomean), columns = `headers`.
pub fn print_table(title: &str, headers: &[&str], rows: &[(String, Vec<f64>)], unit: &str) {
    println!("\n## {title}");
    print!("{:<14}", "app");
    for h in headers {
        print!(" {h:>15}");
    }
    println!();
    for (name, values) in rows {
        print!("{name:<14}");
        for v in values {
            print!(" {v:>14.2}{unit}");
        }
        println!();
    }
}

/// Appends a geometric-mean row across the app rows.
pub fn with_geomean(mut rows: Vec<(String, Vec<f64>)>) -> Vec<(String, Vec<f64>)> {
    if rows.is_empty() {
        return rows;
    }
    let cols = rows[0].1.len();
    let geo: Vec<f64> =
        (0..cols).map(|c| specpmt_txn::geomean(rows.iter().map(|(_, v)| v[c]))).collect();
    rows.push(("geomean".to_string(), geo));
    rows
}

use specpmt_hwtx::{hw_pool, Ede, EdeConfig, Hoop, HoopConfig, HwNoLog, HwSpecConfig, HwSpecPmt};

/// The hardware runtimes of Figures 13–15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwRuntime {
    /// EDE (the hardware baseline).
    Ede,
    /// HOOP out-of-place updates.
    Hoop,
    /// SpecHPMT-DP (data persistence at commit).
    SpecDp,
    /// SpecHPMT (the full hardware design).
    Spec,
    /// No-log ideal bound.
    NoLog,
}

impl HwRuntime {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            HwRuntime::Ede => "EDE",
            HwRuntime::Hoop => "HOOP",
            HwRuntime::SpecDp => "SpecHPMT-DP",
            HwRuntime::Spec => "SpecHPMT",
            HwRuntime::NoLog => "no-log",
        }
    }
}

/// Runs one app on one hardware runtime with the given epoch thresholds
/// for SpecHPMT (ignored by the others). Returns the run plus the average
/// log footprint (Fig. 15's memory-consumption axis) where applicable.
///
/// # Panics
///
/// Panics if the workload fails verification.
pub fn run_hw_with(
    rt: HwRuntime,
    app: StampApp,
    scale: Scale,
    spec_cfg: HwSpecConfig,
) -> (AppRun, f64) {
    let pool = hw_pool(POOL_BYTES);
    let (run, avg_footprint) = match rt {
        HwRuntime::Ede => (run_app(app, &mut Ede::new(pool, EdeConfig::default()), scale), 0.0),
        HwRuntime::Hoop => (run_app(app, &mut Hoop::new(pool, HoopConfig::default()), scale), 0.0),
        HwRuntime::SpecDp => {
            let mut r = HwSpecPmt::new(pool, spec_cfg.dp());
            let run = run_app(app, &mut r, scale);
            (run, r.avg_log_footprint())
        }
        HwRuntime::Spec => {
            let mut r = HwSpecPmt::new(pool, spec_cfg);
            let run = run_app(app, &mut r, scale);
            (run, r.avg_log_footprint())
        }
        HwRuntime::NoLog => {
            (run_app(app, &mut HwNoLog::new(pool, specpmt_hwsim::HwConfig::default()), scale), 0.0)
        }
    };
    assert!(
        run.verified.is_ok(),
        "{} on {} failed verification: {:?}",
        app.name(),
        rt.label(),
        run.verified
    );
    (run, avg_footprint)
}

/// Runs one app on one hardware runtime with default parameters.
pub fn run_hw(rt: HwRuntime, app: StampApp, scale: Scale) -> AppRun {
    run_hw_with(rt, app, scale, HwSpecConfig::default()).0
}

/// Runs every app on every listed hardware runtime.
pub fn run_hw_suite(runtimes: &[HwRuntime], scale: Scale) -> Vec<Vec<RunReport>> {
    StampApp::all()
        .iter()
        .map(|&app| runtimes.iter().map(|&rt| run_hw(rt, app, scale).report).collect())
        .collect()
}

// --- multi-threaded (real OS threads) SpecSPMT mode ------------------------

use specpmt_core::{ConcurrentConfig, LockedTxHandle, PoolLayout, SpecSpmtShared};

use specpmt_stamp::{run_app_mt, MtAppRun};
use specpmt_telemetry::JsonWriter;
use specpmt_txn::{LockTableStats, SharedLockTable};

/// Knobs for one multi-threaded SpecSPMT run. The media provisioning is
/// deliberately **constant** across thread counts (twelve interleaved
/// DIMMs, the `scaling` bench's setup) so throughput differences measure
/// the runtime, not a moving hardware budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtRunConfig {
    /// Interleaved media channels (DIMMs) on the simulated device.
    pub media_channels: usize,
    /// [`SharedLockTable`] stripe size in bytes (power of two).
    pub stripe_bytes: usize,
    /// Enable the runtime's metrics registry for the run (counters +
    /// commit-phase histograms). Host-side instrumentation never perturbs
    /// the *simulated* timeline, so enabling it does not move
    /// `commits_per_ms`.
    pub telemetry: bool,
    /// Route commits through the epoch/group-commit path
    /// ([`ConcurrentConfig::group_commit`]) instead of a per-commit
    /// flush + fence. Off by default so the per-commit path stays the
    /// comparison baseline.
    pub group_commit: bool,
}

impl Default for MtRunConfig {
    fn default() -> Self {
        Self { media_channels: 12, stripe_bytes: 64, telemetry: false, group_commit: false }
    }
}

/// One multi-threaded run plus the contention counters the stripe study
/// reports: runtime aborts (doomed transactions retried by the 2PL
/// wrapper) and lock-table acquire/conflict totals.
#[derive(Debug)]
pub struct MtSweepPoint {
    /// The workload run (report + verification result).
    pub run: MtAppRun,
    /// Transactions aborted and retried (from [`specpmt_core::SharedStats`]).
    pub aborts: u64,
    /// Lock-table acquire/conflict counters for the run.
    pub lock_stats: LockTableStats,
    /// Reclamation observability counters after one end-of-run compaction
    /// cycle (these runs have no background daemon, so the final cycle is
    /// what quantifies how much of the workload's log was stale).
    pub reclaim: ReclaimStats,
    /// Serialized telemetry block (one JSON object): merged counters and
    /// per-phase latency summaries from the runtime's registry, plus the
    /// device's WPQ drain-wait histogram and the lock table's wait
    /// histogram. All-zero unless the run had telemetry enabled
    /// ([`MtRunConfig::telemetry`]).
    pub telemetry_json: String,
}

/// Serializes one runtime's telemetry into a self-contained JSON object:
/// the registry's counters and phase histograms (transaction threads
/// only), a `daemon` sub-object attributing the background threads'
/// (reclamation daemon + group-commit combiner, which share the shard
/// past the last transaction thread) fences, WPQ drains, and batch
/// occupancies separately, the device's per-channel queue-depth
/// high-water, and the lock table's stripe-wait histogram.
///
/// Every observation is attributed exactly once: the main block excludes
/// the daemon's registry shard, so its `phases.wpq_drain` histogram is
/// the transaction threads' drain waits and nothing else (there is no
/// device-wide sibling `wpq_drain` key whose counts could disagree).
pub fn telemetry_block(shared: &SpecSpmtShared, locks: &SharedLockTable) -> String {
    use specpmt_telemetry::{Metric, Phase};
    let reg = &shared.telemetry().registry;
    let daemon_tid = shared.config().threads;
    let mut w = JsonWriter::new();
    w.begin_object();
    reg.emit_excluding(&mut w, &[daemon_tid]);
    w.begin_object_field("daemon");
    w.begin_object_field("counters");
    w.field_u64("fences", reg.counter_in(daemon_tid, Metric::Fences));
    w.field_u64("wpq_drains", reg.counter_in(daemon_tid, Metric::WpqDrains));
    w.field_u64("reclaim_cycles", reg.counter_in(daemon_tid, Metric::ReclaimCycles));
    w.field_u64("group_batches", reg.counter_in(daemon_tid, Metric::GroupBatches));
    w.end_object();
    w.begin_object_field("phases");
    for (name, phase) in [
        ("wpq_drain", Phase::WpqDrain),
        ("reclaim_cycle", Phase::ReclaimCycle),
        // Batch occupancy: with the combiner daemon attached, every
        // group-commit drain (and so the occupancy histogram) lands on
        // the daemon's shard.
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
    w.begin_array_field("wpq_depth_high_water");
    for d in shared.device().wpq_depth_high_water() {
        w.value_u64(d);
    }
    w.end_array();
    w.begin_object_field("lock_wait");
    locks.wait_histogram().emit(&mut w);
    w.end_object();
    w.end_object();
    w.finish()
}

/// Runs `app` on `threads` real OS threads over the concurrent SpecSPMT
/// runtime, with strict-2PL concurrency control supplied by
/// [`LockedTxHandle`] (fresh shared pool and lock table each run).
///
/// # Panics
///
/// Panics if the workload fails invariant verification.
pub fn run_spec_mt(app: StampApp, threads: usize, scale: Scale) -> MtAppRun {
    run_spec_mt_cfg(app, threads, scale, MtRunConfig::default()).run
}

/// [`run_spec_mt`] with explicit [`MtRunConfig`] knobs; returns the run
/// plus abort/conflict counters for the contention study.
///
/// # Panics
///
/// Panics if the workload fails invariant verification.
pub fn run_spec_mt_cfg(
    app: StampApp,
    threads: usize,
    scale: Scale,
    cfg: MtRunConfig,
) -> MtSweepPoint {
    let shared = SpecSpmtShared::open_or_format(
        PmemConfig::new(POOL_BYTES).with_media_channels(cfg.media_channels),
        ConcurrentConfig::builder().threads(threads).group_commit(cfg.group_commit).build(),
    );
    if cfg.telemetry {
        shared.telemetry().set_enabled(true);
    }
    let locks = SharedLockTable::new(POOL_BYTES, cfg.stripe_bytes);
    let mut handles = LockedTxHandle::fleet(&shared, &locks, threads);
    // Group commit runs with the dedicated combiner daemon so drain
    // stalls land on the daemon's telemetry shard, not the committers'.
    let combiner = cfg
        .group_commit
        .then(|| shared.spawn_group_combiner(std::time::Duration::from_micros(100)));
    let run = run_app_mt(app, &mut handles, scale);
    drop(combiner);
    assert!(
        run.verified.is_ok(),
        "{} on SpecSPMT x{threads} failed verification: {:?}",
        app.name(),
        run.verified
    );
    // One explicit reclamation cycle after the run: the sweep points carry
    // reclaim observability (chains skipped via watermark, entries
    // dropped, bytes compacted) without a daemon racing the measurement.
    shared.reclaim_cycle();
    let telemetry_json = telemetry_block(&shared, &locks);
    MtSweepPoint {
        run,
        aborts: shared.stats().aborts,
        lock_stats: locks.stats(),
        reclaim: shared.reclaim_stats(),
        telemetry_json,
    }
}

fn usage_bail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses a `--threads` flag from the process arguments: `--threads`
/// alone selects the paper's 1/2/4/8 sweep, `--threads 1,2,4,8,16,32`
/// selects an explicit list. Returns `None` when the flag is absent
/// (single-threaded figure mode).
///
/// Counts are validated against [`PoolLayout::MAX_THREADS`]; a malformed
/// or out-of-range list exits with a clear error instead of panicking
/// deep inside the runtime.
pub fn threads_arg() -> Option<Vec<usize>> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--threads")?;
    let counts: Vec<usize> = match args.get(at + 1) {
        Some(list) if !list.starts_with('-') => list
            .split(',')
            .map(|s| {
                s.trim().parse::<usize>().unwrap_or_else(|_| {
                    usage_bail(&format!(
                        "--threads takes a comma-separated list of counts, got {s:?}"
                    ))
                })
            })
            .collect(),
        _ => vec![1, 2, 4, 8],
    };
    for &t in &counts {
        if !(1..=PoolLayout::MAX_THREADS).contains(&t) {
            usage_bail(&format!(
                "--threads {t} out of range: thread counts must be 1..={}",
                PoolLayout::MAX_THREADS
            ));
        }
    }
    Some(counts)
}

/// Smallest stripe size [`stripe_bytes_arg`] accepts: one cache line
/// (finer stripes cannot reduce false sharing any further and explode the
/// lock-table size).
pub const MIN_STRIPE_BYTES: usize = 64;

/// Parses a `--stripe-bytes A[,B,..]` flag (lock-table stripe sizes for
/// the contention study). Returns `None` when absent. Sizes are validated
/// up front — each must be a power of two within
/// [`MIN_STRIPE_BYTES`]`..=`[`POOL_BYTES`] — so a typo exits with a clear
/// usage error before any benchmark state is built, instead of panicking
/// (or silently degenerating to a one-lock table) deep inside the sweep.
pub fn stripe_bytes_arg() -> Option<Vec<usize>> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--stripe-bytes")?;
    let Some(list) = args.get(at + 1).filter(|a| !a.starts_with('-')) else {
        usage_bail("--stripe-bytes requires a comma-separated list of sizes (e.g. 64,256)");
    };
    let sizes: Vec<usize> = list
        .split(',')
        .map(|s| {
            s.trim().parse::<usize>().unwrap_or_else(|_| {
                usage_bail(&format!("--stripe-bytes takes a comma-separated list, got {s:?}"))
            })
        })
        .collect();
    if sizes.is_empty() {
        usage_bail("--stripe-bytes requires at least one size");
    }
    for &b in &sizes {
        if !b.is_power_of_two() {
            usage_bail(&format!("--stripe-bytes {b} invalid: sizes must be powers of two"));
        }
        if !(MIN_STRIPE_BYTES..=POOL_BYTES).contains(&b) {
            usage_bail(&format!(
                "--stripe-bytes {b} out of range: sizes must be {MIN_STRIPE_BYTES}..={POOL_BYTES}"
            ));
        }
    }
    Some(sizes)
}

/// Parses a `--media-channels A[,B,..]` flag (interleaved-DIMM counts for
/// the WPQ-depth / fence-batching sweep). Returns `None` when absent.
/// Counts are validated non-zero up front so a typo exits with a usage
/// error instead of panicking inside the device constructor.
pub fn media_channels_arg() -> Option<Vec<usize>> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--media-channels")?;
    let Some(list) = args.get(at + 1).filter(|a| !a.starts_with('-')) else {
        usage_bail("--media-channels requires a comma-separated list of counts (e.g. 1,4,12)");
    };
    let counts: Vec<usize> = list
        .split(',')
        .map(|s| {
            s.trim().parse::<usize>().unwrap_or_else(|_| {
                usage_bail(&format!("--media-channels takes a comma-separated list, got {s:?}"))
            })
        })
        .collect();
    if counts.is_empty() {
        usage_bail("--media-channels requires at least one count");
    }
    for &c in &counts {
        if c == 0 {
            usage_bail("--media-channels 0 invalid: a device needs at least one channel");
        }
    }
    Some(counts)
}

/// Parses an `--app NAME` filter. Returns the full STAMP suite when
/// absent; an unknown name exits with the list of valid names.
pub fn apps_arg() -> Vec<StampApp> {
    let args: Vec<String> = std::env::args().collect();
    let Some(at) = args.iter().position(|a| a == "--app") else {
        return StampApp::all().to_vec();
    };
    let Some(name) = args.get(at + 1).filter(|a| !a.starts_with('-')) else {
        usage_bail("--app requires a workload name (e.g. intruder)");
    };
    match StampApp::all().iter().find(|a| a.name() == name) {
        Some(&app) => vec![app],
        None => {
            let names: Vec<&str> = StampApp::all().iter().map(|a| a.name()).collect();
            usage_bail(&format!("unknown app {name:?}; expected one of {}", names.join(", ")));
        }
    }
}

/// Runs each listed app at each thread count and prints one JSON line per
/// (app, threads) pair:
/// `{"bench":NAME,"mode":"mt","app":...,"threads":N,...}`. Each line also
/// carries the abort count and whether throughput improved on the
/// previous thread count for the same app (`"scales_up"`).
pub fn print_mt_scaling(bench: &str, thread_counts: &[usize], scale: Scale, apps: &[StampApp]) {
    for &app in apps {
        let mut prev: Option<f64> = None;
        for &threads in thread_counts {
            let cfg = MtRunConfig { telemetry: true, ..MtRunConfig::default() };
            let point = run_spec_mt_cfg(app, threads, scale, cfg);
            let r = &point.run.report;
            let scales = prev.is_none_or(|p| r.commits_per_ms > p);
            prev = Some(r.commits_per_ms);
            let rc = point.reclaim;
            println!(
                "{{\"bench\":\"{bench}\",\"mode\":\"mt\",\"runtime\":\"SpecSPMT\",\
                 \"app\":\"{}\",\"threads\":{},\"commits\":{},\"aborts\":{},\"sim_ns\":{},\
                 \"commits_per_ms\":{:.1},\"scales_up\":{scales},\
                 \"reclaim_cycles\":{},\"reclaim_chains_skipped\":{},\
                 \"reclaim_rewrites_skipped\":{},\"reclaim_entries_dropped\":{},\
                 \"reclaim_bytes\":{},\"reclaim_last_cycle_ns\":{},\
                 \"telemetry\":{}}}",
                r.workload,
                r.threads,
                r.commits,
                point.aborts,
                r.sim_ns,
                r.commits_per_ms,
                rc.cycles,
                rc.chains_skipped,
                rc.rewrites_skipped,
                rc.records_dropped,
                rc.bytes_reclaimed,
                rc.last_cycle_ns,
                point.telemetry_json
            );
        }
    }
}

/// Media-provisioning sweep for the group-commit study: runs each listed
/// app at a fixed thread count across interleaved-DIMM counts, with the
/// per-commit and group-commit paths side by side, and prints one JSON
/// line per (app, channels, commit-path) triple. The telemetry block
/// carries the batch-occupancy histogram (`group_batch`) and the combiner
/// daemon's fence/drain attribution, so the sweep quantifies how much
/// fence batching compensates for scarce media channels.
pub fn print_media_sweep(
    bench: &str,
    channels: &[usize],
    threads: usize,
    scale: Scale,
    apps: &[StampApp],
) {
    for &app in apps {
        for &media_channels in channels {
            for group_commit in [false, true] {
                let cfg = MtRunConfig {
                    media_channels,
                    group_commit,
                    telemetry: true,
                    ..MtRunConfig::default()
                };
                let point = run_spec_mt_cfg(app, threads, scale, cfg);
                let r = &point.run.report;
                println!(
                    "{{\"bench\":\"{bench}\",\"mode\":\"media\",\"runtime\":\"SpecSPMT\",\
                     \"app\":\"{}\",\"threads\":{},\"media_channels\":{media_channels},\
                     \"group_commit\":{group_commit},\"commits\":{},\"aborts\":{},\
                     \"sim_ns\":{},\"commits_per_ms\":{:.1},\"telemetry\":{}}}",
                    r.workload,
                    r.threads,
                    r.commits,
                    point.aborts,
                    r.sim_ns,
                    r.commits_per_ms,
                    point.telemetry_json
                );
            }
        }
    }
}

/// The contention-aware stripe study: runs each listed app at a fixed
/// thread count across lock-table stripe sizes and prints one JSON line
/// per (app, stripe) pair with commit throughput, abort/retry counts and
/// the stripe-conflict rate — quantifying coarse-stripe false sharing
/// (e.g. intruder's multi-thread dip) instead of leaving it anecdotal.
pub fn print_stripe_sweep(
    bench: &str,
    stripe_sizes: &[usize],
    threads: usize,
    scale: Scale,
    apps: &[StampApp],
) {
    for &app in apps {
        for &stripe_bytes in stripe_sizes {
            let cfg = MtRunConfig { stripe_bytes, ..MtRunConfig::default() };
            let point = run_spec_mt_cfg(app, threads, scale, cfg);
            let r = &point.run.report;
            let ls = point.lock_stats;
            let rc = point.reclaim;
            println!(
                "{{\"bench\":\"{bench}\",\"mode\":\"stripe\",\"runtime\":\"SpecSPMT\",\
                 \"app\":\"{}\",\"threads\":{},\"stripe_bytes\":{stripe_bytes},\
                 \"commits\":{},\"aborts\":{},\"sim_ns\":{},\"commits_per_ms\":{:.1},\
                 \"lock_acquires\":{},\"lock_conflicts\":{},\"conflict_rate\":{:.4},\
                 \"reclaim_entries_dropped\":{},\"reclaim_bytes\":{}}}",
                r.workload,
                r.threads,
                r.commits,
                point.aborts,
                r.sim_ns,
                r.commits_per_ms,
                ls.acquires,
                ls.conflicts,
                ls.conflict_rate(),
                rc.records_dropped,
                rc.bytes_reclaimed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            SwRuntime::Pmdk,
            SwRuntime::Kamino,
            SwRuntime::Spht,
            SwRuntime::SpecDp,
            SwRuntime::Spec,
            SwRuntime::SpecInline,
            SwRuntime::NoTx,
            SwRuntime::HashLog,
        ];
        let set: std::collections::HashSet<_> = all.iter().map(|r| r.label()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn tiny_suite_runs_and_orders() {
        let reports = run_sw_suite(&[SwRuntime::NoTx], Scale::Tiny);
        assert_eq!(reports.len(), 9);
        assert_eq!(reports[0][0].workload, "genome");
    }

    #[test]
    fn geomean_row_added() {
        let rows = vec![("a".into(), vec![2.0]), ("b".into(), vec![8.0])];
        let rows = with_geomean(rows);
        assert_eq!(rows.last().unwrap().0, "geomean");
        assert!((rows.last().unwrap().1[0] - 4.0).abs() < 1e-9);
    }
}
