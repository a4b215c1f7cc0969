//! Per-layer metrics that more than one workload reports, each defined
//! once.

use specpmt_pmem::PmemStats;
use specpmt_telemetry::Phase;

use crate::alloc::AllocCount;
use crate::estimator::{host_spread, SegmentClass};
use crate::report::Outcome;

/// `host.*` and `alloc.*` of the untraced phase of a traced run. Returns
/// the fast-decile host ns per op the overheads are measured against.
pub fn report_host(
    outcome: &mut Outcome,
    classes: &[SegmentClass],
    ops_per_cycle: f64,
    sim_ns_per_op: f64,
    allocs: AllocCount,
    ops: f64,
) -> f64 {
    let spread = host_spread(classes, ops_per_cycle);
    outcome.set("host.median_ns_per_op", spread.median_ns_per_op);
    outcome.set("host.mean_over_fast", spread.mean_over_fast);
    outcome.set("host.slow_segment_share", spread.slow_segment_share);
    outcome.set("host.sim_ratio", spread.fast_ns_per_op / sim_ns_per_op);
    outcome.set("alloc.calls_per_op", allocs.calls as f64 / ops);
    outcome.set("alloc.bytes_per_op", allocs.bytes as f64 / ops);
    spread.fast_ns_per_op
}

/// Adds the counters the benchmark reports of `d` into `total`.
pub fn add_pmem(total: &mut PmemStats, d: &PmemStats) {
    total.clwb_count += d.clwb_count;
    total.sfence_count += d.sfence_count;
    total.fence_stall_ns += d.fence_stall_ns;
    total.lines_persisted += d.lines_persisted;
    total.seq_line_hits += d.seq_line_hits;
    total.bytes_stored += d.bytes_stored;
}

/// The `pmem.*` counter metrics of a device-counter delta over `ops` ops.
pub fn report_pmem(outcome: &mut Outcome, d: &PmemStats, ops: f64) {
    outcome.set("pmem.clwb_per_op", d.clwb_count as f64 / ops);
    outcome.set("pmem.sfence_per_op", d.sfence_count as f64 / ops);
    outcome.set("pmem.lines_persisted_per_op", d.lines_persisted as f64 / ops);
    outcome.set("pmem.bytes_stored_per_op", d.bytes_stored as f64 / ops);
    outcome.set("pmem.fence_stall_sim_ns_per_op", d.fence_stall_ns as f64 / ops);
    outcome
        .set("pmem.seq_line_hit_ratio", d.seq_line_hits as f64 / d.lines_persisted.max(1) as f64);
}

/// The commit sub-phases the program's `Registry` records, by metric name.
/// Write-set staging happens before the envelope opens; the rest is inside.
pub const COMMIT_PHASES: [(Phase, &str); 7] = [
    (Phase::Writeset, "writeset"),
    (Phase::Seal, "seal"),
    (Phase::Append, "append"),
    (Phase::Flush, "flush"),
    (Phase::Fence, "fence"),
    (Phase::LockRelease, "lock_release"),
    (Phase::Commit, "envelope"),
];

/// `core.commit.*` from the registry's per-phase means, with the
/// sub-phases-within-envelope check.
pub fn report_commit_phases(outcome: &mut Outcome, mean: impl Fn(Phase) -> f64) {
    let mut inside = 0.0;
    for (phase, name) in COMMIT_PHASES {
        outcome.set(format!("core.commit.{name}_host_ns"), mean(phase));
        if !matches!(phase, Phase::Writeset | Phase::Commit) {
            inside += mean(phase);
        }
    }
    outcome.set("core.commit.sim_ns", mean(Phase::CommitSim));
    let envelope = mean(Phase::Commit);
    if inside > envelope * 1.001 {
        outcome.warn(format!(
            "core.commit: sub-phases ({inside:.1} ns) exceed the envelope ({envelope:.1} ns)"
        ));
    }
}
