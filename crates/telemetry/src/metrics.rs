//! Per-thread metrics registry: named counters and log2-bucketed latency
//! histograms with cheap `Instant`-based span guards.
//!
//! Design constraints (see DESIGN.md §4.7):
//!
//! * **Telemetry-off must be ~free.** The registry carries one
//!   `AtomicBool`; a [`Span`] opened while disabled holds `None` and its
//!   drop is a no-op — no clock read, no atomics (`benchmark/` reports
//!   what turning it on costs as `telemetry.on_overhead_pct`).
//! * **No allocation on the hot path.** All storage (shards, buckets) is
//!   allocated when the registry is built; recording is `fetch_add` /
//!   `fetch_max` only.
//! * **Per-thread shards.** Each logical thread writes its own shard
//!   (relaxed atomics, no sharing), and snapshots merge shards on the
//!   cold export path.
//!
//! Histogram bucketing is exact at powers of two: value `0` lands in
//! bucket 0, and `v ∈ [2^k, 2^(k+1))` lands in bucket `k+1` — so `2^k - 1`
//! and `2^k` always fall in adjacent buckets (a tested invariant).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonWriter;

/// Number of histogram buckets: bucket 0 for value 0, buckets `1..=64`
/// for `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// Bucket index for a recorded value (see module docs).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound of a bucket (0 for bucket 0, else `2^(i-1)`), used as the
/// quantile representative — quantile estimates are therefore *lower
/// bounds* of the true quantile's bucket.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Lock-free log2 histogram. Recording is two relaxed `fetch_add`s and a
/// `fetch_max`; snapshotting is a cold-path scan.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Zeroes every bucket and the sum/max trackers.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Copies the current state into an owned [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Live quantile estimate (see [`HistogramSnapshot::quantile`]) — the
    /// one quantile API every consumer (`KvStats`, txstat, benches) goes
    /// through instead of hand-rolling percentile math.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Owned, mergeable histogram state with quantile summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all observations (for the mean).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Quantile estimate: the lower bound of the bucket holding the
    /// `q`-th ranked observation (`q` in `[0,1]`). Returns 0 when empty;
    /// `q >= 1.0` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        self.max
    }

    /// Folds another snapshot into this one (exact: bucket-wise add).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The p99.9 tail estimate (the quantile `specpmt-kv`'s SLO math
    /// keys on; exposed here so no consumer hand-rolls it).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Emits the standard summary fields (`count`, `sum_ns`, `mean_ns`,
    /// `p50_ns`, `p90_ns`, `p99_ns`, `p999_ns`, `max_ns`) into the
    /// caller's open object.
    pub fn emit(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count());
        w.field_u64("sum_ns", self.sum);
        w.field_f64("mean_ns", self.mean());
        w.field_u64("p50_ns", self.quantile(0.50));
        w.field_u64("p90_ns", self.quantile(0.90));
        w.field_u64("p99_ns", self.quantile(0.99));
        w.field_u64("p999_ns", self.p999());
        w.field_u64("max_ns", self.max);
    }
}

/// Instrumented phases — each gets a latency histogram per thread shard.
///
/// The first six are the sub-spans of one commit (the ISSUE's
/// writeset/seal/append/flush/fence/lock breakdown); `Commit` is the
/// whole-commit envelope (so per-phase sums ≤ commit is checkable);
/// the rest are cross-cutting waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Write-set build: staging in-place writes + undo/redo bookkeeping.
    Writeset = 0,
    /// Checksum seal: header encode + checksum over the payload.
    Seal = 1,
    /// Log append: reserving log space and storing the record.
    Append = 2,
    /// Flush planning + `clwb` of dirty lines.
    Flush = 3,
    /// The commit fence (`sfence`, incl. simulated WPQ drain stall).
    Fence = 4,
    /// Lock release (address locks and/or area locks).
    LockRelease = 5,
    /// Whole commit envelope (covers all six sub-phases).
    Commit = 6,
    /// Address-lock acquisition wait (spin + backoff) in the 2PL path.
    LockWait = 7,
    /// WPQ drain wait observed at a fence.
    WpqDrain = 8,
    /// One background reclamation cycle.
    ReclaimCycle = 9,
    /// Group commit: from staging a sealed record into the epoch batch
    /// until the batch fence retires (combiner election, the shared drain,
    /// and receipt handoff all live inside this span).
    BatchWait = 10,
    /// Group commit: *batch occupancy* — the histogram records the number
    /// of transactions each retired batch carried (a size distribution,
    /// not a latency; one observation per batch, recorded by the
    /// combiner).
    GroupBatch = 11,
    /// Commit cost in **simulated device nanoseconds**: the device work
    /// (stores, flush issue, fence stalls) charged to the committing
    /// thread's timeline during seal. Unlike the host-time `commit` span,
    /// this is deterministic and immune to scheduler preemption on
    /// oversubscribed hosts, so it is the number cross-runtime commit
    /// comparisons should use. Under group commit, waiters charge only
    /// their append work — the combiner's timeline absorbs the shared
    /// batch drain — so the mean directly shows fence amortization.
    CommitSim = 12,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 13;

/// JSON/bench names for each [`Phase`], index-aligned with the enum.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "writeset",
    "seal",
    "append",
    "flush",
    "fence",
    "lock",
    "commit",
    "lock_wait",
    "wpq_drain",
    "reclaim_cycle",
    "batch_wait",
    "group_batch_size",
    "commit_sim",
];

/// Monotone event counters kept per thread shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Transactions begun.
    Begins = 0,
    /// Transactions committed.
    Commits = 1,
    /// Transactions aborted (any reason).
    Aborts = 2,
    /// Conflict-driven abort→retry round trips.
    Retries = 3,
    /// Transactions doomed by a peer.
    Dooms = 4,
    /// Commit fences issued.
    Fences = 5,
    /// `clwb` flush plans executed (one per commit flush phase).
    ClwbPlans = 6,
    /// Log records appended.
    LogAppends = 7,
    /// WPQ drains observed at fences.
    WpqDrains = 8,
    /// Reclamation cycles run.
    ReclaimCycles = 9,
    /// Individual log *entries* appended (one per staged write that opened
    /// a new entry; in-place write-set patches do not count).
    LogEntries = 10,
    /// Commits that went through the group-commit (epoch batch) path.
    GroupCommits = 11,
    /// Epoch batches drained (each costs one shared flush+fence; the
    /// group path's fences-per-commit is `group_batches / group_commits`).
    GroupBatches = 12,
    /// Labeled crash-point sites hit while a site plan was armed (the
    /// crash-enumeration harness's per-run visit count; zero in normal
    /// operation because disarmed sites never reach telemetry).
    CrashPoints = 13,
    /// Commits of transactions that never wrote: no record was reserved,
    /// so nothing was appended, flushed or fenced (`commits == log_appends
    /// + write_free_commits` on an abort-free stream).
    WriteFreeCommits = 14,
}

/// Number of [`Metric`] variants.
pub const METRIC_COUNT: usize = 15;

/// JSON names for each [`Metric`], index-aligned with the enum.
pub const METRIC_NAMES: [&str; METRIC_COUNT] = [
    "begins",
    "commits",
    "aborts",
    "retries",
    "dooms",
    "fences",
    "clwb_plans",
    "log_appends",
    "wpq_drains",
    "reclaim_cycles",
    "log_entries",
    "group_commits",
    "group_batches",
    "crash_points",
    "write_free_commits",
];

/// Counter and phase deltas over one sampling interval, returned by
/// [`Registry::snapshot_delta`] and rendered by
/// [`crate::export::Series`]. All arrays are index-aligned with
/// [`Metric`] / [`Phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// Counter increments since the previous delta snapshot.
    pub metrics: [u64; METRIC_COUNT],
    /// Phase observation-count increments.
    pub phase_counts: [u64; PHASE_COUNT],
    /// Phase sum-of-observations increments (ns, except size-valued
    /// phases like `group_batch_size`).
    pub phase_sums: [u64; PHASE_COUNT],
}

impl Default for DeltaSnapshot {
    fn default() -> Self {
        Self {
            metrics: [0; METRIC_COUNT],
            phase_counts: [0; PHASE_COUNT],
            phase_sums: [0; PHASE_COUNT],
        }
    }
}

impl DeltaSnapshot {
    /// One counter's increment over the interval.
    pub fn metric(&self, m: Metric) -> u64 {
        self.metrics[m as usize]
    }

    /// One phase's (count, sum) increment over the interval.
    pub fn phase(&self, p: Phase) -> (u64, u64) {
        (self.phase_counts[p as usize], self.phase_sums[p as usize])
    }

    /// `true` when nothing was recorded in the interval.
    pub fn is_empty(&self) -> bool {
        self.metrics.iter().all(|&v| v == 0) && self.phase_counts.iter().all(|&v| v == 0)
    }
}

/// One thread's slice of the registry. Cache-line aligned so two threads
/// never share a shard line.
#[derive(Debug)]
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; METRIC_COUNT],
    phases: [Histogram; PHASE_COUNT],
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phases: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// Per-thread metrics registry. Owned by a runtime (`SpecSpmt` /
/// `SpecSpmtShared`); threads index their shard by `tid`.
///
/// Starts disabled; [`Registry::set_enabled`] is the only switch.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    shards: Vec<Shard>,
    /// Cumulative totals at the last [`Registry::snapshot_delta`] call
    /// (cold path only — sampling cadence is per interval, not per op).
    delta_base: Mutex<DeltaSnapshot>,
}

impl Registry {
    /// Builds a disabled registry with one shard per thread.
    pub fn new(threads: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            shards: (0..threads.max(1)).map(|_| Shard::new()).collect(),
            delta_base: Mutex::new(DeltaSnapshot::default()),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (existing contents are kept).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    fn shard(&self, tid: usize) -> &Shard {
        &self.shards[tid % self.shards.len()]
    }

    /// Bumps a counter by `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, tid: usize, m: Metric, n: u64) {
        if self.enabled() {
            self.shard(tid).counters[m as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a pre-measured duration into a phase histogram (no-op
    /// while disabled).
    #[inline]
    pub fn record(&self, tid: usize, p: Phase, ns: u64) {
        if self.enabled() {
            self.shard(tid).phases[p as usize].record(ns);
        }
    }

    /// Opens a span guard over `p`; the elapsed nanoseconds are recorded
    /// when the guard drops (or [`Span::stop`] is called). While the
    /// registry is disabled the guard is inert: no clock read happens.
    #[inline]
    pub fn span(&self, tid: usize, p: Phase) -> Span<'_> {
        if self.enabled() {
            Span { live: Some((Instant::now(), &self.shard(tid).phases[p as usize])) }
        } else {
            Span { live: None }
        }
    }

    /// Sum of one counter across all shards.
    pub fn counter(&self, m: Metric) -> u64 {
        self.shards.iter().map(|s| s.counters[m as usize].load(Ordering::Relaxed)).sum()
    }

    /// One shard's value of one counter (no merging) — used to attribute
    /// activity to a specific thread, e.g. the reclamation daemon's
    /// dedicated shard vs the transaction threads.
    pub fn counter_in(&self, tid: usize, m: Metric) -> u64 {
        self.shard(tid).counters[m as usize].load(Ordering::Relaxed)
    }

    /// One shard's snapshot of one phase histogram (no merging).
    pub fn phase_in(&self, tid: usize, p: Phase) -> HistogramSnapshot {
        self.shard(tid).phases[p as usize].snapshot()
    }

    /// Merged (all-shard) snapshot of one phase histogram.
    pub fn phase(&self, p: Phase) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in &self.shards {
            out.merge(&s.phases[p as usize].snapshot());
        }
        out
    }

    /// Zeroes every counter and histogram in every shard, and
    /// re-baselines the [`Registry::snapshot_delta`] state so the next
    /// delta measures from the reset, not from before it.
    pub fn reset(&self) {
        for s in &self.shards {
            for c in &s.counters {
                c.store(0, Ordering::Relaxed);
            }
            for h in &s.phases {
                h.reset();
            }
        }
        if let Ok(mut base) = self.delta_base.lock() {
            *base = DeltaSnapshot::default();
        }
    }

    /// Returns the counter and phase increments since the previous
    /// `snapshot_delta` call (the first call measures from construction
    /// or the last [`Registry::reset`]) and advances the baseline — the
    /// sampling primitive behind the `series` block in the bench
    /// artifacts ([`crate::export::Series`]).
    ///
    /// Concurrent recorders may land between the per-entry reads; such
    /// late increments are never lost, they surface in the next delta
    /// (totals are monotone, and the baseline is the exact totals this
    /// call observed).
    pub fn snapshot_delta(&self) -> DeltaSnapshot {
        let mut now = DeltaSnapshot::default();
        for (m, slot) in now.metrics.iter_mut().enumerate() {
            *slot = self.shards.iter().map(|s| s.counters[m].load(Ordering::Relaxed)).sum();
        }
        for p in 0..PHASE_COUNT {
            let mut count = 0u64;
            let mut sum = 0u64;
            for s in &self.shards {
                let snap = s.phases[p].snapshot();
                count += snap.count();
                sum += snap.sum;
            }
            now.phase_counts[p] = count;
            now.phase_sums[p] = sum;
        }
        let mut base = self.delta_base.lock().unwrap_or_else(|e| e.into_inner());
        let mut delta = DeltaSnapshot::default();
        for i in 0..METRIC_COUNT {
            delta.metrics[i] = now.metrics[i].saturating_sub(base.metrics[i]);
        }
        for i in 0..PHASE_COUNT {
            delta.phase_counts[i] = now.phase_counts[i].saturating_sub(base.phase_counts[i]);
            delta.phase_sums[i] = now.phase_sums[i].saturating_sub(base.phase_sums[i]);
        }
        *base = now;
        delta
    }

    /// Emits the merged registry as fields of the caller's open object:
    /// `"enabled":…,"counters":{…},"phases":{…}` where each phase carries
    /// the standard histogram summary. Phases with zero observations are
    /// skipped to keep the block small.
    pub fn emit(&self, w: &mut JsonWriter) {
        self.emit_excluding(w, &[]);
    }

    /// [`Registry::emit`] restricted to the shards whose index is **not**
    /// in `exclude` — so a runtime with a dedicated daemon shard can emit
    /// the transaction threads' view without the daemon's drains and
    /// fences folded in (the daemon shard is emitted separately, keeping
    /// every observation attributed exactly once).
    pub fn emit_excluding(&self, w: &mut JsonWriter, exclude: &[usize]) {
        let keep = |i: &usize| !exclude.contains(i);
        w.field_bool("enabled", self.enabled());
        w.begin_object_field("counters");
        for (m, name) in METRIC_NAMES.iter().enumerate() {
            let v: u64 = (0..self.shards.len())
                .filter(keep)
                .map(|i| self.shards[i].counters[m].load(Ordering::Relaxed))
                .sum();
            w.field_u64(name, v);
        }
        w.end_object();
        w.begin_object_field("phases");
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            let mut snap = HistogramSnapshot::default();
            for i in (0..self.shards.len()).filter(keep) {
                snap.merge(&self.shards[i].phases[p].snapshot());
            }
            if snap.count() == 0 {
                continue;
            }
            w.begin_object_field(name);
            snap.emit(w);
            w.end_object();
        }
        w.end_object();
    }
}

/// RAII phase-latency guard returned by [`Registry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    live: Option<(Instant, &'a Histogram)>,
}

impl Span<'_> {
    /// An inert span (useful as a placeholder when no registry exists).
    pub fn disabled() -> Span<'static> {
        Span { live: None }
    }

    fn finish(&mut self) -> u64 {
        match self.live.take() {
            Some((t0, h)) => {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                h.record(ns);
                ns
            }
            None => 0,
        }
    }

    /// Ends the span now, recording and returning the elapsed
    /// nanoseconds (0 if the span was inert).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_exact_at_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        for k in 0..63u32 {
            let p = 1u64 << k;
            assert_eq!(bucket_of(p), k as usize + 1, "2^{k} must open bucket {}", k + 1);
            if p > 1 {
                assert_eq!(bucket_of(p - 1), k as usize, "2^{k}-1 must stay in bucket {k}");
            }
            assert_eq!(bucket_of(p + (p >> 1)), k as usize + 1);
        }
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // p50 of 1..=1000 is 500, which lives in bucket [256, 512).
        assert_eq!(s.quantile(0.50), 256);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1 → first value's bucket floor
    }

    #[test]
    fn snapshot_merge_is_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(4);
        b.record(4);
        b.record(1024);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets[bucket_of(4)], 2);
        assert_eq!(s.max, 1024);
        assert_eq!(s.sum, 1032);
    }

    #[test]
    fn registry_starts_disabled() {
        let r = Registry::new(2);
        assert!(!r.enabled(), "nothing but set_enabled turns a registry on");
        r.add(0, Metric::Commits, 1);
        r.record(1, Phase::Commit, 99);
        drop(r.span(0, Phase::Fence));
        assert_eq!(r.counter(Metric::Commits), 0);
        assert_eq!(r.phase(Phase::Commit).count(), 0);
        assert_eq!(r.phase(Phase::Fence).count(), 0);
    }

    #[test]
    fn enabled_registry_merges_shards() {
        let r = Registry::new(4);
        r.set_enabled(true);
        for tid in 0..4 {
            r.add(tid, Metric::Commits, 2);
            r.record(tid, Phase::Seal, 8);
        }
        assert_eq!(r.counter(Metric::Commits), 8);
        let s = r.phase(Phase::Seal);
        assert_eq!(s.count(), 4);
        assert_eq!(s.max, 8);
        let span = r.span(2, Phase::Seal);
        let ns = span.stop();
        assert_eq!(r.phase(Phase::Seal).count(), 5);
        assert!(r.phase(Phase::Seal).max >= ns.min(8));
        r.reset();
        assert_eq!(r.counter(Metric::Commits), 0);
        assert_eq!(r.phase(Phase::Seal).count(), 0);
    }

    #[test]
    fn per_shard_access_and_exclusion_attribute_exactly_once() {
        let r = Registry::new(3);
        r.set_enabled(true);
        r.add(0, Metric::Fences, 4);
        r.add(2, Metric::Fences, 1); // the "daemon" shard
        r.record(0, Phase::WpqDrain, 100);
        r.record(2, Phase::WpqDrain, 900);
        assert_eq!(r.counter(Metric::Fences), 5);
        assert_eq!(r.counter_in(2, Metric::Fences), 1);
        assert_eq!(r.phase_in(2, Phase::WpqDrain).count(), 1);
        assert_eq!(r.phase_in(2, Phase::WpqDrain).max, 900);
        let mut w = JsonWriter::new();
        w.begin_object();
        r.emit_excluding(&mut w, &[2]);
        w.end_object();
        let j = w.finish();
        assert!(j.contains("\"fences\":4"), "{j}");
        assert!(!j.contains("\"max_ns\":900"), "daemon shard must be excluded: {j}");
    }

    #[test]
    fn emit_skips_empty_phases() {
        let r = Registry::new(1);
        r.set_enabled(true);
        r.record(0, Phase::Commit, 10);
        let mut w = JsonWriter::new();
        w.begin_object();
        r.emit(&mut w);
        w.end_object();
        let j = w.finish();
        assert!(j.contains("\"commit\":{"), "{j}");
        assert!(!j.contains("\"writeset\""), "{j}");
        assert!(j.contains("\"counters\""), "{j}");
    }
}
