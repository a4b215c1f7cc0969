//! `specpmt-telemetry`: a unified, zero-dependency tracing + metrics
//! layer for the SpecPMT transaction, pmem, and reclamation stacks.
//!
//! Three pieces (DESIGN.md §4.7):
//!
//! * [`metrics`] — a per-thread [`Registry`] of named counters
//!   ([`Metric`]) and log2-bucketed latency histograms ([`Phase`],
//!   [`Histogram`]) with p50/p90/p99/max summaries and cheap
//!   `Instant`-based [`Span`] guards. Disabled by default: an inert span
//!   reads no clock and touches no atomics, keeping the telemetry-off
//!   commit path within its < 3% overhead budget.
//! * [`trace`] — a bounded per-thread ring-buffer [`Tracer`] recording
//!   the transaction lifecycle (begin / stage / seal / lock-acquire /
//!   clwb-plan / fence / commit / abort-retry / doom) plus reclamation
//!   and WPQ-drain events. Off by default; `SPECPMT_TRACE=1` enables it.
//! * [`json`] — a hand-rolled [`JsonWriter`] (the workspace is
//!   zero-dependency) and the [`StatExport`] trait that `PmemStats`,
//!   `ReclaimStats`, and `LockTableStats` implement so every stat block
//!   shares one JSON schema across live runs, benches, and `inspect`.
//!
//! Beside the shared [`Histogram`], [`owned`] holds the single-writer
//! [`OwnedCounter`] / [`OwnedHistogram`]: what a per-owner statistic (a
//! device handle's timeline, a kv worker's latencies) is made of, so that
//! sharing is paid for by the reader and not on every update.
//!
//! A fourth piece rides along because this crate is the workspace's leaf:
//! [`knobs`] — the typed [`Knobs`] struct that parses every `SPECPMT_*`
//! environment variable once at startup (re-exported by `specpmt-core` as
//! `specpmt_core::knobs` for the upper layers).
//!
//! This crate sits below `specpmt-pmem` in the dependency graph and has
//! no dependencies of its own.

#![deny(missing_docs)]

pub mod blackbox;
pub mod export;
pub mod json;
pub mod knobs;
pub mod metrics;
pub mod owned;
pub mod trace;

pub use blackbox::{BbEvent, BbKind};
pub use export::{Series, SeriesPoint};
pub use json::{JsonWriter, StatExport};
pub use knobs::{KnobError, Knobs};
pub use metrics::{
    bucket_floor, bucket_of, DeltaSnapshot, Histogram, HistogramSnapshot, Metric, Phase, Registry,
    Span, BUCKETS, METRIC_COUNT, METRIC_NAMES, PHASE_COUNT, PHASE_NAMES,
};
pub use owned::{OwnedCounter, OwnedHistogram};
pub use trace::{
    EventKind, TraceEvent, TraceSnapshot, Tracer, DEFAULT_CAPACITY, EVENT_KIND_COUNT,
    EVENT_KIND_NAMES,
};

/// One runtime's telemetry bundle: the metrics [`Registry`] and the event
/// [`Tracer`], sized to the same thread count. Both start in their
/// env-controlled default state (`SPECPMT_TELEMETRY` / `SPECPMT_TRACE`),
/// which is *off* unless set — an inert bundle costs one relaxed atomic
/// load per instrumentation site.
#[derive(Debug)]
pub struct Telemetry {
    /// Counters + phase-latency histograms.
    pub registry: Registry,
    /// Bounded per-thread lifecycle event rings.
    pub tracer: Tracer,
}

impl Telemetry {
    /// Builds a bundle with one registry shard and one trace ring per
    /// thread.
    pub fn new(threads: usize) -> Self {
        Self { registry: Registry::new(threads), tracer: Tracer::new(threads) }
    }

    /// Enables or disables metrics recording (counters + histograms).
    /// Tracing is controlled separately via [`Telemetry::set_tracing`].
    pub fn set_enabled(&self, on: bool) {
        self.registry.set_enabled(on);
    }

    /// Enables or disables event tracing.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Zeroes the registry and empties the trace rings.
    pub fn reset(&self) {
        self.registry.reset();
        self.tracer.clear();
    }

    /// Emits the merged metrics block plus a compact trace summary
    /// (`trace_events`, `trace_dropped`) into the caller's open object.
    /// Full event dumps go through
    /// [`Tracer::snapshot`]/[`TraceSnapshot::emit`].
    pub fn emit(&self, w: &mut JsonWriter) {
        self.registry.emit(w);
        let snap = self.tracer.snapshot();
        w.field_u64("trace_events", snap.events.len() as u64);
        w.field_u64("trace_dropped", snap.dropped);
    }
}

impl StatExport for Telemetry {
    fn export_name(&self) -> &'static str {
        "telemetry"
    }

    fn emit(&self, w: &mut JsonWriter) {
        Telemetry::emit(self, w);
    }
}
