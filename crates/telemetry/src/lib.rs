//! `specpmt-telemetry`: a unified, zero-dependency metrics layer for the
//! SpecPMT transaction, pmem, and reclamation stacks.
//!
//! Three pieces (DESIGN.md §4.7, §4.11):
//!
//! * [`metrics`] — a per-thread [`Registry`] of named counters
//!   ([`Metric`]) and log2-bucketed latency histograms ([`Phase`],
//!   [`Histogram`]) with p50/p90/p99/max summaries and cheap
//!   `Instant`-based [`Span`] guards. Disabled by default: an inert span
//!   reads no clock and touches no atomics, keeping the telemetry-off
//!   commit path within its < 3% overhead budget.
//! * [`blackbox`] — the event format of the PM-resident flight recorder
//!   ([`BbKind`], [`BbEvent`], slot checksums, ring decode and merge): the
//!   workspace's one event stream. The write side is
//!   `specpmt_pmem::BlackBoxSink`, the reader `specpmt_core::forensics`.
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
//! Nothing here reads the process environment: a registry starts
//! disabled and is switched on by [`Telemetry::set_enabled`] alone.
//!
//! This crate sits below `specpmt-pmem` in the dependency graph and has
//! no dependencies of its own.

#![deny(missing_docs)]

pub mod blackbox;
pub mod export;
pub mod json;
pub mod metrics;
pub mod owned;

pub use blackbox::{BbEvent, BbKind};
pub use export::{Series, SeriesPoint};
pub use json::{JsonWriter, StatExport};
pub use metrics::{
    bucket_floor, bucket_of, DeltaSnapshot, Histogram, HistogramSnapshot, Metric, Phase, Registry,
    Span, BUCKETS, METRIC_COUNT, METRIC_NAMES, PHASE_COUNT, PHASE_NAMES,
};
pub use owned::{OwnedCounter, OwnedHistogram};

/// One runtime's telemetry bundle: the metrics [`Registry`], one shard per
/// thread. It starts *off* ([`Telemetry::set_enabled`] turns it on) — an
/// inert bundle costs one relaxed atomic load per instrumentation site.
#[derive(Debug)]
pub struct Telemetry {
    /// Counters + phase-latency histograms.
    pub registry: Registry,
}

impl Telemetry {
    /// Builds a bundle with one registry shard per thread.
    pub fn new(threads: usize) -> Self {
        Self { registry: Registry::new(threads) }
    }

    /// Enables or disables metrics recording (counters + histograms).
    pub fn set_enabled(&self, on: bool) {
        self.registry.set_enabled(on);
    }

    /// Zeroes the registry.
    pub fn reset(&self) {
        self.registry.reset();
    }
}
