//! `specpmt-telemetry`: a unified, zero-dependency metrics layer for the
//! SpecPMT transaction, pmem, and reclamation stacks.
//!
//! Two pieces (DESIGN.md §4.7):
//!
//! * [`metrics`] — a per-thread [`Registry`] of log2-bucketed phase
//!   histograms ([`Phase`], [`Histogram`]) with p50/p90/p99/max summaries
//!   and cheap `Instant`-based [`Span`] guards. A phase's count is its
//!   event count; the registry keeps no second counter of anything the
//!   device or the runtimes already count exactly. Disabled by default: an
//!   inert span reads no clock and touches no atomics, keeping the
//!   telemetry-off commit path within its < 3% overhead budget.
//! * [`json`] — a hand-rolled [`JsonWriter`] (the workspace is
//!   zero-dependency): the registry's export, `txstat`'s lines and the
//!   crash-image report of `specpmt_core::forensics` are written with it.
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

pub mod json;
pub mod metrics;
pub mod owned;

pub use json::JsonWriter;
pub use metrics::{
    bucket_floor, bucket_of, Histogram, HistogramSnapshot, Phase, Registry, Span, BUCKETS,
};
pub use owned::{OwnedCounter, OwnedHistogram};

/// One runtime's telemetry bundle: the metrics [`Registry`], one shard per
/// thread. It starts *off* ([`Telemetry::set_enabled`] turns it on) — an
/// inert bundle costs one relaxed atomic load per instrumentation site.
#[derive(Debug)]
pub struct Telemetry {
    /// Phase histograms.
    pub registry: Registry,
}

impl Telemetry {
    /// Builds a bundle with one registry shard per thread.
    pub fn new(threads: usize) -> Self {
        Self { registry: Registry::new(threads) }
    }

    /// Enables or disables metrics recording.
    pub fn set_enabled(&self, on: bool) {
        self.registry.set_enabled(on);
    }

    /// Zeroes the registry.
    pub fn reset(&self) {
        self.registry.reset();
    }
}
