//! Rust mini-reimplementations of the STAMP transactional applications.
//!
//! The SpecPMT paper evaluates all STAMP [Minh et al., IISWC'08] programs
//! except `bayes` (unstable performance), ported to persistent memory with
//! `libvmmalloc`. This crate provides faithful *miniatures* of those nine
//! workloads — real algorithms with verifiable results, not synthetic write
//! streams — with every transaction body and every driver written exactly
//! once against [`specpmt_txn::TxAccess`] so it runs unmodified on every
//! runtime in the workspace, on one handle (via [`run_app`]). The paper's
//! STAMP figures are single-threaded; isolation between concurrent
//! transactions is left to software locking (strict 2PL, see
//! `specpmt_core::LockedTxHandle`), not to these drivers:
//!
//! | app | transactional kernel | per-tx profile it mirrors (Table 2) |
//! |---|---|---|
//! | `genome` | segment dedup into a persistent hash set + chain linking | 7.2 B, ~2.9 upd |
//! | `intruder` | packet-fragment reassembly maps | 20.5 B, ~4.6 upd |
//! | `kmeans-low/high` | cluster-accumulator updates (i32 sums) | 101 B, ~27 upd |
//! | `labyrinth` | path claiming on a 3-D grid | 1420 B, ~180 upd |
//! | `ssca2` | graph adjacency construction | 16 B, 4 upd |
//! | `vacation-low/high` | travel-reservation table updates | 44–68 B, 7–10 upd |
//! | `yada` | mesh-refinement triangle rewrites | 176 B, ~24 upd |
//!
//! Transaction counts are scaled down ~1000× from the paper's inputs (the
//! substrate is a simulator); the *relative* profiles — write-set size,
//! updates per transaction, compute between transactions — are what drive
//! the evaluation figures, and the `table2` harness regenerates the actual
//! values for comparison against the paper.
//!
//! Every workload performs an untimed setup phase, a timed transactional
//! phase, and a verification phase that checks the final persistent state
//! against a volatile reference execution of the algorithm.
//!
//! Volatile work between transactions is priced on the simulated clock by
//! `TxAccess::compute`. Two apps also do it on the host, since its result
//! picks the next write set: `labyrinth` routes by breadth-first search and
//! `kmeans-low/high` measure point-to-centroid distances (again in their
//! volatile reference). The other seven only charge `compute()`. A host
//! rewrite of that work keeps every charge and the transaction stream
//! (paths, visited counts, assignments) identical, so every simulated ns
//! and PM byte stays bit-for-bit (`tests/stamp_golden.rs` pins them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod ssca2;
pub mod util;
pub mod vacation;
pub mod yada;

use specpmt_txn::{RunReport, TxRuntime};

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A few dozen transactions — for unit tests.
    Tiny,
    /// Thousands of transactions — for the figure bins.
    #[default]
    Small,
}

/// The nine evaluated STAMP applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StampApp {
    /// Gene sequencing: segment deduplication + overlap linking.
    Genome,
    /// Network intrusion detection: packet reassembly.
    Intruder,
    /// K-means clustering, low contention (more clusters, more compute).
    KmeansLow,
    /// K-means clustering, high contention (fewer clusters).
    KmeansHigh,
    /// Maze routing with multi-cell path claims.
    Labyrinth,
    /// SSCA2 graph kernel: adjacency construction.
    Ssca2,
    /// Travel reservations, low contention (1 item per transaction).
    VacationLow,
    /// Travel reservations, high contention (up to 2 items).
    VacationHigh,
    /// Delaunay-style mesh refinement.
    Yada,
}

impl StampApp {
    /// All nine applications in the paper's figure order.
    pub fn all() -> [StampApp; 9] {
        [
            StampApp::Genome,
            StampApp::Intruder,
            StampApp::KmeansLow,
            StampApp::KmeansHigh,
            StampApp::Labyrinth,
            StampApp::Ssca2,
            StampApp::VacationLow,
            StampApp::VacationHigh,
            StampApp::Yada,
        ]
    }

    /// The figure label for this application.
    pub fn name(&self) -> &'static str {
        match self {
            StampApp::Genome => "genome",
            StampApp::Intruder => "intruder",
            StampApp::KmeansLow => "kmeans-low",
            StampApp::KmeansHigh => "kmeans-high",
            StampApp::Labyrinth => "labyrinth",
            StampApp::Ssca2 => "ssca2",
            StampApp::VacationLow => "vacation-low",
            StampApp::VacationHigh => "vacation-high",
            StampApp::Yada => "yada",
        }
    }
}

/// Result of one workload execution on one runtime.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Measured counters for the timed transactional phase.
    pub report: RunReport,
    /// Verification outcome against the volatile reference execution.
    pub verified: Result<(), String>,
}

/// Runs `app` at `scale` on `rt` and measures the transactional phase.
///
/// Setup and verification run untimed; the returned [`RunReport`]'s
/// `sim_ns` covers foreground execution only (background maintenance time
/// is excluded, as the paper's dedicated background threads are).
pub fn run_app<R: TxRuntime>(app: StampApp, rt: &mut R, scale: Scale) -> AppRun {
    let clock0 = rt.pool().device().now_ns();
    let pmem0 = rt.pool().device().stats().clone();
    let tx0 = rt.tx_stats();

    let verified = match app {
        StampApp::Genome => genome::run(rt, &genome::GenomeCfg::scaled(scale)),
        StampApp::Intruder => intruder::run(rt, &intruder::IntruderCfg::scaled(scale)),
        StampApp::KmeansLow => kmeans::run(rt, &kmeans::KmeansCfg::low(scale)),
        StampApp::KmeansHigh => kmeans::run(rt, &kmeans::KmeansCfg::high(scale)),
        StampApp::Labyrinth => labyrinth::run(rt, &labyrinth::LabyrinthCfg::scaled(scale)),
        StampApp::Ssca2 => ssca2::run(rt, &ssca2::Ssca2Cfg::scaled(scale)),
        StampApp::VacationLow => vacation::run(rt, &vacation::VacationCfg::low(scale)),
        StampApp::VacationHigh => vacation::run(rt, &vacation::VacationCfg::high(scale)),
        StampApp::Yada => yada::run(rt, &yada::YadaCfg::scaled(scale)),
    };

    let tx1 = rt.tx_stats();
    let clock1 = rt.pool().device().now_ns();
    let pmem1 = rt.pool().device().stats().clone();
    let background = tx1.background_ns - tx0.background_ns;
    let mut tx = tx1.clone();
    tx.tx_begun -= tx0.tx_begun;
    tx.tx_committed -= tx0.tx_committed;
    tx.updates -= tx0.updates;
    tx.data_bytes -= tx0.data_bytes;
    tx.log_bytes -= tx0.log_bytes;
    tx.records_reclaimed -= tx0.records_reclaimed;
    tx.background_ns = background;

    AppRun {
        report: RunReport {
            runtime: rt.name().to_string(),
            workload: app.name().to_string(),
            sim_ns: (clock1 - clock0).saturating_sub(background),
            tx,
            pmem: pmem1.delta_since(&pmem0),
            heap_peak_bytes: rt.pool().heap_peak() as u64,
        },
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_have_unique_names() {
        let names: std::collections::HashSet<_> =
            StampApp::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 9);
    }
}
