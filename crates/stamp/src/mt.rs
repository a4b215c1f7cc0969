//! The fleet seam every application's one driver, `execute`, is written
//! against — a `Solo` handle on the caller's thread (the sequential
//! `run`) or a slice raced one OS thread per handle (`run_app_mt`) — and the
//! multi-threaded entry point. Slice handles are typically
//! `specpmt_core::LockedTxHandle`s (strict 2PL over one shared pool), but
//! any `TxAccess + Send` works: a one-element slice of a single-threaded
//! runtime issues the sequential run's transaction stream.

use specpmt_txn::TxAccess;

use crate::{execute, Scale, StampApp};

/// The handles one driver runs on. Handle 0 performs setup, sequential
/// epilogue phases and verification; with one handle the driver also
/// makes its exact checks against the sequential reference.
pub(crate) trait Fleet {
    /// The per-thread transaction handle.
    type H: TxAccess;
    /// Number of handles (= worker threads); panics on an empty slice.
    fn threads(&self) -> usize;
    /// Handle 0.
    fn first(&mut self) -> &mut Self::H;
    /// Runs `body(t, handle)` once per handle `t` and sums the committed
    /// transactions the bodies return; an error wins over the sum.
    fn each(&mut self, body: impl Fn(usize, &mut Self::H) -> Committed + Sync) -> Committed;
}

/// The committed transactions of a driver or of one of its threads, or
/// the verification error that stopped it.
pub(crate) type Committed = Result<u64, String>;

/// A fleet of one handle, driven on the caller's thread (no `Send` bound).
pub(crate) struct Solo<'a, A>(pub &'a mut A);

impl<A: TxAccess> Fleet for Solo<'_, A> {
    type H = A;
    fn threads(&self) -> usize {
        1
    }
    fn first(&mut self) -> &mut A {
        self.0
    }
    fn each(&mut self, body: impl Fn(usize, &mut A) -> Committed + Sync) -> Committed {
        body(0, self.0)
    }
}

/// One OS thread per handle, scoped to each [`Fleet::each`] call.
impl<A: TxAccess + Send> Fleet for [A] {
    type H = A;
    fn threads(&self) -> usize {
        assert!(!self.is_empty(), "need at least one handle");
        self.len()
    }
    fn first(&mut self) -> &mut A {
        &mut self[0]
    }
    fn each(&mut self, body: impl Fn(usize, &mut A) -> Committed + Sync) -> Committed {
        let body = &body;
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                self.iter_mut().enumerate().map(|(t, h)| scope.spawn(move || body(t, h))).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .sum()
        })
    }
}

/// Measured counters for one multi-threaded workload execution.
#[derive(Debug, Clone)]
pub struct MtRunReport {
    /// The figure label of the application.
    pub workload: String,
    /// Number of worker threads (= handles).
    pub threads: usize,
    /// Committed transactions across all threads.
    pub commits: u64,
    /// Simulated wall-clock of the timed phase: the maximum per-handle
    /// core-local clock advance (setup and verification are untimed).
    ///
    /// Background maintenance time is *included*: `TxAccess` exposes no
    /// background counter, so on a single-threaded runtime this reads the
    /// same device clock as [`run_app`](crate::run_app) but without the
    /// `TxStats::background_ns` that `run_app` subtracts, and is larger by
    /// exactly that amount (kmeans-low at `Scale::Small` on one `SpecSpmt`:
    /// 24,888,515 here against 24,885,990 from `run_app`).
    pub sim_ns: u64,
    /// Simulated commit throughput, commits per simulated millisecond.
    pub commits_per_ms: f64,
}

/// Result of one multi-threaded workload execution.
#[derive(Debug, Clone)]
pub struct MtAppRun {
    /// Measured counters for the timed transactional phase.
    pub report: MtRunReport,
    /// Verification outcome: the order-independent invariants at every
    /// fleet size, plus the exact sequential-reference checks on a fleet
    /// of one handle.
    pub verified: Result<(), String>,
}

/// Runs `app` at `scale` on real OS threads, one per handle, and measures
/// simulated commit throughput.
///
/// Simulated time is read from each handle's core-local clock before and
/// after the run; the phase cost is the *maximum* per-thread advance, as
/// the slowest thread determines the simulated wall-clock. Lock-conflict
/// retries cost real time but only the retried transaction's simulated
/// work, so throughput stays comparable across thread counts.
///
/// # Panics
///
/// Panics if `handles` is empty.
pub fn run_app_mt<A: TxAccess + Send>(app: StampApp, handles: &mut [A], scale: Scale) -> MtAppRun {
    let threads = handles.len();
    let t0: Vec<u64> = handles.iter().map(|h| h.local_now_ns()).collect();

    let outcome = execute(app, handles, scale);

    let sim_ns = handles
        .iter()
        .zip(&t0)
        .map(|(h, &before)| h.local_now_ns().saturating_sub(before))
        .max()
        .unwrap_or(0);
    let commits = *outcome.as_ref().unwrap_or(&0);
    let commits_per_ms =
        if sim_ns == 0 { 0.0 } else { commits as f64 / (sim_ns as f64 / 1_000_000.0) };

    MtAppRun {
        report: MtRunReport {
            workload: app.name().to_string(),
            threads,
            commits,
            sim_ns,
            commits_per_ms,
        },
        verified: outcome.map(drop),
    }
}
