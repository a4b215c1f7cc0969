//! Crash-atomicity harness for **real** OS-thread concurrency.
//!
//! Stepping a runtime's per-thread handles round-robin from one thread
//! gives a replayable schedule. This module drives N actual
//! `std::thread`s against one [`SharedPmemDevice`] and still verifies
//! atomic durability, using the
//! device's *crash-epoch bracketing* protocol
//! ([`CrashControl::observe`]):
//!
//! * observe `(e0, f0)` before a transaction and `(e1, _)` after its commit
//!   fence;
//! * `f0 == false`, `e0` even, and `e1 == e0` ⇒ no image capture started
//!   anywhere inside the bracket ⇒ the transaction is **definitely**
//!   contained in any image captured later;
//! * otherwise a capture overlapped the transaction ⇒ it is a *boundary*
//!   case that recovery may surface entirely or not at all.
//!
//! Each thread owns a disjoint data region, so per-thread verification is
//! exact: committed transactions must be visible in commit order, the
//! (at most one) boundary transaction must be all-or-nothing, and nothing
//! else may touch the region.

use specpmt_pmem::{CrashControl, CrashImage, CrashPlan, CrashPolicy, SharedPmemDevice};

use crate::driver::{verify_recovered, ScenarioOutcome, TxOp};
use crate::{CommitOracle, TxAccess};

/// Per-thread execution outcome: the definitely-committed transactions, and
/// the at-most-one transaction whose commit overlapped the image capture
/// (all-or-nothing at recovery).
type ThreadOutcome = (Vec<Vec<TxOp>>, Option<Vec<TxOp>>);

/// What a multi-threaded crash scenario observed.
#[derive(Debug, Clone)]
pub struct MtScenario {
    /// Definitely-committed transactions per thread.
    pub committed_per_thread: Vec<usize>,
    /// Whether a thread's commit overlapped the image capture (at most one
    /// per thread).
    pub boundary_per_thread: Vec<bool>,
    /// Whether the armed crash fired during the run.
    pub crash_fired: bool,
    /// The `(site, hit)` a labeled plan fired at (`None` for fuel plans
    /// or when the crash never fired).
    pub fired_at: Option<(&'static str, u64)>,
    /// Labeled-site hit counts observed during the run (empty for fuel
    /// plans, which bypass site counting).
    pub site_hits: Vec<(&'static str, u64)>,
}

/// Runs per-thread transaction streams on real OS threads with `plan`
/// armed on the shared device (fuel burns on any thread; labeled targets
/// count hits globally in arrival order), then recovers the image with
/// `recover` and verifies per-thread atomic durability.
///
/// `handles[t]` (moved into worker thread `t`, hence `Send`) drives that
/// thread's stream into the disjoint region
/// `[thread_bases[t], thread_bases[t] + region_len)`; stream addresses are
/// region-relative. Each region gets one committed snapshot transaction of
/// zeros first (the paper's external-data protocol) before the crash is
/// armed.
///
/// # Errors
///
/// Returns a description of the first atomicity violation.
///
/// # Panics
///
/// Panics if `handles`, `thread_bases`, and `streams` disagree in length,
/// or if a stream op exceeds `region_len`.
#[allow(clippy::too_many_arguments)] // harness entry point: the scenario *is* seven knobs
pub fn check_mt_crash_atomicity<H: TxAccess + Send>(
    dev: &SharedPmemDevice,
    handles: Vec<H>,
    thread_bases: &[usize],
    region_len: usize,
    streams: &[Vec<Vec<TxOp>>],
    plan: CrashPlan,
    recover: fn(&mut CrashImage),
) -> Result<MtScenario, String> {
    assert_eq!(handles.len(), streams.len(), "one handle per stream");
    assert_eq!(handles.len(), thread_bases.len(), "one base per stream");
    for (stream, &base) in streams.iter().zip(thread_bases) {
        for tx in stream {
            for op in tx {
                assert!(op.addr + op.data.len() <= region_len, "op outside region");
                let _ = base;
            }
        }
    }

    // External-data protocol: one committed snapshot transaction per region
    // before speculative logging may rely on log records to revoke updates.
    let zeros = vec![0u8; region_len];
    let mut handles = handles;
    for (h, &base) in handles.iter_mut().zip(thread_bases) {
        h.begin();
        h.write(base, &zeros);
        h.commit();
    }

    dev.arm(plan);

    // Execution: real threads, epoch-bracketed commits.
    let results: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for ((mut h, stream), &base) in handles.into_iter().zip(streams.iter()).zip(thread_bases) {
            let dev = dev.clone();
            workers.push(scope.spawn(move || {
                let mut committed: Vec<Vec<TxOp>> = Vec::new();
                let mut boundary: Option<Vec<TxOp>> = None;
                for tx in stream {
                    let (e0, f0) = dev.observe();
                    if f0 {
                        // Image already frozen: nothing later can be in it.
                        break;
                    }
                    if tx.is_empty() {
                        // A write-free transaction reserves no record, so
                        // its abort is as free as its commit: drive both.
                        h.begin();
                        h.abort();
                    }
                    h.begin();
                    for op in tx {
                        h.write(base + op.addr, &op.data);
                    }
                    h.commit();
                    let (e1, _) = dev.observe();
                    if e0 % 2 == 0 && e1 == e0 {
                        committed.push(tx.clone());
                    } else {
                        boundary = Some(tx.clone());
                        break;
                    }
                }
                (committed, boundary)
            }));
        }
        workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
    });

    // Image: the fired capture, or an adversarial post-shutdown image when
    // the stream ended first.
    let crash_fired = dev.fired();
    let (fired_at, site_hits) = (dev.fired_at(), dev.site_hits());
    let mut image = match dev.take_image() {
        Some(img) => img,
        None => {
            dev.flush_everything();
            dev.capture(CrashPolicy::AllLost)
        }
    };
    recover(&mut image);

    // Per-thread verification over disjoint regions.
    let mut committed_per_thread = Vec::with_capacity(results.len());
    let mut boundary_per_thread = Vec::with_capacity(results.len());
    for (tid, ((committed, boundary), &base)) in results.iter().zip(thread_bases).enumerate() {
        let mut oracle = CommitOracle::new();
        oracle.begin();
        oracle.write(base, &zeros);
        oracle.commit();
        for tx in committed {
            oracle.begin();
            for op in tx {
                oracle.write(base + op.addr, &op.data);
            }
            oracle.commit();
        }
        let outcome = ScenarioOutcome {
            image: None,
            committed_txs: committed.len(),
            boundary: boundary.clone(),
            oracle,
            region_base: base,
            fired_at,
            site_hits: Vec::new(),
        };
        verify_recovered(&outcome, &image).map_err(|e| format!("thread {tid}: {e}"))?;
        committed_per_thread.push(committed.len());
        boundary_per_thread.push(boundary.is_some());
    }
    Ok(MtScenario { committed_per_thread, boundary_per_thread, crash_fired, fired_at, site_hits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::PmemConfig;

    /// A deliberately naive runtime for harness self-tests: in-place writes
    /// with immediate per-op persistence and an undo set discarded at
    /// commit. Commits are atomic per-op, so single-op transactions pass
    /// and multi-op boundary transactions can violate atomicity — which the
    /// harness must detect.
    struct NaiveTx {
        dev: specpmt_pmem::DeviceHandle,
        epoch_src: SharedPmemDevice,
    }

    impl TxAccess for NaiveTx {
        fn begin(&mut self) {}
        fn write(&mut self, addr: usize, data: &[u8]) {
            self.dev.write(addr, data);
            self.dev.persist_range(addr, data.len());
        }
        fn commit(&mut self) {
            let _ = &self.epoch_src;
        }
        fn abort(&mut self) {
            unreachable!("the self-test streams always write");
        }
        // The harness drives begin / write / commit / abort and nothing else.
        fn read(&mut self, _: usize, _: &mut [u8]) {
            unreachable!()
        }
        fn alloc(&mut self, _: usize, _: usize) -> usize {
            unreachable!()
        }
        fn free(&mut self, _: usize, _: usize, _: usize) {
            unreachable!()
        }
        fn in_tx(&self) -> bool {
            unreachable!()
        }
        fn compute(&mut self, _: u64) {
            unreachable!()
        }
        fn local_now_ns(&self) -> u64 {
            unreachable!()
        }
        fn set_timing(&mut self, _: specpmt_pmem::TimingMode) -> specpmt_pmem::TimingMode {
            unreachable!()
        }
        fn setup_alloc(&mut self, _: usize, _: usize) -> usize {
            unreachable!()
        }
        fn setup_write(&mut self, _: usize, _: &[u8]) {
            unreachable!()
        }
    }

    fn naive_pair(dev: &SharedPmemDevice, n: usize) -> Vec<NaiveTx> {
        (0..n).map(|_| NaiveTx { dev: dev.handle(), epoch_src: dev.clone() }).collect()
    }

    fn no_recover(_img: &mut CrashImage) {}

    #[test]
    fn single_op_streams_verify_on_naive_runtime() {
        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 16));
        let streams: Vec<Vec<Vec<TxOp>>> = (0..2)
            .map(|t| {
                (0..10u8).map(|i| vec![TxOp { addr: 0, data: vec![t as u8 * 16 + i] }]).collect()
            })
            .collect();
        let handles = naive_pair(&dev, 2);
        let out = check_mt_crash_atomicity(
            &dev,
            handles,
            &[256, 512],
            64,
            &streams,
            CrashPlan::after_ops(40).with_policy(CrashPolicy::AllLost),
            no_recover,
        )
        .expect("single-op txs are atomic under per-op persistence");
        assert_eq!(out.committed_per_thread.len(), 2);
    }

    #[test]
    fn harness_detects_torn_multi_op_commit() {
        // A multi-op transaction torn mid-way must be flagged somewhere in
        // a sweep of crash points (the naive runtime has no atomicity).
        let mut violated = false;
        for crash_after in 1..24 {
            let dev = SharedPmemDevice::new(PmemConfig::new(1 << 16));
            let streams: Vec<Vec<Vec<TxOp>>> = vec![(0..8u8)
                .map(|i| {
                    vec![TxOp { addr: 0, data: vec![i + 1] }, TxOp { addr: 32, data: vec![i + 1] }]
                })
                .collect()];
            let handles = naive_pair(&dev, 1);
            if check_mt_crash_atomicity(
                &dev,
                handles,
                &[256],
                64,
                &streams,
                CrashPlan::after_ops(crash_after).with_policy(CrashPolicy::AllLost),
                no_recover,
            )
            .is_err()
            {
                violated = true;
                break;
            }
        }
        assert!(violated, "harness failed to flag a non-atomic runtime");
    }
}
