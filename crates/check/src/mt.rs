//! Crash-atomicity harness for **real** OS-thread concurrency.
//!
//! Stepping a runtime's per-thread handles round-robin from one thread
//! gives a replayable schedule. This module drives N actual
//! `std::thread`s against one [`SharedPmemDevice`] and still verifies
//! atomic durability: [`run_threads`] runs every transaction inside a
//! crash-epoch [`bracket`], which sorts it as definitely in the image, as
//! the boundary transaction recovery may surface entirely or not at all,
//! or as not run because the image was already taken.
//!
//! Each thread owns a disjoint data region, so per-thread verification is
//! exact: committed transactions must be visible in commit order, the
//! (at most one) boundary transaction must be all-or-nothing, and nothing
//! else may touch the region.

use specpmt_pmem::{CrashControl, CrashImage, CrashPlan, SharedPmemDevice};
use specpmt_txn::TxAccess;

use crate::driver::TxOp;
use crate::{bracket, end_run, Bracket, CommitOracle, RunSummary};

/// How far one thread's stream got, as the crash-epoch bracket saw it.
#[derive(Debug)]
pub struct ThreadRun<H> {
    /// The thread's handle, back from its worker.
    pub handle: H,
    /// How many leading transactions of the stream are definitely in the
    /// image.
    pub definite: usize,
    /// Whether the next transaction's commit overlapped the capture.
    pub boundary: bool,
}

/// Runs `streams[t]` on `handles[t]`, one real thread each: `tx(t, handle,
/// item)` runs one transaction inside a [`bracket`] on `dev`, and a thread
/// stops at its first transaction that is not definite.
///
/// # Panics
///
/// Panics if `handles` and `streams` disagree in length, or a worker
/// panics.
pub fn run_threads<H: Send, T: Sync>(
    dev: &SharedPmemDevice,
    handles: Vec<H>,
    streams: &[Vec<T>],
    tx: impl Fn(usize, &mut H, &T) + Sync,
) -> Vec<ThreadRun<H>> {
    assert_eq!(handles.len(), streams.len(), "one handle per stream");
    let tx = &tx;
    std::thread::scope(|scope| {
        let workers: Vec<_> = handles
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(t, (mut handle, stream))| {
                scope.spawn(move || {
                    let (mut definite, mut boundary) = (0, false);
                    for item in stream {
                        match bracket(dev, || tx(t, &mut handle, item)) {
                            Bracket::Definite => definite += 1,
                            Bracket::Boundary => {
                                boundary = true;
                                break;
                            }
                            Bracket::Frozen => break,
                        }
                    }
                    ThreadRun { handle, definite, boundary }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
    })
}

/// What a multi-threaded crash scenario observed.
#[derive(Debug, Clone)]
pub struct MtScenario {
    /// Definitely-committed transactions per thread.
    pub committed_per_thread: Vec<usize>,
    /// Whether a thread's commit overlapped the image capture (at most one
    /// per thread).
    pub boundary_per_thread: Vec<bool>,
    /// What the run reported.
    pub run: RunSummary,
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
    mut handles: Vec<H>,
    thread_bases: &[usize],
    region_len: usize,
    streams: &[Vec<Vec<TxOp>>],
    plan: CrashPlan,
    recover: fn(&mut CrashImage),
) -> Result<MtScenario, String> {
    assert_eq!(handles.len(), thread_bases.len(), "one base per stream");
    let ops = streams.iter().flatten().flatten();
    assert!(ops.clone().all(|op| op.addr + op.data.len() <= region_len), "op outside region");

    // External-data protocol: one committed snapshot transaction per region
    // before speculative logging may rely on log records to revoke updates.
    let zeros = vec![0u8; region_len];
    for (h, &base) in handles.iter_mut().zip(thread_bases) {
        h.begin();
        h.write(base, &zeros);
        h.commit();
    }

    dev.arm(plan);
    let progress: Vec<(usize, bool)> = run_threads(dev, handles, streams, |t, h, tx| {
        if tx.is_empty() {
            // A write-free transaction reserves no record, so its abort is
            // as free as its commit: drive both.
            h.begin();
            h.abort();
        }
        h.begin();
        for op in tx {
            h.write(thread_bases[t] + op.addr, &op.data);
        }
        h.commit();
    })
    .into_iter()
    .map(|r| (r.definite, r.boundary))
    .collect();

    let (run, mut image) = end_run(dev, |d| *d, |d| d.flush_everything());
    recover(&mut image);

    // Per-thread verification over disjoint regions.
    for (t, (&(definite, boundary), stream)) in progress.iter().zip(streams).enumerate() {
        let base = thread_bases[t];
        let mut oracle = CommitOracle::new();
        oracle.begin();
        oracle.write(base, &zeros);
        oracle.commit();
        for (k, tx) in stream.iter().take(definite + usize::from(boundary)).enumerate() {
            oracle.begin();
            for op in tx {
                oracle.write(base + op.addr, &op.data);
            }
            if k < definite {
                oracle.commit();
            } else {
                oracle.boundary_commit();
            }
        }
        oracle.verify(&image).map_err(|e| format!("thread {t}: {e}"))?;
    }
    Ok(MtScenario {
        committed_per_thread: progress.iter().map(|p| p.0).collect(),
        boundary_per_thread: progress.iter().map(|p| p.1).collect(),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{CrashPolicy, PmemConfig};

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
