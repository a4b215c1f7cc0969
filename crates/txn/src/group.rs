//! Group commit: epoch-batched fence sharing for concurrent committers.
//!
//! The per-commit shared path pays a full flush + fence per transaction,
//! so at high thread counts every commit queues behind every other
//! commit's WPQ drain. The paper's epoch-based persist ordering implies
//! the classic fix: committers *stage* their sealed log lines into the
//! current epoch's batch, one of them is elected **combiner** and issues
//! a single coalesced drain for the whole batch, and everyone staged in
//! that epoch receives its commit receipt only after the batch fence
//! retires — durability semantics unchanged, fences amortized. Only
//! transactions with lines to persist ever get here: the runtime commits
//! a write-free transaction without staging, so it neither joins a batch
//! nor wakes a combiner.
//!
//! The protocol is flat combining over a [`Mutex`] + [`Condvar`]:
//!
//! 1. A committer locks the state, records the open epoch as *its* epoch,
//!    appends its line sets to the epoch's staging buffers, and bumps the
//!    staged-transaction count.
//! 2. If no combiner is active, it elects itself: marks combining, closes
//!    the epoch (advances `open_epoch` so later arrivals stage into the
//!    next batch), swaps the staging buffers out, and drops the lock.
//!    It then sorts + dedups the batch and calls the caller-supplied
//!    drain closure (one fused flush+fence per non-empty line set: log
//!    lines first, then in-place data lines — the same fence order the
//!    per-commit path uses). Relocking, it marks the epoch retired,
//!    clears combining, and wakes all waiters.
//! 3. If a combiner *is* active, the committer waits on the condvar until
//!    `retired_epoch` reaches its epoch — at that point its lines are
//!    durable and it returns. The next blocked waiter whose epoch is
//!    still open elects itself combiner for the following batch, so
//!    batches retire strictly in epoch order without a dedicated thread.
//!
//! A combiner drains its epoch as soon as it is elected: it never waits
//! for more arrivals. Batches larger than one form only when commits
//! genuinely overlap (a combiner is mid-drain while others stage). A
//! committer waits at most for the drain in progress and the one covering
//! its epoch, and in the uncontended case a commit costs one mutex round
//! more than the per-commit path, never a timer or scheduling quantum.
//!
//! **Daemon mode** ([`GroupCommitter::set_daemon_combining`] +
//! [`GroupCommitter::drain_next`]) replaces election entirely: a
//! dedicated combiner thread owns every drain and committers only stage,
//! wake it, and wait. This exists because of how the device model (and a
//! real DIMM's write-pending queue) charges fence stalls: the stall is
//! the gap between the fencing thread's own timeline and the media
//! frontier, so when drain duty rotates across N committing threads under
//! flat combining, *every* thread's clock repeatedly catches up to the
//! frontier and the per-commit simulated cost scales with N. Pinning the
//! duty to one thread confines the catch-up to the daemon's timeline —
//! committers pay only staging, and the drain cost shows up once,
//! amortized over the batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What a committer learns from [`GroupCommitter::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupReport {
    /// The epoch this transaction was staged and made durable in.
    pub epoch: u64,
    /// `Some(n)` if this thread was the combiner for its epoch and
    /// drained a batch of `n` staged transactions; `None` for waiters
    /// whose receipt was distributed by another thread's fence.
    pub combined: Option<u64>,
    /// Fence-stall nanoseconds observed by the batch drain (combiner
    /// only; waiters report 0 — their wait is wall-clock, accounted by
    /// the caller's `batch_wait` phase, not simulated device time).
    pub stall_ns: u64,
    /// Line flushes retired by the batch drain (combiner only).
    pub flushes: u64,
}

/// One drained line batch handed to the combiner's closure: the union of
/// the epoch's staged log lines and (for data-persistence configs) staged
/// in-place data lines, each sorted and deduplicated.
#[derive(Debug, Default)]
pub struct GroupBatch {
    /// Coalesced speculative-log lines of every staged transaction.
    pub log_lines: Vec<usize>,
    /// Coalesced in-place data lines (empty unless the runtime persists
    /// data eagerly).
    pub data_lines: Vec<usize>,
    /// Number of transactions staged in the batch.
    pub txs: u64,
}

#[derive(Debug)]
struct GcState {
    /// Epoch currently accepting stagers. Starts at 1 so the initial
    /// `retired_epoch` of 0 means "nothing retired yet".
    open_epoch: u64,
    /// Highest epoch whose batch fence has retired. Epochs retire in
    /// order because `combining` serializes drains.
    retired_epoch: u64,
    /// Whether a combiner is currently draining a closed epoch.
    combining: bool,
    /// Staging buffers for `open_epoch` (unsorted, duplicates allowed —
    /// the combiner coalesces once per batch).
    log_lines: Vec<usize>,
    data_lines: Vec<usize>,
    staged: u64,
    /// Retired buffers parked here for reuse, so steady-state batches
    /// allocate nothing.
    spare_log: Vec<usize>,
    spare_data: Vec<usize>,
}

impl Default for GcState {
    fn default() -> Self {
        Self {
            open_epoch: 1,
            retired_epoch: 0,
            combining: false,
            log_lines: Vec::new(),
            data_lines: Vec::new(),
            staged: 0,
            spare_log: Vec::new(),
            spare_data: Vec::new(),
        }
    }
}

/// Epoch/group-commit combiner shared by a runtime's committing threads.
/// See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct GroupCommitter {
    state: Mutex<GcState>,
    cv: Condvar,
    /// When set, a dedicated combiner thread owns every drain
    /// ([`GroupCommitter::drain_next`]) and stagers never self-elect —
    /// they stage, wake the daemon, and wait for their epoch to retire.
    daemon: AtomicBool,
}

impl GroupCommitter {
    /// Creates a committer with no combiner attached: stagers self-elect.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one sealed transaction's lines and blocks until a batch
    /// fence covering them retires. `drain` is invoked by whichever
    /// thread combines the epoch (possibly this one) with the coalesced
    /// batch; it must flush **and fence** every line in the batch before
    /// returning, and report the fence's `(stall_ns, flushes)` totals.
    ///
    /// The caller may hold its own log-area lock across this call (2PL
    /// holds write locks until the receipt anyway); the combiner itself
    /// takes no locks beyond the committer state and whatever `drain`
    /// acquires internally.
    pub fn commit(
        &self,
        log_lines: &[usize],
        data_lines: &[usize],
        drain: impl FnOnce(&GroupBatch) -> (u64, u64),
    ) -> GroupReport {
        let mut st = self.state.lock().expect("group-commit state");
        let my_epoch = st.open_epoch;
        st.log_lines.extend_from_slice(log_lines);
        st.data_lines.extend_from_slice(data_lines);
        st.staged += 1;
        if st.staged == 1 {
            // First stager of the epoch: wake an idle daemon combiner.
            self.cv.notify_all();
        }
        loop {
            if st.retired_epoch >= my_epoch {
                // A batch fence covering this epoch retired (drained by
                // another thread) — the receipt is ours to take.
                return GroupReport { epoch: my_epoch, combined: None, stall_ns: 0, flushes: 0 };
            }
            if !st.combining && !self.daemon.load(Ordering::Relaxed) {
                // Elect self: close the epoch and drain it now.
                st.combining = true;
                return self.close_and_drain(st, drain);
            }
            st = self.cv.wait(st).expect("group-commit state");
        }
    }

    /// Shared combine tail (self-elected committer or daemon, with
    /// `combining` already set): close the epoch, drain it outside the
    /// lock, retire it, wake everyone.
    fn close_and_drain(
        &self,
        mut st: std::sync::MutexGuard<'_, GcState>,
        drain: impl FnOnce(&GroupBatch) -> (u64, u64),
    ) -> GroupReport {
        let batch_epoch = st.open_epoch;
        st.open_epoch += 1;
        let mut batch = GroupBatch {
            log_lines: std::mem::take(&mut st.log_lines),
            data_lines: std::mem::take(&mut st.data_lines),
            txs: std::mem::replace(&mut st.staged, 0),
        };
        st.log_lines = std::mem::take(&mut st.spare_log);
        st.data_lines = std::mem::take(&mut st.spare_data);
        drop(st);
        batch.log_lines.sort_unstable();
        batch.log_lines.dedup();
        batch.data_lines.sort_unstable();
        batch.data_lines.dedup();
        let (stall_ns, flushes) = drain(&batch);
        let mut st = self.state.lock().expect("group-commit state");
        debug_assert_eq!(st.retired_epoch, batch_epoch - 1, "epochs retire in order");
        st.retired_epoch = batch_epoch;
        st.combining = false;
        // Park the drained buffers for the next epoch's stagers.
        batch.log_lines.clear();
        batch.data_lines.clear();
        st.spare_log = batch.log_lines;
        st.spare_data = batch.data_lines;
        drop(st);
        self.cv.notify_all();
        GroupReport { epoch: batch_epoch, combined: Some(batch.txs), stall_ns, flushes }
    }

    /// Marks (or unmarks) a dedicated combiner thread as attached. While
    /// set, committers never self-elect — they stage, wake the daemon,
    /// and wait — and every batch is drained by the thread calling
    /// [`GroupCommitter::drain_next`]. Clearing the flag wakes all
    /// waiters so flat combining resumes (a stager blocked mid-wait
    /// re-checks and elects itself).
    ///
    /// Why a dedicated combiner at all: under flat combining the drain
    /// duty — and with it the fence stall against the device's media
    /// backlog — rotates across every committing thread, so each
    /// thread's timeline repeatedly catches up to the global media
    /// frontier. Pinning the duty to one thread confines that stall to
    /// the daemon's timeline; committers pay only their own staging
    /// work (see the `commit_sim` phase).
    pub fn set_daemon_combining(&self, on: bool) {
        self.daemon.store(on, Ordering::Relaxed);
        if !on {
            self.cv.notify_all();
        }
    }

    /// Daemon-combiner loop body: waits up to `idle_wait` for staged
    /// transactions, then closes and drains exactly like a self-elected
    /// combiner (`drain` has the same contract as in
    /// [`GroupCommitter::commit`]). Returns `None` when nothing staged
    /// within `idle_wait`, or when a self-elected combiner already owns
    /// the open epoch (possible in the window right after
    /// [`GroupCommitter::set_daemon_combining`] flips on) — the caller
    /// re-checks its stop flag and calls again.
    pub fn drain_next(
        &self,
        idle_wait: Duration,
        drain: impl FnOnce(&GroupBatch) -> (u64, u64),
    ) -> Option<GroupReport> {
        let mut st = self.state.lock().expect("group-commit state");
        if st.staged == 0 || st.combining {
            let (guard, _) = self.cv.wait_timeout(st, idle_wait).expect("group-commit state");
            st = guard;
            if st.staged == 0 || st.combining {
                return None;
            }
        }
        st.combining = true;
        Some(self.close_and_drain(st, drain))
    }

    /// Number of batches retired so far (the current retired epoch).
    pub fn batches_retired(&self) -> u64 {
        self.state.lock().expect("group-commit state").retired_epoch
    }

    /// Transactions currently staged in the open epoch (diagnostic; the
    /// deterministic batching tests use it to hold a combiner's drain
    /// window open until late committers have staged).
    pub fn staged_now(&self) -> u64 {
        self.state.lock().expect("group-commit state").staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// Uncontended commit: the caller combines its own batch of one and
    /// gets the drain's fence report back.
    #[test]
    fn solo_commit_combines_batch_of_one() {
        let gc = GroupCommitter::new();
        let r = gc.commit(&[3, 1, 3], &[], |b| {
            assert_eq!(b.log_lines, vec![1, 3]);
            assert!(b.data_lines.is_empty());
            assert_eq!(b.txs, 1);
            (42, 2)
        });
        assert_eq!(r.combined, Some(1));
        assert_eq!(r.epoch, 1);
        assert_eq!(r.stall_ns, 42);
        assert_eq!(r.flushes, 2);
        assert_eq!(gc.batches_retired(), 1);
        let r2 = gc.commit(&[9], &[], |_| (0, 1));
        assert_eq!(r2.epoch, 2);
        assert_eq!(gc.batches_retired(), 2);
    }

    /// Deterministic batching: thread A's drain closure holds the
    /// combining window open until B, C, and D have all *staged* into
    /// epoch 2 (observed via [`GroupCommitter::staged_now`]). Exactly one
    /// of them then combines a batch of three; the union of their lines
    /// goes through a single drain. B, C and D are spawned only once A is
    /// draining: one that staged ahead of A would elect itself alone.
    #[test]
    fn concurrent_commits_share_one_drain() {
        let gc = Arc::new(GroupCommitter::new());
        let drains = Arc::new(AtomicU64::new(0));
        let (a_draining, a_is_draining) = std::sync::mpsc::channel();
        let a = {
            let (gc, drains) = (gc.clone(), drains.clone());
            thread::spawn(move || {
                let gc2 = gc.clone();
                gc.commit(&[0], &[], |b| {
                    a_draining.send(()).expect("test thread waits for the first drain");
                    // Hold the combining window open until every late
                    // committer has staged into the next epoch.
                    while gc2.staged_now() < 3 {
                        thread::yield_now();
                    }
                    drains.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(b.txs, 1);
                    (0, b.log_lines.len() as u64)
                })
            })
        };
        a_is_draining.recv().expect("first committer reaches its drain");
        let late: Vec<_> = [vec![10, 12], vec![12, 14], vec![16]]
            .into_iter()
            .map(|lines| {
                let (gc, drains) = (gc.clone(), drains.clone());
                thread::spawn(move || {
                    gc.commit(&lines, &[], |b| {
                        drains.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(b.txs, 3, "late committers must share one batch");
                        assert_eq!(b.log_lines, vec![10, 12, 14, 16]);
                        (0, b.log_lines.len() as u64)
                    })
                })
            })
            .collect();
        let ra = a.join().expect("combiner thread");
        assert_eq!(ra.combined, Some(1));
        let reports: Vec<_> = late.into_iter().map(|t| t.join().expect("waiter")).collect();
        assert_eq!(drains.load(Ordering::SeqCst), 2, "exactly two drains for four commits");
        let combiners: Vec<_> = reports.iter().filter(|r| r.combined.is_some()).collect();
        assert_eq!(combiners.len(), 1);
        assert_eq!(combiners[0].combined, Some(3));
        assert!(reports.iter().all(|r| r.epoch == 2));
        assert_eq!(gc.batches_retired(), 2);
    }

    /// Daemon mode: with a dedicated combiner attached, no committer ever
    /// self-elects — every receipt is distributed by the daemon's drain —
    /// and detaching the daemon restores flat combining.
    #[test]
    fn daemon_combiner_owns_every_drain() {
        let gc = Arc::new(GroupCommitter::new());
        gc.set_daemon_combining(true);
        let stop = Arc::new(AtomicU64::new(0));
        let daemon = {
            let (gc, stop) = (gc.clone(), stop.clone());
            thread::spawn(move || {
                let mut drained = 0u64;
                while stop.load(Ordering::SeqCst) == 0 {
                    if let Some(r) =
                        gc.drain_next(Duration::from_millis(1), |b| (0, b.log_lines.len() as u64))
                    {
                        drained += r.combined.expect("daemon drains always combine");
                    }
                }
                drained
            })
        };
        let committers: Vec<_> = (0..4)
            .map(|i| {
                let gc = gc.clone();
                thread::spawn(move || {
                    (0..25)
                        .map(|k| {
                            gc.commit(&[i * 64 + k], &[], |_| unreachable!("daemon owns drains"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for c in committers {
            for r in c.join().expect("committer") {
                assert_eq!(r.combined, None, "no committer self-elects in daemon mode");
            }
        }
        stop.store(1, Ordering::SeqCst);
        gc.set_daemon_combining(false); // also wakes the daemon's idle wait
        let drained = daemon.join().expect("daemon thread");
        assert_eq!(drained, 100, "every commit was covered by a daemon drain");
        // Flat combining resumes once the daemon detaches.
        let r = gc.commit(&[0], &[], |b| (0, b.log_lines.len() as u64));
        assert_eq!(r.combined, Some(1));
    }

    /// Epochs retire strictly in order even when commits keep arriving.
    #[test]
    fn epochs_retire_in_order_under_load() {
        let gc = Arc::new(GroupCommitter::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let gc = gc.clone();
                thread::spawn(move || {
                    let mut epochs = Vec::new();
                    for k in 0..50 {
                        let r = gc.commit(&[i * 64 + k], &[], |b| (0, b.log_lines.len() as u64));
                        epochs.push(r.epoch);
                    }
                    epochs
                })
            })
            .collect();
        for h in handles {
            let epochs = h.join().expect("committer");
            // Per-thread receipts observe non-decreasing epochs.
            assert!(epochs.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
