//! Group commit: epoch-batched fence sharing for concurrent committers.
//!
//! The per-commit shared path pays a full flush + fence per transaction,
//! so at high thread counts every commit queues behind every other
//! commit's WPQ drain. The paper's epoch-based persist ordering implies
//! the classic fix: committers *stage* their sealed log lines into the
//! current epoch's batch, one drain thread issues a single coalesced
//! drain for the whole batch, and everyone staged in that epoch receives
//! its commit receipt only after the batch fence retires — durability
//! semantics unchanged, fences amortized. Only transactions with lines to
//! persist ever get here: the runtime commits a write-free transaction
//! without staging, so it neither joins a batch nor wakes the drain
//! thread.
//!
//! The protocol is one [`Mutex`] + [`Condvar`] and one drain thread:
//!
//! 1. A committer ([`GroupCommitter::commit`]) locks the state, records
//!    the open epoch as *its* epoch, appends its log lines to the epoch's
//!    staging buffer, bumps the staged-transaction count (the first
//!    stager wakes the drain thread), and waits until `retired_epoch`
//!    reaches its epoch — at that point its lines are durable.
//! 2. The drain thread ([`GroupCommitter::drain_next`]) closes the epoch
//!    (advances `open_epoch` so later arrivals stage into the next batch),
//!    swaps the staging buffer out, and drops the lock. It sorts +
//!    dedups the batch and calls its drain closure (one flush+fence
//!    of the batch's log lines). Relocking, it marks the epoch retired and
//!    wakes every waiter.
//!
//! The drain thread drains an epoch as soon as something is staged in
//! it: it never waits for more arrivals. Batches larger than one form
//! only when commits genuinely overlap (a drain is in progress while
//! others stage), and a committer waits at most for the drain in progress
//! and the one covering its epoch, never a timer.
//!
//! Why one dedicated thread rather than electing a committer: the device
//! model (and a real DIMM's write-pending queue) charges a fence stall as
//! the gap between the fencing thread's own timeline and the media
//! frontier, so drain duty rotating across N committers makes *every*
//! thread's clock catch up to the frontier and the per-commit simulated
//! cost scale with N. Pinning the duty to one thread confines the
//! catch-up to its timeline — committers pay only staging, and the drain
//! cost shows up once, amortized over the batch.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One drained line batch handed to the drain closure: the union of the
/// epoch's staged log lines, sorted and deduplicated.
#[derive(Debug, Default)]
pub struct GroupBatch {
    /// Coalesced speculative-log lines of every staged transaction.
    pub log_lines: Vec<usize>,
    /// Number of transactions staged in the batch.
    pub txs: u64,
}

#[derive(Debug)]
struct GcState {
    /// Epoch currently accepting stagers. Starts at 1 so the initial
    /// `retired_epoch` of 0 means "nothing retired yet".
    open_epoch: u64,
    /// Highest epoch whose batch fence has retired. Epochs retire in
    /// order because one thread drains them.
    retired_epoch: u64,
    /// Staging buffer for `open_epoch` (unsorted, duplicates allowed —
    /// the drain thread coalesces once per batch).
    log_lines: Vec<usize>,
    staged: u64,
    /// The retired buffer parked here for reuse, so steady-state batches
    /// allocate nothing.
    spare: Vec<usize>,
}

impl Default for GcState {
    fn default() -> Self {
        Self {
            open_epoch: 1,
            retired_epoch: 0,
            log_lines: Vec::new(),
            staged: 0,
            spare: Vec::new(),
        }
    }
}

/// Epoch/group-commit state shared by a runtime's committing threads and
/// its one drain thread. See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct GroupCommitter {
    state: Mutex<GcState>,
    cv: Condvar,
}

impl GroupCommitter {
    /// Creates a committer with nothing staged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one sealed transaction's log lines, wakes the drain thread, and
    /// blocks until a batch fence covering them retires. Returns the
    /// epoch the transaction was staged and made durable in.
    ///
    /// Some thread must be calling [`GroupCommitter::drain_next`], or
    /// this never returns. The caller may hold its own log-area lock
    /// across this call (2PL holds write locks until the receipt anyway);
    /// the drain thread takes no locks beyond the committer state and
    /// whatever its closure acquires.
    pub fn commit(&self, log_lines: &[usize]) -> u64 {
        let mut st = self.state.lock().expect("group-commit state");
        let my_epoch = st.open_epoch;
        st.log_lines.extend_from_slice(log_lines);
        st.staged += 1;
        if st.staged == 1 {
            // First stager of the epoch: wake an idle drain thread.
            self.cv.notify_all();
        }
        while st.retired_epoch < my_epoch {
            st = self.cv.wait(st).expect("group-commit state");
        }
        my_epoch
    }

    /// Drain-thread loop body: waits up to `idle_wait` for a staged
    /// transaction, then closes the open epoch, hands the coalesced batch
    /// to `drain` outside the lock, retires the epoch and wakes its
    /// waiters. `drain` must flush **and fence** every line in the batch
    /// before returning; whatever it records lands before any committer
    /// of the batch is released. Returns the batch's transaction count,
    /// or 0 when nothing was staged within `idle_wait`. One thread drains:
    /// epochs retire in the order it closes them.
    pub fn drain_next(&self, idle_wait: Duration, drain: impl FnOnce(&GroupBatch)) -> u64 {
        let mut st = self.state.lock().expect("group-commit state");
        if st.staged == 0 {
            st = self.cv.wait_timeout(st, idle_wait).expect("group-commit state").0;
            if st.staged == 0 {
                return 0;
            }
        }
        let batch_epoch = st.open_epoch;
        st.open_epoch += 1;
        let mut batch = GroupBatch {
            log_lines: std::mem::take(&mut st.log_lines),
            txs: std::mem::replace(&mut st.staged, 0),
        };
        st.log_lines = std::mem::take(&mut st.spare);
        drop(st);
        batch.log_lines.sort_unstable();
        batch.log_lines.dedup();
        drain(&batch);
        let mut st = self.state.lock().expect("group-commit state");
        st.retired_epoch = batch_epoch;
        // Park the drained buffer for the next epoch's stagers.
        batch.log_lines.clear();
        st.spare = batch.log_lines;
        drop(st);
        self.cv.notify_all();
        batch.txs
    }

    /// Number of batches retired so far (the current retired epoch).
    pub fn batches_retired(&self) -> u64 {
        self.state.lock().expect("group-commit state").retired_epoch
    }

    /// Transactions currently staged in the open epoch (diagnostic; the
    /// deterministic batching test uses it to hold a drain open until
    /// late committers have staged).
    pub fn staged_now(&self) -> u64 {
        self.state.lock().expect("group-commit state").staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    /// Runs a drain thread over `gc` inside `body`, handing every batch
    /// to `on_batch`; stops it once `body` returns and yields the batch
    /// sizes it drained, in order.
    fn with_drainer<R>(
        gc: &GroupCommitter,
        mut on_batch: impl FnMut(&GroupBatch) + Send,
        body: impl FnOnce() -> R,
    ) -> (R, Vec<u64>) {
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            let drainer = s.spawn(|| {
                let mut sizes = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let txs = gc.drain_next(Duration::from_millis(1), &mut on_batch);
                    if txs > 0 {
                        sizes.push(txs);
                    }
                }
                sizes
            });
            let out = body();
            stop.store(true, Ordering::SeqCst);
            (out, drainer.join().expect("drain thread"))
        })
    }

    /// Uncontended commit: the drain thread drains a batch of one,
    /// coalesced, and the committer returns once it retires.
    #[test]
    fn solo_commit_is_a_batch_of_one() {
        let gc = GroupCommitter::new();
        let mut seen = Vec::new();
        let (epochs, sizes) = with_drainer(
            &gc,
            |b| seen.push(b.log_lines.clone()),
            || [gc.commit(&[3, 1, 3]), gc.commit(&[9, 9])],
        );
        assert_eq!(epochs, [1, 2]);
        assert_eq!(sizes, [1, 1]);
        assert_eq!(seen, [vec![1, 3], vec![9]]);
        assert_eq!(gc.batches_retired(), 2);
    }

    /// Deterministic batching: the first batch's drain is held open until
    /// three late committers have all *staged* into epoch 2 (observed via
    /// [`GroupCommitter::staged_now`]); the union of their lines then goes
    /// through a single drain. The late committers are spawned only once
    /// the first drain is running, so none of them can join epoch 1.
    #[test]
    fn concurrent_commits_share_one_drain() {
        let gc = GroupCommitter::new();
        let (first_draining, first_is_draining) = std::sync::mpsc::channel();
        let mut batches = Vec::new();
        let on_batch = |b: &GroupBatch| {
            if batches.is_empty() {
                first_draining.send(()).expect("the test waits for the first drain");
                while gc.staged_now() < 3 {
                    thread::yield_now();
                }
            }
            batches.push((b.txs, b.log_lines.clone()));
        };
        let (epochs, sizes) = with_drainer(&gc, on_batch, || {
            thread::scope(|s| {
                let first = s.spawn(|| gc.commit(&[0]));
                first_is_draining.recv().expect("the first commit reaches its drain");
                let late: Vec<_> = [vec![10, 12], vec![12, 14], vec![16]]
                    .into_iter()
                    .map(|lines| {
                        let gc = &gc;
                        s.spawn(move || gc.commit(&lines))
                    })
                    .collect();
                let mut epochs = vec![first.join().expect("first committer")];
                epochs.extend(late.into_iter().map(|t| t.join().expect("late committer")));
                epochs
            })
        });
        assert_eq!(epochs, [1, 2, 2, 2], "the late committers share epoch 2");
        assert_eq!(sizes, [1, 3], "exactly two drains for four commits");
        assert_eq!(batches, [(1, vec![0]), (3, vec![10, 12, 14, 16])]);
        assert_eq!(gc.batches_retired(), 2);
    }

    /// Epochs retire strictly in order even when commits keep arriving:
    /// each thread's receipts name strictly increasing epochs (its next
    /// commit stages only after the previous one retired), and the
    /// batches cover every commit exactly once.
    #[test]
    fn epochs_retire_in_order_under_load() {
        let gc = GroupCommitter::new();
        let (per_thread, sizes) = with_drainer(
            &gc,
            |_| {},
            || {
                thread::scope(|s| {
                    let committers: Vec<_> = (0..8)
                        .map(|i| {
                            let gc = &gc;
                            s.spawn(move || {
                                (0..50).map(|k| gc.commit(&[i * 64 + k])).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    committers.into_iter().map(|c| c.join().expect("committer")).collect::<Vec<_>>()
                })
            },
        );
        for epochs in per_thread {
            assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
        }
        assert_eq!(sizes.iter().sum::<u64>(), 400, "every commit drained once");
        assert_eq!(gc.batches_retired(), sizes.len() as u64);
    }
}
