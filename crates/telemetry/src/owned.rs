//! Single-writer statistics cells: the one primitive behind every
//! per-owner counter, timeline and histogram in the workspace.
//!
//! A shared [`crate::Histogram`] pays a lock-prefixed read-modify-write per
//! update so that any number of threads may record into it. Most of our
//! statistics have exactly **one** writer — a device handle's timeline, a
//! transaction handle's commit count, a kv worker's latency histograms —
//! and only ever meet other threads when somebody *reads* them. For those,
//! an update is a relaxed load, an add and a relaxed store (plain `mov`s on
//! x86-64: no bus lock, no cache line bouncing between writers), and the
//! reader merges the owners' cells when it asks.
//!
//! The contract is **one writer at a time**; the owner enforces it (a
//! `!Sync` handle, a `&mut` receiver, a slot only one thread may drive).
//! Everything is still an atomic, so a broken contract loses updates — it
//! is never undefined behaviour — and readers on other threads always see
//! some value the owner stored. `Relaxed` is enough because a cell
//! publishes no other data: it is a statistic, never a flag that guards
//! memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{bucket_of, HistogramSnapshot, BUCKETS};

/// A `u64` written by exactly one owner and readable by anyone.
#[derive(Debug, Default)]
pub struct OwnedCounter(AtomicU64);

impl OwnedCounter {
    /// Adds `n` and returns the new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        let v = self.0.load(Ordering::Relaxed) + n;
        self.0.store(v, Ordering::Relaxed);
        v
    }

    /// Raises the value to at least `v` (a running maximum).
    #[inline]
    pub fn raise(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// The last value the owner stored.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2 histogram (same buckets as [`crate::Histogram`]) recorded into
/// by exactly one owner; readers take [`HistogramSnapshot`]s and merge
/// them across owners.
#[derive(Debug)]
pub struct OwnedHistogram {
    buckets: [OwnedCounter; BUCKETS],
    sum: OwnedCounter,
    max: OwnedCounter,
}

impl Default for OwnedHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| OwnedCounter::default()),
            sum: OwnedCounter::default(),
            max: OwnedCounter::default(),
        }
    }
}

impl OwnedHistogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].add(1);
        self.sum.add(v);
        self.max.raise(v);
    }

    /// Folds another owner's observations into this histogram (exact:
    /// bucket-wise add), for an owner that retires into a longer-lived one.
    pub fn absorb(&self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets) {
            mine.add(theirs);
        }
        self.sum.add(other.sum);
        self.max.raise(other.max);
    }

    /// Copies the current state into an owned, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
            sum: self.sum.get(),
            max: self.max.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn counter_adds_raises_and_reads() {
        let c = OwnedCounter::default();
        assert_eq!(c.add(5), 5);
        assert_eq!(c.add(2), 7);
        c.raise(3);
        assert_eq!(c.get(), 7, "raise never lowers");
        c.raise(11);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn owned_histogram_snapshots_like_the_shared_one() {
        let owned = OwnedHistogram::default();
        let shared = Histogram::new();
        for v in [0, 1, 7, 8, 1000, u64::from(u32::MAX)] {
            owned.record(v);
            shared.record(v);
        }
        assert_eq!(owned.snapshot(), shared.snapshot());
        let both = OwnedHistogram::default();
        both.record(3);
        both.absorb(&owned.snapshot());
        shared.record(3);
        assert_eq!(both.snapshot(), shared.snapshot(), "absorbing is recording the same values");
    }

    #[test]
    fn another_thread_reads_what_the_owner_stored() {
        let h = OwnedHistogram::default();
        let c = OwnedCounter::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 1..=1000u64 {
                    h.record(v);
                    c.add(1);
                }
            });
        });
        // The scope's join orders the owner's stores before these reads.
        assert_eq!(c.get(), 1000);
        let snap = h.snapshot();
        assert_eq!((snap.count(), snap.sum, snap.max), (1000, 500_500, 1000));
    }
}
