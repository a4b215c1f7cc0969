//! Strict two-phase locking for multi-threaded transactions (paper
//! Section 4.3.3).
//!
//! SpecPMT provides atomic durability and leaves isolation to the software;
//! the paper names strict two-phase locking as one compatible scheme and
//! requires transactions to coincide with the outermost critical sections.
//! [`SharedLockTable`] is that scheme for real OS threads: striped address
//! locks acquired incrementally during the transaction (growing phase) and
//! released only when the RAII [`LockGuard`] drops after commit or abort
//! (shrinking phase — all at once, so strictness is structural, not a
//! caller convention).
//!
//! The composition with a runtime lives in `specpmt-core`'s
//! `LockedTxHandle`, which dooms the transaction after a bounded try-lock
//! (threads cannot be descheduled mid-transaction from outside).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use specpmt_telemetry::{Histogram, HistogramSnapshot, JsonWriter, StatExport};

/// A stripe owner cell: 0 = free, `tid + 1` = held.
const FREE: usize = 0;

/// Contention counters of a [`SharedLockTable`] (the stripe-size study's
/// raw material: how often `try_extend` succeeded vs hit a stripe held by
/// another thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockTableStats {
    /// Successful `try_extend` calls (all requested stripes acquired). A
    /// guard counts its own and folds them in when it releases, so the
    /// figure is exact whenever no transaction is in flight and lags an
    /// open one by at most its acquisitions so far.
    pub acquires: u64,
    /// Failed `try_extend` calls (a requested stripe was held by another
    /// thread; newly acquired stripes were rolled back).
    pub conflicts: u64,
}

impl LockTableStats {
    /// Fraction of `try_extend` calls that hit a foreign-held stripe
    /// (0.0 when the table was never exercised).
    pub fn conflict_rate(&self) -> f64 {
        let total = self.acquires + self.conflicts;
        if total == 0 {
            0.0
        } else {
            self.conflicts as f64 / total as f64
        }
    }

    /// Difference `self - earlier`, for measuring a phase (saturating:
    /// crossed snapshots clamp to 0 instead of wrapping).
    #[must_use]
    pub fn delta_since(&self, earlier: &LockTableStats) -> LockTableStats {
        LockTableStats {
            acquires: self.acquires.saturating_sub(earlier.acquires),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
        }
    }
}

impl StatExport for LockTableStats {
    fn export_name(&self) -> &'static str {
        "locks"
    }

    fn emit(&self, w: &mut JsonWriter) {
        w.field_u64("acquires", self.acquires);
        w.field_u64("conflicts", self.conflicts);
        w.field_f64("conflict_rate", self.conflict_rate());
    }
}

/// Thread-safe striped address lock table.
///
/// Stripes are exclusive (no reader/writer distinction — SpecPMT
/// workloads read what they may write) and tracked per [`LockGuard`], so
/// release is impossible to forget: dropping the guard frees exactly the
/// stripes it acquired. Share the table across threads via [`Arc`].
#[derive(Debug)]
pub struct SharedLockTable {
    stripe_bytes: usize,
    owners: Vec<AtomicUsize>,
    acquires: AtomicU64,
    conflicts: AtomicU64,
    /// Nanoseconds a transaction spent waiting (spinning/backing off)
    /// before its stripes were acquired or it gave up. Fed by the
    /// retrying caller (`LockedTxHandle`), since only the caller knows
    /// when the wait started.
    wait_ns: Histogram,
}

impl SharedLockTable {
    /// Creates a table covering `span_bytes` of address space in stripes
    /// of `stripe_bytes` (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `stripe_bytes` is not a power of two or zero.
    pub fn new(span_bytes: usize, stripe_bytes: usize) -> Arc<Self> {
        assert!(stripe_bytes.is_power_of_two() && stripe_bytes > 0);
        let stripes = span_bytes.div_ceil(stripe_bytes).max(1);
        Arc::new(Self {
            stripe_bytes,
            owners: (0..stripes).map(|_| AtomicUsize::new(FREE)).collect(),
            acquires: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            wait_ns: Histogram::new(),
        })
    }

    /// The stripe size this table was built with.
    pub fn stripe_bytes(&self) -> usize {
        self.stripe_bytes
    }

    /// Snapshot of the contention counters.
    pub fn stats(&self) -> LockTableStats {
        LockTableStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
        }
    }

    /// Records one observed lock-acquisition wait (nanoseconds a caller
    /// spent between its first failed `try_extend` and the final outcome
    /// — acquisition, doom, or give-up). Zero-wait acquisitions need not
    /// be recorded, so the histogram summarizes *contended* waits.
    pub fn record_wait_ns(&self, ns: u64) {
        self.wait_ns.record(ns);
    }

    /// Merged snapshot of the lock-wait histogram.
    pub fn wait_histogram(&self) -> HistogramSnapshot {
        self.wait_ns.snapshot()
    }

    /// Opens an empty guard for `tid`: the handle through which a
    /// transaction acquires stripes. Strict 2PL falls out of its use —
    /// [`LockGuard::release`] (or drop) it only after commit or abort. A
    /// thread running one transaction after another keeps one guard and
    /// releases it between them, so steady-state acquisition allocates
    /// nothing and never touches the table's reference count.
    pub fn guard(self: &Arc<Self>, tid: usize) -> LockGuard {
        LockGuard { table: Arc::clone(self), tid, held: Vec::new(), acquires: 0 }
    }

    fn stripe_range(&self, addr: usize, len: usize) -> std::ops::RangeInclusive<usize> {
        let first = addr / self.stripe_bytes;
        let last = if len == 0 { first } else { (addr + len - 1) / self.stripe_bytes };
        first..=last.min(self.owners.len() - 1)
    }

    /// Number of stripes currently held by anyone.
    pub fn held_stripes(&self) -> usize {
        self.owners.iter().filter(|o| o.load(Ordering::Relaxed) != FREE).count()
    }

    /// Number of stripes currently held by `tid`.
    pub fn held_by(&self, tid: usize) -> usize {
        self.owners.iter().filter(|o| o.load(Ordering::Relaxed) == tid + 1).count()
    }
}

/// RAII ownership of lock-table stripes for one transaction at a time.
///
/// Acquired stripes are released all at once — on
/// [`release`](Self::release), which leaves the guard empty and ready for
/// the next transaction, or on drop. There is no way to release part of a
/// guard, which is what makes the locking *strict* two-phase by
/// construction.
#[derive(Debug)]
pub struct LockGuard {
    table: Arc<SharedLockTable>,
    tid: usize,
    held: Vec<usize>,
    /// Successful `try_extend` calls since the last release: the guard is
    /// their only writer, so they are counted here and reach the table's
    /// shared counter in one add per transaction instead of one per access.
    acquires: u64,
}

impl LockGuard {
    /// Attempts to add every stripe of `[addr, addr + len)` to the guard.
    /// All-or-nothing: on conflict, stripes newly acquired by this call
    /// are rolled back and `false` is returned (stripes already held are
    /// kept — the growing phase never shrinks).
    pub fn try_extend(&mut self, addr: usize, len: usize) -> bool {
        let range = self.table.stripe_range(addr, len);
        // Stripes claimed by this call sit past `before`; a conflict rolls
        // back by truncating to it.
        let before = self.held.len();
        for s in range {
            if self.held.contains(&s) {
                continue; // reentrant within this transaction
            }
            let claimed = self.table.owners[s]
                .compare_exchange(FREE, self.tid + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
            if claimed {
                self.held.push(s);
            } else {
                self.free_from(before);
                self.table.conflicts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        self.acquires += 1;
        true
    }

    /// Frees the stripes in `held[from..]` and forgets them.
    fn free_from(&mut self, from: usize) {
        for &s in &self.held[from..] {
            self.table.owners[s].store(FREE, Ordering::Release);
        }
        self.held.truncate(from);
    }

    /// Shrinking phase: releases every stripe, exactly as dropping the
    /// guard does, and folds this transaction's acquisition count into the
    /// table. The guard stays usable (its stripe buffer keeps its
    /// capacity).
    pub fn release(&mut self) {
        self.free_from(0);
        if self.acquires > 0 {
            self.table.acquires.fetch_add(std::mem::take(&mut self.acquires), Ordering::Relaxed);
        }
    }

    /// Whether this guard holds the stripe containing `addr`.
    pub fn covers(&self, addr: usize) -> bool {
        self.held.contains(&(addr / self.table.stripe_bytes))
    }

    /// The owning thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of stripes this guard holds.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_extend_is_all_or_nothing() {
        let t = SharedLockTable::new(1024, 64);
        let mut g0 = t.guard(0);
        assert!(g0.try_extend(100, 8));
        // Thread 1 wants stripes 0..=2; stripe 1 is held by thread 0.
        let mut g1 = t.guard(1);
        assert!(!g1.try_extend(0, 200));
        assert_eq!(g1.held(), 0, "failed acquisition must not retain stripes");
        assert_eq!(t.held_by(1), 0);
        assert!(g0.covers(100));
    }

    #[test]
    fn reentrant_within_one_guard() {
        let t = SharedLockTable::new(1024, 64);
        let mut g = t.guard(0);
        assert!(g.try_extend(0, 64));
        assert!(g.try_extend(0, 128), "own stripes are re-acquirable");
        assert_eq!(g.held(), 2);
    }

    #[test]
    fn drop_releases_everything() {
        let t = SharedLockTable::new(1024, 64);
        {
            let mut g = t.guard(0);
            assert!(g.try_extend(0, 512));
            assert!(t.held_stripes() > 0);
        }
        assert_eq!(t.held_stripes(), 0, "guard drop must free all stripes");
        let mut g1 = t.guard(1);
        assert!(g1.try_extend(0, 512));
    }

    #[test]
    fn released_guard_is_reused_without_carrying_stripes() {
        let t = SharedLockTable::new(1024, 64);
        let mut g = t.guard(0);
        assert!(g.try_extend(0, 256));
        g.release();
        assert_eq!(t.held_stripes(), 0, "release frees like drop");
        assert_eq!(g.held(), 0);
        assert!(!g.covers(0));
        assert!(g.try_extend(512, 8));
        assert_eq!(t.held_by(0), 1);
    }

    #[test]
    fn partial_rollback_keeps_earlier_stripes() {
        let t = SharedLockTable::new(1024, 64);
        let mut blocker = t.guard(1);
        assert!(blocker.try_extend(256, 8)); // stripe 4
        let mut g = t.guard(0);
        assert!(g.try_extend(0, 64)); // stripe 0: growing phase
        assert!(!g.try_extend(128, 256), "conflicts with stripe 4");
        assert!(g.covers(0), "earlier stripes survive a failed extend");
        assert_eq!(t.held_by(0), 1);
        assert_eq!(t.held_by(1), 1);
    }

    #[test]
    fn zero_length_locks_single_stripe() {
        let t = SharedLockTable::new(1024, 64);
        let mut g = t.guard(0);
        assert!(g.try_extend(70, 0));
        assert!(g.covers(70));
        assert!(!g.covers(0));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_stripe_panics() {
        SharedLockTable::new(1024, 48);
    }

    #[test]
    fn concurrent_guards_never_share_a_stripe() {
        let t = SharedLockTable::new(4096, 64);
        let won = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..4 {
                let t = Arc::clone(&t);
                let won = &won;
                s.spawn(move || {
                    for _ in 0..200 {
                        let mut g = t.guard(tid);
                        if g.try_extend(512, 64) {
                            won.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(t.held_by(tid), 1);
                        }
                    }
                });
            }
        });
        assert!(won.load(Ordering::Relaxed) > 0);
        assert_eq!(t.held_stripes(), 0);
    }

    #[test]
    fn stats_count_acquires_and_conflicts() {
        let t = SharedLockTable::new(1024, 64);
        assert_eq!(t.stripe_bytes(), 64);
        assert_eq!(t.stats(), LockTableStats::default());
        let mut g0 = t.guard(0);
        assert!(g0.try_extend(0, 64));
        let mut g1 = t.guard(1);
        assert!(!g1.try_extend(0, 8));
        assert_eq!(t.stats().conflicts, 1, "conflicts are counted as they happen");
        assert!(g1.try_extend(512, 8));
        drop((g0, g1));
        let st = t.stats();
        assert_eq!(st.acquires, 2);
        assert_eq!(st.conflicts, 1);
        assert!((st.conflict_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn acquires_fold_in_once_per_transaction_and_are_exact_after_release() {
        let t = SharedLockTable::new(1024, 64);
        let mut g = t.guard(0);
        for tx in 1..=3u64 {
            for i in 0..4 {
                assert!(g.try_extend(i * 64, 8));
            }
            assert!(g.try_extend(0, 8), "a reentrant extend is an acquire too");
            assert_eq!(
                t.stats().acquires,
                (tx - 1) * 5,
                "nothing reaches the table mid-transaction"
            );
            g.release();
            assert_eq!(t.stats().acquires, tx * 5, "exact once the transaction released");
        }
        g.release();
        assert_eq!(t.stats().acquires, 15, "an empty release folds nothing");
    }

    #[test]
    fn wait_histogram_accumulates() {
        let t = SharedLockTable::new(1024, 64);
        assert_eq!(t.wait_histogram().count(), 0);
        t.record_wait_ns(100);
        t.record_wait_ns(3000);
        let h = t.wait_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 3000);
        assert_eq!(h.sum, 3100);
    }

    #[test]
    fn stats_delta_saturates_and_emits() {
        let a = LockTableStats { acquires: 10, conflicts: 2 };
        let b = LockTableStats { acquires: 4, conflicts: 5 };
        let d = a.delta_since(&b);
        assert_eq!(d.acquires, 6);
        assert_eq!(d.conflicts, 0, "crossed snapshot clamps to zero");
        let j = a.to_json();
        assert!(j.contains("\"acquires\":10"), "{j}");
        assert!(j.contains("\"conflict_rate\":"), "{j}");
    }
}
