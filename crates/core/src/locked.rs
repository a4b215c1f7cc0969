//! Strict two-phase locking over the concurrent runtime.
//!
//! The paper leaves concurrency control to the application: SpecPMT's
//! model (Section 4.3.3) requires transactions to coincide with outermost
//! critical sections, so *some* locking discipline must already exist
//! around every transaction. [`LockedTxHandle`] supplies that discipline
//! for workloads that do not bring their own: it wraps a
//! [`TxHandle`] and a [`SharedLockTable`], acquiring the
//! stripe lock for every byte the transaction touches *on access* (growing
//! phase) and releasing everything when the commit or abort record seals
//! (shrinking phase — strict, so nothing is exposed before durability).
//! Under group commit a holder keeps its stripes until the batch drain
//! covering its record retires; the drain thread drains as soon as
//! anything is staged, so no holder waits on a timer.
//!
//! Strictness is also why a transaction that wrote nothing commits for
//! free (see [`TxHandle::commit`](crate::TxHandle::commit)): a stripe is
//! released only after its writer's fence has returned, so every value a
//! transaction can read through this handle is already durable, and one
//! with an empty write set has no durability work of its own. Its read
//! stripes are still held until `commit` returns. The same goes for a
//! doomed transaction whose writes were all dropped: its abort has nothing
//! to restore and costs nothing.
//!
//! Deadlock is impossible by construction: lock acquisition is a **bounded
//! try-lock** — a handle never blocks while holding stripes. When an
//! acquisition gives up, the transaction is *doomed*: subsequent writes
//! are dropped, reads return zeros, and the driver ([`run_tx`]) aborts and
//! retries the body after randomized exponential backoff. The abort path
//! itself only touches addresses the transaction already wrote, i.e.
//! stripes it already holds, so an abort can always complete.

use std::sync::Arc;
use std::time::Instant;

use specpmt_pmem::SplitMix64;
use specpmt_telemetry::Phase;
use specpmt_txn::{CommitReceipt, LockGuard, SharedLockTable, TxAccess};

use crate::concurrent::TxHandle;

pub use specpmt_txn::run_tx;

/// How many times an acquisition retries the stripe CAS before dooming
/// the transaction. Between attempts the handle spins briefly with a
/// per-handle random jitter so that symmetric conflicts do not re-collide
/// in lockstep; past [`YIELD_AFTER_ATTEMPT`] the pauses become scheduler
/// yields. The budget is sized so that waiting out a stripe holder that
/// is waiting for its group-commit batch drain normally succeeds —
/// dooming is the deadlock breaker of last resort, not the common
/// contention outcome. (A single contended stripe cannot deadlock; only
/// multi-stripe cycles need the doom.)
const TRY_LOCK_ATTEMPTS: u32 = 1024;

/// Attempt number past which the inter-attempt pause becomes a scheduler
/// yield instead of a pure spin. Spinning assumes the stripe holder is
/// running on another core; on an oversubscribed host the holder may be
/// descheduled (or blocked until its batch drain retires), and only
/// yielding gives it the core to finish and release. Without this, every
/// contender burns its own quantum spinning, dooms, and retries — a
/// thrash loop in which nobody progresses.
const YIELD_AFTER_ATTEMPT: u32 = 8;

/// A [`TxHandle`] with strict-2PL concurrency control, safe to race
/// against other `LockedTxHandle`s over the same [`SharedLockTable`].
///
/// Drive it through [`TxAccess`] — typically via [`run_tx`], which
/// supplies the abort-and-retry loop:
///
/// ```
/// use specpmt_core::{ConcurrentConfig, LockedTxHandle, SpecSpmtShared};
/// use specpmt_txn::{run_tx, SharedLockTable, TxAccess};
///
/// let shared = SpecSpmtShared::open_or_format(1usize << 20, ConcurrentConfig::default());
/// let locks = SharedLockTable::new(1 << 20, 64);
/// let mut h = LockedTxHandle::new(shared.tx_handle(0), locks);
/// let a = h.setup_alloc(8, 8);
/// run_tx(&mut h, |tx| tx.write_u64(a, 7));
/// assert_eq!(h.read_u64(a), 7);
/// ```
#[derive(Debug)]
pub struct LockedTxHandle {
    inner: TxHandle,
    locks: Arc<SharedLockTable>,
    /// This handle's stripes: empty between transactions, grown by every
    /// access of the open one, released all at once when it seals. One
    /// guard serves every transaction, so acquiring locks allocates
    /// nothing in steady state.
    guard: LockGuard,
    doomed: bool,
    /// Backoff jitter.
    rng: SplitMix64,
}

impl LockedTxHandle {
    /// Wraps `inner` with strict 2PL over `locks`. All handles racing on
    /// the same data must share the same table (and the table must span
    /// every address transactions touch).
    pub fn new(inner: TxHandle, locks: Arc<SharedLockTable>) -> Self {
        let rng = SplitMix64::new(SplitMix64::GAMMA.wrapping_mul(inner.tid() as u64 + 1));
        Self { guard: locks.guard(inner.tid()), inner, locks, doomed: false, rng }
    }

    /// The wrapped handle.
    pub fn inner(&self) -> &TxHandle {
        &self.inner
    }

    /// The shared lock table.
    pub fn locks(&self) -> &Arc<SharedLockTable> {
        &self.locks
    }

    /// Builds a fleet of `n` handles (thread slots `0..n`) over one shared
    /// runtime and one lock table — the standard setup for racing real OS
    /// threads over a shared pool.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the runtime's configured thread count.
    pub fn fleet(
        shared: &Arc<crate::SpecSpmtShared>,
        locks: &Arc<SharedLockTable>,
        n: usize,
    ) -> Vec<LockedTxHandle> {
        (0..n).map(|tid| LockedTxHandle::new(shared.tx_handle(tid), locks.clone())).collect()
    }

    fn next_jitter(&mut self) -> u32 {
        self.rng.next_u64() as u32 & 0x3F
    }

    /// Bounded-try-lock acquisition of `[addr, addr + len)`. Returns
    /// `false` (and dooms the transaction) when the budget is exhausted.
    fn acquire(&mut self, addr: usize, len: usize) -> bool {
        if self.doomed {
            return false;
        }
        // Stripes are only ever released by commit or abort.
        assert!(self.inner.in_tx(), "lock acquisition outside transaction");
        let tid = self.inner.tid();
        // Fast path: the first try-lock succeeds with no clock read, so
        // the uncontended acquisition costs nothing beyond the CAS.
        if self.guard.try_extend(addr, len) {
            return true;
        }
        // Contended path: time the bounded spin so the wait lands in both
        // the table-wide wait histogram and the per-thread `lock_wait`
        // phase.
        let t0 = Instant::now();
        for attempt in 1..TRY_LOCK_ATTEMPTS {
            if attempt > YIELD_AFTER_ATTEMPT {
                std::thread::yield_now();
            } else {
                let spins = attempt + self.next_jitter();
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
            }
            if self.guard.try_extend(addr, len) {
                let wait_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.locks.record_wait_ns(wait_ns);
                let tel = self.inner.shared().telemetry();
                tel.registry.record(tid, Phase::LockWait, wait_ns);
                return true;
            }
        }
        let wait_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.locks.record_wait_ns(wait_ns);
        let tel = self.inner.shared().telemetry();
        tel.registry.record(tid, Phase::LockWait, wait_ns);
        self.doomed = true;
        false
    }

    /// Commits and returns the [`CommitReceipt`] (see [`TxHandle::commit`]),
    /// releasing every stripe after the record seals.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction or if the transaction is doomed
    /// (doomed transactions must [`abort`](Self::abort)).
    pub fn commit(&mut self) -> CommitReceipt {
        assert!(!self.doomed, "commit of a doomed transaction (abort it instead)");
        let receipt = self.inner.commit();
        // Strict 2PL: locks release only after the commit record is
        // durable, so no other thread ever reads speculative state.
        self.guard.release();
        receipt
    }
}

impl TxAccess for LockedTxHandle {
    fn begin(&mut self) {
        self.inner.begin();
        self.doomed = false;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        if self.acquire(addr, data.len()) {
            self.inner.write(addr, data);
        }
        // Doomed: drop the write. The driver will abort and retry.
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        if !self.inner.in_tx() {
            // Outside transactions (setup / verification) reads are
            // unsynchronized direct access, as on the raw handle.
            self.inner.read(addr, buf);
            return;
        }
        // The table has no shared mode: reads take the stripe exclusively
        // (conservative 2PL), which is what makes racing writers testable.
        if self.acquire(addr, buf.len()) {
            self.inner.read(addr, buf);
        } else {
            buf.fill(0);
        }
    }

    fn commit(&mut self) {
        let _ = LockedTxHandle::commit(self);
    }

    fn abort(&mut self) {
        if self.inner.in_tx() {
            // The undo set only names addresses this transaction wrote —
            // stripes it already holds — so the restore always proceeds.
            self.inner.abort();
        }
        self.guard.release();
        self.doomed = false;
    }

    fn alloc(&mut self, size: usize, align: usize) -> usize {
        use specpmt_pmem::BUMP_OFF;
        // The bump pointer is shared mutable state: its log entry must be
        // covered by the same 2PL regime as every other address, otherwise
        // a stale bump could win recovery and overlap live objects.
        if self.acquire(BUMP_OFF, 8) {
            return self.inner.alloc(size, align);
        }
        // Doomed: reserve real (wasted) space so the body can keep using
        // the address harmlessly until the driver aborts; nothing is
        // logged, and the retry performs the durable allocation.
        let r = self.inner.shared().pool().reserve(size, align).expect("pool heap exhausted");
        r.off
    }

    fn free(&mut self, addr: usize, size: usize, align: usize) {
        TxAccess::free(&mut self.inner, addr, size, align);
    }

    fn in_tx(&self) -> bool {
        self.inner.in_tx()
    }

    fn doomed(&self) -> bool {
        self.doomed
    }

    fn compute(&mut self, ns: u64) {
        self.inner.compute(ns);
    }

    fn local_now_ns(&self) -> u64 {
        TxAccess::local_now_ns(&self.inner)
    }

    fn set_timing(&mut self, mode: specpmt_pmem::TimingMode) -> specpmt_pmem::TimingMode {
        self.inner.set_timing(mode)
    }

    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
        self.inner.setup_alloc(bytes, align)
    }

    fn setup_write(&mut self, addr: usize, data: &[u8]) {
        self.inner.setup_write(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentConfig, SpecSpmtShared};
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, SharedPmemDevice, SharedPmemPool};

    fn fixture(threads: usize) -> (Arc<SpecSpmtShared>, Arc<SharedLockTable>) {
        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 22));
        let shared = SpecSpmtShared::open_or_format(
            SharedPmemPool::create(dev),
            ConcurrentConfig::builder().threads(threads).build(),
        );
        let locks = SharedLockTable::new(1 << 22, 64);
        (shared, locks)
    }

    #[test]
    fn locked_commit_releases_all_stripes() {
        let (shared, locks) = fixture(1);
        let mut h = LockedTxHandle::new(shared.tx_handle(0), locks.clone());
        let a = h.setup_alloc(256, 64);
        run_tx(&mut h, |tx| {
            for i in 0..4 {
                tx.write_u64(a + i * 64, i as u64);
            }
        });
        assert_eq!(locks.held_stripes(), 0);
        assert_eq!(h.read_u64(a + 192), 3);
    }

    #[test]
    fn conflicting_handle_is_doomed_then_recovers_by_retry() {
        let (shared, locks) = fixture(2);
        let mut h0 = LockedTxHandle::new(shared.tx_handle(0), locks.clone());
        let mut h1 = LockedTxHandle::new(shared.tx_handle(1), locks.clone());
        let a = h0.setup_alloc(64, 64);
        h0.begin();
        h0.write_u64(a, 1);
        // h1 cannot take the stripe while h0 holds it.
        h1.begin();
        h1.write_u64(a, 2);
        assert!(h1.doomed(), "conflicting write must doom the transaction");
        TxAccess::abort(&mut h1);
        LockedTxHandle::commit(&mut h0);
        // After h0 released, a retry of h1 succeeds.
        run_tx(&mut h1, |tx| tx.write_u64(a, 2));
        assert_eq!(h0.read_u64(a), 2);
        assert_eq!(locks.held_stripes(), 0);
        assert_eq!(shared.stats().aborts, 1);
    }

    #[test]
    fn doomed_reads_return_zero_and_writes_are_dropped() {
        let (shared, locks) = fixture(2);
        let mut h0 = LockedTxHandle::new(shared.tx_handle(0), locks.clone());
        let mut h1 = LockedTxHandle::new(shared.tx_handle(1), locks);
        let a = h0.setup_alloc(64, 64);
        h0.setup_write(a, &7u64.to_le_bytes());
        h0.begin();
        h0.write_u64(a, 8);
        h1.begin();
        assert_eq!(h1.read_u64(a), 0, "doomed read sees zeros, never speculative state");
        assert!(h1.doomed());
        h1.write_u64(a + 8, 9); // dropped
        TxAccess::abort(&mut h1);
        LockedTxHandle::commit(&mut h0);
        assert_eq!(h0.read_u64(a + 8), 0, "doomed write must not reach the pool");
    }

    #[test]
    fn abort_restores_pre_images_across_crash() {
        let (shared, locks) = fixture(1);
        let mut h = LockedTxHandle::new(shared.tx_handle(0), locks);
        let a = h.setup_alloc(64, 64);
        run_tx(&mut h, |tx| tx.write_u64(a, 5));
        h.begin();
        h.write_u64(a, 99);
        TxAccess::abort(&mut h);
        let mut img = shared.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 5, "compensating record restores the committed value");
    }

    #[test]
    fn transactional_alloc_serializes_on_bump_stripe() {
        let (shared, locks) = fixture(2);
        let mut h0 = LockedTxHandle::new(shared.tx_handle(0), locks.clone());
        let mut h1 = LockedTxHandle::new(shared.tx_handle(1), locks);
        let root = h0.setup_alloc(64, 64);
        h0.begin();
        let obj = h0.alloc(32, 8);
        h0.write_u64(root, obj as u64);
        // h1's alloc conflicts on the bump stripe -> doomed, space wasted
        // but no log entry.
        h1.begin();
        let _scratch = h1.alloc(32, 8);
        assert!(h1.doomed());
        TxAccess::abort(&mut h1);
        LockedTxHandle::commit(&mut h0);
        let mut img = shared.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(root) as usize, obj);
    }
}
