//! The [`TxAccess`] trait: the runtime-agnostic transaction surface.
//!
//! Workload code (the STAMP minis, the microbenchmarks) is written once
//! against this trait and driven by either kind of runtime:
//!
//! * the single-threaded [`crate::TxRuntime`] implementors (software
//!   SpecPMT, the baselines, the hardware models), where `TxAccess` is a
//!   supertrait — the deterministic path used for crash search and the
//!   figure benchmarks;
//! * the concurrent per-thread handles (`LockedTxHandle` in
//!   `specpmt-core`), where real OS threads race over one shared pool
//!   under strict two-phase locking.
//!
//! The split keeps `TxRuntime` for what only a whole single-threaded
//! runtime can offer (exclusive pool access, runtime-wide stats) while
//! everything a *transaction body* needs lives here, exactly once.
//!
//! # Dooming and retry
//!
//! Concurrent implementations may *doom* an open transaction when a lock
//! acquisition times out: subsequent writes are dropped, reads return
//! zeros, and the caller must [`TxAccess::abort`] and retry. Transaction
//! bodies therefore must be pure functions of transactional state — no
//! volatile side effects before commit — and are driven through
//! [`run_tx`], which handles the abort-retry loop (a no-op for
//! single-threaded runtimes, whose transactions are never doomed).

use specpmt_pmem::TimingMode;

/// Proof that a transaction committed, wrapping the global commit
/// timestamp the runtime assigned to it.
///
/// SpecPMT orders records at recovery by their commit timestamps (the
/// paper's `rdtscp` values); the receipt exposes that timestamp for
/// harnesses that need to reason about commit order, without inviting
/// arithmetic on a bare `u64`. Receipts from the same shared runtime are
/// totally ordered; comparing receipts across runtimes is meaningless.
///
/// A transaction that wrote nothing appends no record, so its receipt
/// names none: it carries the value of the global timestamp counter at
/// commit — the frontier the transaction observed, greater than the
/// timestamp of every record committed before it. The counter is not
/// advanced, so the next writing commit receives that same timestamp;
/// receipts are therefore unique among writing commits only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitReceipt(u64);

impl CommitReceipt {
    /// Wraps a raw commit timestamp (runtime-internal use).
    pub fn new(ts: u64) -> Self {
        Self(ts)
    }

    /// The global commit timestamp.
    pub fn ts(self) -> u64 {
        self.0
    }
}

/// The unified transaction surface shared by single-threaded runtimes and
/// concurrent per-thread handles.
///
/// The contract mirrors the paper's transactional API (Fig. 3): writes
/// between [`begin`](Self::begin) and [`commit`](Self::commit) become
/// observable after a crash either entirely or not at all. Reads go
/// through the trait because some designs (out-of-place updates) redirect
/// them; in-place runtimes read the pool directly.
pub trait TxAccess {
    /// Starts a transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open, with the message
    /// `nested transaction on thread {tid}`.
    fn begin(&mut self);

    /// Durably writes `data` at pool offset `addr` within the open
    /// transaction. On a doomed transaction this is a no-op.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called outside a transaction.
    fn write(&mut self, addr: usize, data: &[u8]);

    /// Reads `buf.len()` bytes at pool offset `addr`, observing the open
    /// transaction's own writes. On a doomed transaction `buf` is zeroed.
    fn read(&mut self, addr: usize, buf: &mut [u8]);

    /// Commits the open transaction, making its writes crash-atomic.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called outside a transaction or on
    /// a doomed transaction (which must be [`abort`](Self::abort)ed).
    fn commit(&mut self);

    /// Aborts the open transaction, restoring every address it wrote to
    /// its pre-transaction contents (crash-atomically). Single-threaded
    /// runtimes never abort; the default panics.
    ///
    /// # Panics
    ///
    /// Panics if the implementation does not support aborting.
    fn abort(&mut self) {
        panic!("this runtime does not support aborting transactions");
    }

    /// Whether the open transaction has been doomed by a failed lock
    /// acquisition and must be aborted. Always `false` for runtimes
    /// without concurrency control.
    fn doomed(&self) -> bool {
        false
    }

    /// Transactionally allocates `size` bytes (aligned to `align`) from
    /// the pool heap. The allocation is durable iff the transaction
    /// commits.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the heap is exhausted or when
    /// called outside a transaction.
    fn alloc(&mut self, size: usize, align: usize) -> usize;

    /// Returns a block to the (volatile) free list.
    fn free(&mut self, addr: usize, size: usize, align: usize);

    /// Whether a transaction is currently open.
    fn in_tx(&self) -> bool;

    /// Charges `ns` of CPU compute to the simulated clock (workload work
    /// between memory operations). For concurrent handles this advances
    /// the calling thread's core-local clock.
    fn compute(&mut self, ns: u64);

    /// The simulated time observed by this access point: the core-local
    /// clock for concurrent handles, the device clock for single-threaded
    /// runtimes.
    fn local_now_ns(&self) -> u64;

    /// Sets the device timing mode, returning the previous mode.
    ///
    /// Concurrent handles toggle the *shared* device: call it only from
    /// sections where no other thread is measuring (setup, verification,
    /// barrier phases).
    fn set_timing(&mut self, mode: TimingMode) -> TimingMode;

    /// Allocates and persists a zeroed region during an untimed setup
    /// phase (not transactional; for workload initialization only).
    ///
    /// # Panics
    ///
    /// Panics if the pool heap cannot hold the region.
    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize;

    /// Non-transactional direct write + persist (for workload setup
    /// phases that pre-populate a region before transactions start).
    fn setup_write(&mut self, addr: usize, data: &[u8]);

    /// Background-maintenance hook (log reclamation, redo replay, …),
    /// invoked by drivers between transactions. Default: nothing.
    fn maintain(&mut self) {}

    // --- convenience helpers -------------------------------------------

    /// Runs `f` with device timing disabled — for workload setup and
    /// verification phases that must not count toward measurements.
    fn untimed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T
    where
        Self: Sized,
    {
        let prev = self.set_timing(TimingMode::Off);
        let out = f(self);
        self.set_timing(prev);
        out
    }

    /// Writes a little-endian `u64` transactionally.
    fn write_u64(&mut self, addr: usize, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    fn read_u64(&mut self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` transactionally.
    fn write_u32(&mut self, addr: usize, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&mut self, addr: usize) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }
}

/// Runs one transaction with the abort-retry protocol: `body` executes
/// between `begin` and `commit`; if the transaction is doomed by a lock
/// conflict it is aborted and `body` re-executed after a backoff.
///
/// On single-threaded runtimes (never doomed) this is exactly
/// `begin; body; commit; maintain` — zero overhead, so sequential and
/// concurrent drivers share one copy of every transaction body.
///
/// `body` must be retry-safe: no volatile side effects (RNG draws,
/// mirror updates) — only transactional reads/writes and a return value.
/// On a doomed attempt its reads observe zeros and its writes are
/// dropped, so it must also tolerate arbitrary zero reads without
/// panicking; the returned value of a doomed attempt is discarded.
pub fn run_tx<A: TxAccess, T>(rt: &mut A, mut body: impl FnMut(&mut A) -> T) -> T {
    let mut spins = 32u32;
    loop {
        rt.begin();
        let out = body(rt);
        if !rt.doomed() {
            rt.commit();
            rt.maintain();
            return out;
        }
        rt.abort();
        // Bounded exponential backoff; implementations add per-thread
        // jitter inside `abort` to break symmetry.
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if spins >= 1024 {
            std::thread::yield_now();
        }
        spins = spins.saturating_mul(2).min(4096);
    }
}

/// Implements the pool-derived [`TxAccess`] methods (`alloc`, `free`,
/// `compute`, `local_now_ns`, `set_timing`, `setup_alloc`, `setup_write`)
/// for a type that implements [`crate::TxRuntime`], in terms of its
/// exclusive pool. Invoke inside the `impl TxAccess for T` block.
#[macro_export]
macro_rules! impl_pool_tx_access {
    () => {
        fn alloc(&mut self, size: usize, align: usize) -> usize {
            assert!($crate::TxAccess::in_tx(self), "alloc outside transaction");
            let r = $crate::TxRuntime::pool_mut(self)
                .reserve(size, align)
                .expect("pool heap exhausted");
            if let Some(bump) = r.new_bump {
                // The bump update rides the runtime's log like any other
                // durable write, making the allocation crash-atomic with
                // the transaction.
                $crate::TxAccess::write_u64(self, ::specpmt_pmem::BUMP_OFF, bump);
            }
            r.off
        }

        fn free(&mut self, addr: usize, size: usize, align: usize) {
            $crate::TxRuntime::pool_mut(self).free(addr, size, align);
        }

        fn compute(&mut self, ns: u64) {
            $crate::TxRuntime::pool_mut(self).device_mut().advance(ns);
        }

        fn local_now_ns(&self) -> u64 {
            $crate::TxRuntime::pool(self).device().now_ns()
        }

        fn set_timing(&mut self, mode: ::specpmt_pmem::TimingMode) -> ::specpmt_pmem::TimingMode {
            let prev = $crate::TxRuntime::pool(self).device().timing();
            $crate::TxRuntime::pool_mut(self).device_mut().set_timing(mode);
            prev
        }

        fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
            let prev = $crate::TxAccess::set_timing(self, ::specpmt_pmem::TimingMode::Off);
            let base = $crate::TxRuntime::pool_mut(self)
                .alloc_direct(bytes, align)
                .expect("pool too small for workload region");
            $crate::TxRuntime::pool_mut(self).device_mut().persist_range(base, bytes);
            let _ = $crate::TxAccess::set_timing(self, prev);
            base
        }

        fn setup_write(&mut self, addr: usize, data: &[u8]) {
            let dev = $crate::TxRuntime::pool_mut(self).device_mut();
            dev.write(addr, data);
            dev.persist_range(addr, data.len());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipt_orders_by_timestamp() {
        let a = CommitReceipt::new(3);
        let b = CommitReceipt::new(7);
        assert!(a < b);
        assert_eq!(b.ts(), 7);
    }

    /// A minimal volatile TxAccess that dooms every Nth transaction, to
    /// exercise the retry loop without a runtime.
    struct Flaky {
        mem: Vec<u8>,
        staged: Vec<(usize, Vec<u8>)>,
        open: bool,
        doomed: bool,
        attempts: u32,
        fail_first: u32,
        aborts: u32,
    }

    impl TxAccess for Flaky {
        fn begin(&mut self) {
            assert!(!self.open, "nested transaction on thread 0");
            self.open = true;
            self.attempts += 1;
            self.doomed = self.attempts <= self.fail_first;
            self.staged.clear();
        }
        fn write(&mut self, addr: usize, data: &[u8]) {
            if !self.doomed {
                self.staged.push((addr, data.to_vec()));
            }
        }
        fn read(&mut self, addr: usize, buf: &mut [u8]) {
            if self.doomed {
                buf.fill(0);
                return;
            }
            buf.copy_from_slice(&self.mem[addr..addr + buf.len()]);
            // Observe the open transaction's own staged writes.
            for (a, d) in &self.staged {
                for (i, &b) in d.iter().enumerate() {
                    let at = a + i;
                    if at >= addr && at < addr + buf.len() {
                        buf[at - addr] = b;
                    }
                }
            }
        }
        fn commit(&mut self) {
            assert!(self.open && !self.doomed);
            for (addr, data) in self.staged.drain(..) {
                self.mem[addr..addr + data.len()].copy_from_slice(&data);
            }
            self.open = false;
        }
        fn abort(&mut self) {
            assert!(self.open);
            self.staged.clear();
            self.open = false;
            self.doomed = false;
            self.aborts += 1;
        }
        fn doomed(&self) -> bool {
            self.doomed
        }
        fn alloc(&mut self, _: usize, _: usize) -> usize {
            unimplemented!()
        }
        fn free(&mut self, _: usize, _: usize, _: usize) {}
        fn in_tx(&self) -> bool {
            self.open
        }
        fn compute(&mut self, _: u64) {}
        fn local_now_ns(&self) -> u64 {
            0
        }
        fn set_timing(&mut self, mode: TimingMode) -> TimingMode {
            mode
        }
        fn setup_alloc(&mut self, _: usize, _: usize) -> usize {
            0
        }
        fn setup_write(&mut self, _: usize, _: &[u8]) {}
    }

    fn flaky(fail_first: u32) -> Flaky {
        Flaky {
            mem: vec![0; 64],
            staged: Vec::new(),
            open: false,
            doomed: false,
            attempts: 0,
            fail_first,
            aborts: 0,
        }
    }

    #[test]
    fn run_tx_commits_directly_when_never_doomed() {
        let mut rt = flaky(0);
        let got = run_tx(&mut rt, |rt| {
            rt.write_u64(0, 0xAB);
            rt.read_u64(0)
        });
        assert_eq!(got, 0xAB, "body observes its own staged write");
        assert_eq!(rt.aborts, 0);
        assert_eq!(rt.attempts, 1);
    }

    #[test]
    fn run_tx_retries_doomed_attempts_until_commit() {
        let mut rt = flaky(3);
        run_tx(&mut rt, |rt| rt.write_u32(8, 99));
        assert_eq!(rt.aborts, 3, "three doomed attempts aborted");
        assert_eq!(rt.attempts, 4);
        assert_eq!(rt.read_u32(8), 99, "final attempt committed");
    }

    #[test]
    fn doomed_reads_are_zero() {
        let mut rt = flaky(1);
        rt.mem[0] = 0xFF;
        let mut seen = Vec::new();
        run_tx(&mut rt, |rt| seen.push(rt.read_u32(0)));
        assert_eq!(seen, vec![0, 0xFF], "doomed attempt reads zeros");
    }
}
