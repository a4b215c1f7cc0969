//! Telemetry-off commits must stay zero-alloc in steady state.
//!
//! The inert telemetry bundle is one relaxed atomic load per
//! instrumentation site: no clock reads, no heap. This binary installs a
//! counting global allocator and asserts that a warmed-up transaction on
//! either runtime performs (amortized) **zero** heap allocations per
//! commit with telemetry disabled (`benchmark/`'s `alloc.calls_per_op`
//! reports the same count on the judged workloads). The only tolerated allocations are
//! the log's own block-list growth (reclamation is off, so the chain keeps
//! extending): at most a couple of `Vec` doublings across hundreds of
//! transactions, never a per-commit cost. (One test per concern, same binary, so the counting
//! is still per-measurement: each measurement reads the counter delta
//! around its own single-threaded loop.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use specpmt::core::{
    ConcurrentConfig, LockedTxHandle, ReclaimMode, SpecConfig, SpecSpmt, SpecSpmtShared,
};
use specpmt::pmem::{PmemConfig, PmemDevice, PmemPool, SharedPmemDevice, SharedPmemPool};
use specpmt::txn::{run_tx, SharedLockTable, TxAccess};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the two tests so their allocation counts never interleave
/// (the test harness runs `#[test]`s on parallel threads by default).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tx<A: TxAccess>(a: &mut A, base: usize, round: u64) {
    a.begin();
    for w in 0..8usize {
        let off = ((round as usize * 131 + w * 509) % 4000) * 8;
        a.write_u64(base + off, round + w as u64);
    }
    a.commit();
}

fn allocs_over<A: TxAccess>(a: &mut A, base: usize, warmup: u64, measured: u64) -> u64 {
    let mut round = 0u64;
    for _ in 0..warmup {
        tx(a, base, round);
        round += 1;
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..measured {
        tx(a, base, round);
        round += 1;
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn sequential_commit_is_zero_alloc_with_telemetry_off() {
    let _guard = serial();
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(4 << 20)));
    let base = pool.alloc_direct(64 * 1024, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    assert!(!rt.telemetry().registry.enabled(), "telemetry must default off");
    let allocs = allocs_over(&mut rt, base, 512, 256);
    assert!(
        allocs <= 2,
        "telemetry-off steady-state commits must not allocate beyond amortized \
         log-block growth (got {allocs} over 256 txs)"
    );
}

#[test]
fn shared_commit_is_zero_alloc_with_telemetry_off() {
    let _guard = serial();
    let dev = SharedPmemDevice::new(PmemConfig::new(4 << 20));
    let pool = SharedPmemPool::create(dev);
    let shared = SpecSpmtShared::open_or_format(pool, ConcurrentConfig::default());
    let base = shared.pool().alloc_direct(64 * 1024, 64).unwrap();
    let mut h = shared.tx_handle(0);
    assert!(!shared.telemetry().registry.enabled(), "telemetry must default off");
    let allocs = allocs_over(&mut h, base, 512, 256);
    assert!(
        allocs <= 2,
        "telemetry-off steady-state commits must not allocate beyond amortized \
         log-block growth (got {allocs} over 256 txs)"
    );
}

/// A read-only transaction under 2PL — the kv `get` shape — reserves no
/// record and borrows the handle's stripe buffer, so once warm it performs
/// exactly zero allocations (not even amortized: nothing grows).
#[test]
fn locked_get_is_zero_alloc_in_steady_state() {
    let _guard = serial();
    let shared = SpecSpmtShared::open_or_format(4usize << 20, ConcurrentConfig::default());
    let base = shared.pool().alloc_direct(64 * 1024, 64).unwrap();
    let locks = SharedLockTable::new(4 << 20, 64);
    let mut h = LockedTxHandle::new(shared.tx_handle(0), locks);
    let mut get = |round: usize| {
        run_tx(&mut h, |tx| {
            // A probe sequence touching four stripes.
            (0..4).map(|i| tx.read_u64(base + ((round * 131 + i * 509) % 1000) * 64)).sum::<u64>()
        })
    };
    for round in 0..64 {
        get(round);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 64..320 {
        get(round);
    }
    assert_eq!(ALLOCS.load(Ordering::Relaxed) - before, 0, "a warm locked get must not allocate");
}
