//! Telemetry-off commits must stay zero-alloc in steady state.
//!
//! The inert telemetry bundle is one relaxed atomic load per
//! instrumentation site: no clock reads, no heap. This binary installs a
//! counting global allocator and asserts that a warmed-up transaction on
//! either software runtime — and on the hardware models, which have no
//! telemetry to turn off — performs (amortized) **zero** heap allocations
//! per commit with telemetry disabled (`benchmark/`'s `alloc.calls_per_op`
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
use specpmt::hwtx::{hw_pool, Ede, EdeConfig, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{PmemConfig, PmemDevice, PmemPool, SharedPmemDevice, SharedPmemPool};
use specpmt::txn::{run_tx, SharedLockTable, TxAccess, TxRuntime};

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

/// The hardware runtimes keep the same contract: line sets, the record
/// under construction and its dirty ranges are buffers the runtime reuses,
/// and undo entries are built on the stack. Each transaction shape of
/// `HwSpecPmt` is measured after its own warm-up — cold pages (undo
/// logging only, nothing grows), a page promoted by the transaction that
/// sends its counter to the threshold (a 4 KiB page record, so the chain
/// gains a block per transaction) and a hot page (one commit record per
/// transaction) — and so is `Ede`, whose log is a fixed region.
#[test]
fn hardware_commits_are_zero_alloc_once_warm() {
    let _guard = serial();
    const PAGE: usize = 4096;
    // `stores` word stores on `page`, a line apart, in one transaction.
    fn page_tx<A: TxAccess>(a: &mut A, page_base: usize, stores: usize, round: usize) {
        a.begin();
        for s in 0..stores {
            a.write_u64(page_base + ((round + s) % 64) * 64, round as u64);
        }
        a.commit();
    }
    fn allocs_over(rounds: std::ops::Range<usize>, mut round: impl FnMut(usize)) -> u64 {
        let before = ALLOCS.load(Ordering::Relaxed);
        rounds.for_each(&mut round);
        ALLOCS.load(Ordering::Relaxed) - before
    }

    let mut rt = HwSpecPmt::new(hw_pool(32 << 20), HwSpecConfig::default());
    let base = rt.pool_mut().alloc_direct(1024 * PAGE, PAGE).unwrap();

    // Two stores per page never reach the hot threshold of seven.
    let mut cold = |r: usize| page_tx(&mut rt, base + r * PAGE, 2, r);
    allocs_over(0..64, &mut cold);
    assert_eq!(allocs_over(64..320, &mut cold), 0, "cold-page transactions");

    // Eight stores to a fresh page: the seventh promotes it mid-transaction.
    let mut promoting = |r: usize| page_tx(&mut rt, base + r * PAGE, 8, r);
    allocs_over(400..432, &mut promoting);
    let allocs = allocs_over(432..462, &mut promoting);
    assert!(allocs <= 2, "promoting transactions allocated {allocs} times over 30 txs");

    let mut hot = |r: usize| page_tx(&mut rt, base + 1000 * PAGE, 8, r);
    allocs_over(0..64, &mut hot);
    let allocs = allocs_over(64..320, &mut hot);
    assert!(allocs <= 2, "hot-page transactions allocated {allocs} times over 256 txs");
    assert_eq!(rt.hw_stats().pages_made_hot, 63, "62 promoting transactions and the hot page");
    assert_eq!(rt.hw_stats().epochs_cleared, 0, "no epoch reclaim inside the measured windows");

    let mut ede = Ede::new(hw_pool(4 << 20), EdeConfig::default());
    let base = ede.pool_mut().alloc_direct(64 * PAGE, PAGE).unwrap();
    let mut undo = |r: usize| page_tx(&mut ede, base + (r % 64) * PAGE, 8, r);
    allocs_over(0..64, &mut undo);
    assert_eq!(allocs_over(64..320, &mut undo), 0, "EDE transactions");
}
