//! End-to-end contract for the pool layout through the facade: pools
//! formatted at any thread count in `1..=PoolLayout::MAX_THREADS` must
//! recover every committed value after adversarial crash sweeps,
//! `inspect_image` must report the same geometry the runtime formatted,
//! every runtime that roots a log chain roots it in the one descriptor,
//! and a pool without a descriptor has no layout at all.

use std::sync::Arc;

use specpmt::baselines::{Spht, SphtConfig};
use specpmt::core::{
    inspect_image, recover_image_opts, ConcurrentConfig, PoolLayout, RecoveryOptions, SpecConfig,
    SpecSpmt, SpecSpmtShared, LAYOUT_SLOT,
};
use specpmt::hwtx::{hw_pool, Hoop, HoopConfig, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{root_off, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool};
use specpmt::txn::{TxAccess, TxRuntime};
use specpmt_pmem::CrashControl;

const POOL_BYTES: usize = 1 << 21;

/// Sizes the pool to the thread count: every chain takes at least one
/// default-size log block (batched), so the registration-table maximum
/// (4096 threads) needs tens of MiB where the small sweeps need 2.
fn pool_bytes(threads: usize) -> usize {
    POOL_BYTES.max(threads * ConcurrentConfig::default().block_bytes * 2)
}

/// Formats a runtime at `threads`, commits one distinct value per chain
/// (one `TxHandle` each, stepped in order from this thread), and returns
/// it together with the per-thread slot addresses.
fn committed_runtime(threads: usize) -> (Arc<SpecSpmtShared>, Vec<usize>) {
    let rt = SpecSpmtShared::open_or_format(
        pool_bytes(threads),
        ConcurrentConfig::builder().threads(threads).build(),
    );
    let slots: Vec<usize> =
        (0..threads).map(|_| rt.pool().alloc_direct(8, 8).expect("alloc")).collect();
    for (tid, &slot) in slots.iter().enumerate() {
        let mut h = rt.tx_handle(tid);
        h.begin();
        h.write_u64(slot, 0xC0FFEE00 + tid as u64);
        h.commit();
    }
    (rt, slots)
}

#[test]
fn every_thread_count_recovers_committed_values_under_crash_sweeps() {
    for threads in [1usize, 8, 17, PoolLayout::MAX_THREADS] {
        let (rt, slots) = committed_runtime(threads);
        let policies = [
            CrashPolicy::AllLost,
            CrashPolicy::AllSurvive,
            CrashPolicy::Random(1),
            CrashPolicy::Random(2),
            CrashPolicy::Random(0xD1CE),
        ];
        for policy in policies {
            let mut img = rt.device().capture(policy);
            SpecSpmtShared::recover(&mut img);
            for (tid, &slot) in slots.iter().enumerate() {
                assert_eq!(
                    img.read_u64(slot),
                    0xC0FFEE00 + tid as u64,
                    "{threads}-thread pool, tid {tid}, {policy:?}"
                );
            }
        }
    }
}

#[test]
fn inspect_round_trips_formatted_geometry() {
    for threads in [1usize, 8, 17, PoolLayout::MAX_THREADS] {
        let (rt, _) = committed_runtime(threads);
        let img = rt.device().capture(CrashPolicy::AllSurvive);
        let report = inspect_image(&img);
        assert!(report.valid_pool, "{threads} threads: pool magic");
        assert_eq!(report.threads, threads, "{threads} threads: reported count");
        assert_eq!(report.chains.len(), threads, "{threads} threads: one chain per thread");
        assert_eq!(report.block_bytes, ConcurrentConfig::default().block_bytes);
        // The layout parsed from the image matches what the runtime holds.
        let layout = PoolLayout::read(&img).expect("layout parses");
        assert_eq!(layout, rt.layout(), "{threads} threads: layout round-trip");
        let rendered = report.to_string();
        assert!(rendered.contains(&format!("{threads} chain slots")), "{rendered}");
    }
}

/// The acceptance scenario from the issue: a 17-thread pool (past the old
/// 8-slot cap) crashes mid-commit on thread 16. The torn record on the
/// highest thread must be discarded while every fenced commit — including
/// earlier ones on thread 16 itself — replays.
#[test]
fn crash_mid_commit_on_thread_sixteen_of_seventeen_thread_pool() {
    let (rt, slots) = committed_runtime(17);
    // Overwrite thread 16's slot with a second committed value, then start a
    // third transaction and crash before its commit fence: its log bytes are
    // in flight (unfenced) — exactly a torn mid-commit image.
    let mut h = rt.tx_handle(16);
    h.begin();
    h.write_u64(slots[16], 0xBEEF);
    h.commit();
    h.begin();
    h.write_u64(slots[16], 0xDEAD);
    for seed in 0..16u64 {
        let mut img = rt.device().capture(CrashPolicy::Random(seed));
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(slots[16]), 0xBEEF, "seed {seed}: torn commit must not replay");
        for (tid, &slot) in slots.iter().enumerate().take(16) {
            assert_eq!(img.read_u64(slot), 0xC0FFEE00 + tid as u64, "seed {seed} tid {tid}");
        }
        // The image still parses as a 17-thread pool.
        assert_eq!(inspect_image(&img).threads, 17, "seed {seed}");
    }
}

/// One committed transaction on a fresh sequential runtime, then the
/// `AllSurvive` image.
fn image_after_one_commit<R: TxRuntime>(mut rt: R) -> CrashImage {
    let a = rt.setup_alloc(64, 64);
    rt.begin();
    rt.write_u64(a, 0x1A70);
    rt.commit();
    rt.pool().device().capture(CrashPolicy::AllSurvive)
}

/// Every runtime that roots a log chain formats the same descriptor, with
/// the slot count its chains need, and `inspect_image` finds its chains
/// there.
#[test]
fn every_chain_rooting_runtime_formats_the_one_descriptor() {
    let sw_pool = || PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let shared = committed_runtime(3).0.device().capture(CrashPolicy::AllSurvive);
    let cases = [
        ("SpecSpmt", image_after_one_commit(SpecSpmt::new(sw_pool(), SpecConfig::default())), 1),
        ("SpecSpmtShared", shared, 3),
        (
            "HwSpecPmt",
            image_after_one_commit(HwSpecPmt::new(hw_pool(4 << 20), HwSpecConfig::default())),
            8,
        ),
        ("Hoop", image_after_one_commit(Hoop::new(hw_pool(4 << 20), HoopConfig::default())), 1),
        ("Spht", image_after_one_commit(Spht::new(sw_pool(), SphtConfig::default())), 1),
    ];
    for (name, img, slots) in cases {
        let layout = PoolLayout::read(&img).unwrap_or_else(|| panic!("{name}: no descriptor"));
        assert_eq!(layout.threads(), slots, "{name}: chain slots");
        assert_eq!(layout.block_bytes(), 4096, "{name}: block size");
        let report = inspect_image(&img);
        assert_eq!(report.threads, slots, "{name}: inspected slots");
        assert!(!report.chains.is_empty(), "{name}: inspect lists its chains");
        assert!(report.chains.iter().all(|c| layout.head(&img, c.tid) == c.head), "{name}");
    }
}

/// A pool whose `LAYOUT_SLOT` is 0 has no layout, whatever its other root
/// slots hold — a plausible block size in slot 7 and chain-head-looking
/// values in slots 8–15 included: nothing parses and recovery leaves the
/// image byte for byte as it found it.
#[test]
fn pool_without_a_descriptor_has_no_layout() {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL_BYTES)));
    let block = pool.alloc_direct(4096, 64).expect("alloc");
    pool.set_root_direct(7, 4096);
    for slot in 8..16 {
        pool.set_root_direct(slot, block as u64);
    }
    let img = pool.device().capture(CrashPolicy::AllSurvive);
    assert_eq!(img.read_u64(root_off(LAYOUT_SLOT)), 0);
    assert!(PoolLayout::read(&img).is_none());
    let report = inspect_image(&img);
    assert!(report.valid_pool);
    assert_eq!((report.threads, report.block_bytes, report.chains.len()), (0, 0, 0));
    let mut recovered = img.clone();
    let rep = recover_image_opts(&mut recovered, &RecoveryOptions::default());
    assert_eq!((rep.chains, rep.records_parsed), (0, 0));
    assert!(recovered == img, "recovery must not touch a pool it cannot parse");
}
