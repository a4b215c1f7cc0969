//! End-to-end contract for the dynamic pool layout through the facade:
//! pools formatted at any thread count in `1..=PoolLayout::MAX_THREADS`
//! must recover every committed value after adversarial crash sweeps, and
//! `inspect_image` must report the same geometry the runtime formatted.

use std::sync::Arc;

use specpmt::core::{inspect_image, ConcurrentConfig, PoolLayout, SpecSpmtShared};
use specpmt::pmem::CrashPolicy;
use specpmt::txn::TxAccess;
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
        assert!(report.dynamic_layout, "{threads} threads: descriptor expected");
        assert_eq!(report.threads, threads, "{threads} threads: reported count");
        assert_eq!(report.chains.len(), threads, "{threads} threads: one chain per thread");
        assert_eq!(report.block_bytes, ConcurrentConfig::default().block_bytes);
        // The layout parsed from the image matches what the runtime holds.
        let layout = PoolLayout::read(&img).expect("layout parses");
        assert_eq!(layout, rt.layout(), "{threads} threads: layout round-trip");
        let rendered = report.to_string();
        assert!(rendered.contains("dynamic descriptor"), "{rendered}");
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
        // The image still parses as a 17-thread dynamic pool.
        let report = inspect_image(&img);
        assert_eq!((report.threads, report.dynamic_layout), (17, true), "seed {seed}");
    }
}

#[test]
fn legacy_metadata_constants_remain_reachable_through_the_facade() {
    // The hardware baselines still address the fixed root-slot region; the
    // facade must keep exposing the aliases alongside the layout, with the
    // descriptor slot strictly below the legacy metadata region.
    use specpmt::core::{BLOCK_BYTES_SLOT, LAYOUT_SLOT, LEGACY_CHAIN_SLOTS, LOG_HEAD_SLOT_BASE};
    const { assert!(LEGACY_CHAIN_SLOTS == 8) };
    const { assert!(BLOCK_BYTES_SLOT < LOG_HEAD_SLOT_BASE) };
    const { assert!(LAYOUT_SLOT < BLOCK_BYTES_SLOT) };
    const { assert!(PoolLayout::MAX_THREADS >= 32) };
}
