//! The heart of the reproduction's correctness story: for random
//! transaction streams, arbitrary crash points (including *inside* commit
//! sequences), and arbitrary crash nondeterminism, every crash-consistent
//! runtime must recover to exactly the committed-prefix state — committed
//! transactions survive, interrupted ones are revoked, and the boundary
//! transaction is all-or-nothing.

use specpmt::baselines::{PmdkConfig, PmdkUndo, Spht};
use specpmt::core::undo::{self, UNDO_BASE_SLOT, UNDO_SIZE_SLOT};
use specpmt::core::{
    ConcurrentConfig, HashLogConfig, HashLogSpmt, LockedTxHandle, ReclaimMode, SpecConfig,
    SpecSpmt, SpecSpmtShared,
};
use specpmt::hwtx::{hw_pool, Ede, EdeConfig, Hoop, HwSpecConfig, HwSpecPmt};
use specpmt::pmem::{
    root_off, CrashControl, CrashImage, CrashPlan, CrashPolicy, PmemConfig, PmemDevice, PmemPool,
};
use specpmt::txn::{Recover, SharedLockTable, TxAccess, TxRuntime};
use specpmt_check::driver::{check_crash_atomicity, StreamSpec};

fn spec(pool: PmemPool) -> SpecSpmt {
    SpecSpmt::new(
        pool,
        SpecConfig {
            block_bytes: 512, // small blocks: exercise spills + compaction
            reclaim_threshold_bytes: 16 * 1024,
            ..SpecConfig::default()
        },
    )
}

fn spec_dp(pool: PmemPool) -> SpecSpmt {
    SpecSpmt::new(pool, SpecConfig::default().dp())
}

fn spec_inline(pool: PmemPool) -> SpecSpmt {
    SpecSpmt::new(
        pool,
        SpecConfig {
            reclaim_mode: ReclaimMode::Inline,
            reclaim_threshold_bytes: 8 * 1024,
            ..SpecConfig::default()
        },
    )
}

fn pmdk(pool: PmemPool) -> PmdkUndo {
    PmdkUndo::new(pool, PmdkConfig { log_bytes: 128 * 1024, ..PmdkConfig::default() })
}

fn spht(pool: PmemPool) -> Spht {
    Spht::new(pool)
}

fn hashlog(pool: PmemPool) -> HashLogSpmt {
    HashLogSpmt::new(pool, HashLogConfig { capacity: 1 << 10 })
}

/// Sweeps crash points × policies × stream seeds for a runtime.
fn sweep<R, F>(make: F)
where
    R: TxRuntime + Recover,
    F: Fn(PmemPool) -> R + Copy,
{
    for seed in 0..2u64 {
        let spec_stream =
            StreamSpec { txs: 12, max_writes_per_tx: 5, max_write_len: 24, region_len: 384, seed };
        for crash_after in [0, 1, 3, 7, 15, 40, 90, 200, 100_000] {
            for policy in [
                CrashPolicy::AllLost,
                CrashPolicy::AllSurvive,
                CrashPolicy::Random(seed * 1000 + crash_after),
            ] {
                let plan = CrashPlan::after_ops(crash_after).with_policy(policy);
                let outcome = check_crash_atomicity(make, &spec_stream, plan, R::recover)
                    .unwrap_or_else(|e| {
                        panic!(
                            "atomicity violated (seed {seed}, crash_after {crash_after}, {policy:?}): {e}"
                        )
                    });
                // Sanity: the harness actually exercised transactions.
                assert!(outcome.committed_txs <= 12);
            }
        }
    }
}

#[test]
fn specspmt_is_crash_atomic_everywhere() {
    sweep(spec);
}

#[test]
fn specspmt_dp_is_crash_atomic_everywhere() {
    sweep(spec_dp);
}

#[test]
fn specspmt_inline_reclaim_is_crash_atomic_everywhere() {
    sweep(spec_inline);
}

#[test]
fn pmdk_is_crash_atomic_everywhere() {
    sweep(pmdk);
}

#[test]
fn spht_is_crash_atomic_everywhere() {
    sweep(spht);
}

#[test]
fn hashlog_is_crash_atomic_everywhere() {
    sweep(hashlog);
}

/// Every runtime with an undo region rolls back through `core::undo`,
/// which reads the region bounds and every entry address from the image:
/// wrapping values are skipped, not summed. `first_entry_off` is where the
/// runtime's region format puts its first entry.
fn undo_rollback_survives_wild_words<R: TxRuntime + Recover>(mut rt: R, first_entry_off: usize) {
    // One committed write, then an open transaction on the same word: the
    // undo region holds one live entry.
    let a = rt.setup_alloc(64, 64);
    rt.begin();
    rt.write_u64(a, 7);
    rt.commit();
    rt.begin();
    rt.write_u64(a, 8);
    let valid = rt.pool().device().capture(CrashPolicy::AllSurvive);

    let mut wild_bounds = valid.clone();
    wild_bounds.write_u64(root_off(UNDO_BASE_SLOT), u64::MAX);
    wild_bounds.write_u64(root_off(UNDO_SIZE_SLOT), u64::MAX);

    // The live entry re-encoded, checksum and all, onto a wrapping address.
    let mut wild_entry = valid.clone();
    let at = valid.read_u64(root_off(UNDO_BASE_SLOT)) as usize + first_entry_off;
    let word0 = valid.read_u64(at);
    let len = (word0 >> 32) as usize;
    let mut entry = vec![0; undo::entry_bytes(len)];
    undo::encode_entry(&mut entry, word0 as u32, usize::MAX - 3, &vec![0; len]);
    wild_entry.write_bytes(at, &entry);

    for (what, mut img) in [("wild bounds", wild_bounds), ("wild entry", wild_entry)] {
        R::recover(&mut img);
        assert_eq!(img.read_u64(a), 8, "{}, {what}: nothing could be rolled back", rt.name());
    }
    let mut img = valid;
    R::recover(&mut img);
    assert_eq!(img.read_u64(a), 7, "{}: the untouched entry was live", rt.name());
}

#[test]
fn undo_rollback_skips_wrapping_bounds_and_entry_addresses() {
    // PMDK keeps its stage and used-offset words in the region's first 64 B.
    undo_rollback_survives_wild_words(
        pmdk(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)))),
        64,
    );
    undo_rollback_survives_wild_words(HwSpecPmt::new(hw_pool(4 << 20), HwSpecConfig::default()), 0);
    undo_rollback_survives_wild_words(Ede::new(hw_pool(4 << 20), EdeConfig::default()), 0);
}

/// Crash during background reclamation/compaction must leave a recoverable
/// log (the head-pointer swap is atomic; partially written new chains are
/// unreachable).
#[test]
fn specspmt_crash_mid_reclamation_recovers() {
    for fuel in (0..400).step_by(23) {
        let spec_stream =
            StreamSpec { txs: 60, max_writes_per_tx: 4, max_write_len: 8, region_len: 64, seed: 9 };
        // Small threshold: reclamation runs repeatedly inside the stream, so
        // many fuel values land inside a compaction cycle.
        let make = |pool: PmemPool| {
            SpecSpmt::new(
                pool,
                SpecConfig {
                    block_bytes: 256,
                    reclaim_threshold_bytes: 1024,
                    reclaim_mode: ReclaimMode::Inline,
                    ..SpecConfig::default()
                },
            )
        };
        check_crash_atomicity(
            make,
            &spec_stream,
            CrashPlan::after_ops(fuel).with_policy(CrashPolicy::Random(fuel)),
            SpecSpmt::recover,
        )
        .unwrap_or_else(|e| panic!("mid-reclamation crash (fuel {fuel}): {e}"));
    }
}

/// A transaction that wrote nothing must leave the log alone: sealing
/// its empty record would write a zero-length header — the chain
/// terminator — and make every record the chain commits afterwards
/// unreachable at recovery.
fn younger_record_survives_write_free_txs<A: TxAccess>(
    a: &mut A,
    aborts: bool,
    capture: impl Fn(&A) -> CrashImage,
) {
    let addr = a.setup_alloc(64, 64);
    a.begin();
    a.write_u64(addr, 1);
    a.commit();
    a.begin();
    assert_eq!(a.read_u64(addr), 1);
    a.commit();
    if aborts {
        a.begin();
        a.abort();
    }
    a.begin();
    a.write_u64(addr, 2);
    a.commit();
    let mut img = capture(a);
    SpecSpmt::recover(&mut img);
    assert_eq!(img.read_u64(addr), 2, "record committed after a write-free transaction was lost");
}

/// Writes inside one transaction recover in write order, however their
/// ranges overlap. Each shape is one transaction's writes `(offset from
/// a, value)`, then the offset read back and the bytes expected there:
///
/// * `w(a, [1; 4]); w(a + 2, [2; 4]); w(a, [3; 4])` leaves
///   `[3, 3, 3, 3, 2, 2]`. Patching the third write into the first
///   write's entry would replay it before the second and leave
///   `[3, 3, 2, 2, 2, 2]`.
/// * `w(a, [1; 4]); w(a - 2, [2; 4])` leaves `[2, 2, 2, 2, 1, 1]` from
///   `a - 2`. Replaying entries in address order would leave
///   `[2, 2, 1, 1, 1, 1]`.
/// * `w(a, [1; 8]); w(a, [2; 4])` leaves `[2, 2, 2, 2, 1, 1, 1, 1]`.
///   Keeping only the last write per address would drop the first
///   write's tail and leave `[2, 2, 2, 2, 0, 0, 0, 0]`.
/// * `w(a, [1; 4]); w(a + 4, [2; 4]); w(a, [3; 4])` leaves
///   `[3, 3, 3, 3, 2, 2, 2, 2]`: the second write extends the first
///   write's entry, and the third patches the front of that entry.
/// * `w(a, [1; 4]); w(a + 4, [2; 4]); w(a + 8, [4; 4]); w(a + 6, [7; 4]);
///   w(a + 4, [3; 4])` leaves `[1, 1, 1, 1, 3, 3, 3, 3, 7, 7, 4, 4]`. The
///   last write repeats a piece in the middle of one extended entry, and
///   the entry after it overlaps that piece, so it must log anew. Reading
///   the entry's value bytes as the next entry's header could patch it
///   in place and leave `[1, 1, 1, 1, 3, 3, 7, 7, 7, 7, 4, 4]`.
type WriteOrderShape = (&'static [(isize, &'static [u8])], isize, &'static [u8]);
const WRITE_ORDER_SHAPES: [WriteOrderShape; 5] = [
    (&[(0, &[1; 4]), (2, &[2; 4]), (0, &[3; 4])], 0, &[3, 3, 3, 3, 2, 2]),
    (&[(0, &[1; 4]), (-2, &[2; 4])], -2, &[2, 2, 2, 2, 1, 1]),
    (&[(0, &[1; 8]), (0, &[2; 4])], 0, &[2, 2, 2, 2, 1, 1, 1, 1]),
    (&[(0, &[1; 4]), (4, &[2; 4]), (0, &[3; 4])], 0, &[3, 3, 3, 3, 2, 2, 2, 2]),
    (
        &[(0, &[1; 4]), (4, &[2; 4]), (8, &[4; 4]), (6, &[7; 4]), (4, &[3; 4])],
        0,
        &[1, 1, 1, 1, 3, 3, 3, 3, 7, 7, 4, 4],
    ),
];

fn overlapping_writes_recover_in_write_order<A: TxAccess>(
    a: &mut A,
    capture: impl Fn(&A) -> CrashImage,
) {
    for (writes, read_at, want) in WRITE_ORDER_SHAPES {
        let addr = a.setup_alloc(64, 64) + 8;
        a.begin();
        for &(off, value) in writes {
            a.write(addr.wrapping_add_signed(off), value);
        }
        a.commit();
        let mut img = capture(a);
        SpecSpmt::recover(&mut img);
        let got = img.read_bytes(addr.wrapping_add_signed(read_at), want.len());
        assert_eq!(got, want, "writes {writes:?} replayed out of order");
    }
}

#[test]
fn overlapping_writes_in_one_tx_recover_in_write_order() {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let mut seq = SpecSpmt::new(pool, SpecConfig::default());
    overlapping_writes_recover_in_write_order(&mut seq, |rt| {
        rt.pool().device().capture(CrashPolicy::AllLost)
    });

    let shared = SpecSpmtShared::open_or_format(1usize << 20, ConcurrentConfig::default());
    let mut solo = shared.tx_handle(0);
    overlapping_writes_recover_in_write_order(&mut solo, |h| {
        h.device().capture(CrashPolicy::AllLost)
    });

    // The comparators log through the same record chain, and recovery
    // replays it the same way.
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let mut spht = Spht::new(pool);
    overlapping_writes_recover_in_write_order(&mut spht, |rt| {
        rt.pool().device().capture(CrashPolicy::AllLost)
    });

    let mut hoop = Hoop::new(hw_pool(1 << 20));
    overlapping_writes_recover_in_write_order(&mut hoop, |rt| {
        rt.pool().device().capture(CrashPolicy::AllLost)
    });
}

#[test]
fn write_free_tx_does_not_orphan_younger_records() {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let mut seq = SpecSpmt::new(pool, SpecConfig::default());
    younger_record_survives_write_free_txs(&mut seq, false, |rt| {
        rt.pool().device().capture(CrashPolicy::AllLost)
    });

    let shared = SpecSpmtShared::open_or_format(1usize << 20, ConcurrentConfig::default());
    let mut bare = shared.tx_handle(0);
    younger_record_survives_write_free_txs(&mut bare, true, |h| {
        h.device().capture(CrashPolicy::AllLost)
    });

    let shared = SpecSpmtShared::open_or_format(1usize << 20, ConcurrentConfig::default());
    let locks = SharedLockTable::new(1 << 20, 64);
    let mut locked = LockedTxHandle::new(shared.tx_handle(0), locks.clone());
    younger_record_survives_write_free_txs(&mut locked, true, |h| {
        h.inner().device().capture(CrashPolicy::AllLost)
    });
    assert_eq!(locks.held_stripes(), 0);
}
