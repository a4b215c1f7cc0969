//! Reclamation's rewrite folds a chain's settled records into one base
//! record of address-sorted fresh runs, and the records above the settled
//! watermark follow it. That must never change what recovers: over seeded
//! histories on several chains of `SpecSpmtShared` and on the one chain of
//! `SpecSpmt`, and over hand-made cases — a watermark that lags one
//! chain's newest records, a base re-folded across cycles, overlapping
//! entries in one record, a checkpoint written before the fold, an open
//! chain with nothing committed, a base split at a small cap — an
//! all-lost crash image taken just before a rewrite and one taken just
//! after it recover to the same data bytes — through the engine
//! (`recover_image_opts`) and through the reference replay
//! (`recover_image`) — and those bytes are what the runtime last
//! committed.

use std::sync::Arc;

use specpmt::core::record::{parse_chain, LogRecord};
use specpmt::core::recovery::recover_image;
use specpmt::core::{
    recover_image_opts, ConcurrentConfig, PoolLayout, RecoveryOptions, SpecConfig, SpecSpmt,
    SpecSpmtShared, TxHandle,
};
use specpmt::pmem::{
    CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool, SplitMix64,
};
use specpmt::txn::{TxAccess, TxRuntime};

/// Slots of three adjacent words (state, key, value), as a hash table
/// writes them: one transaction's three 8-byte entries are one run.
const SLOT: usize = 24;
const SLOTS: usize = 16;
const REGION: usize = SLOT * SLOTS;
const BLOCK: usize = 256;

/// One transaction's writes: a slot's three words, and now and then a
/// short unaligned write into another slot, which leaves older entries
/// covering it partly stale (their ends trim, their middles stay).
fn draw_writes(rng: &mut SplitMix64, base: usize) -> Vec<(usize, Vec<u8>)> {
    let slot = base + rng.range_usize(0, SLOTS - 1) * SLOT;
    let mut writes: Vec<(usize, Vec<u8>)> =
        (0..3).map(|w| (slot + 8 * w, rng.next_u64().to_le_bytes().to_vec())).collect();
    if rng.below(3) == 0 {
        let len = rng.range_usize(1, 7);
        let at = base + rng.range_usize(0, REGION - len);
        writes.push((at, (0..len).map(|_| rng.next_u8()).collect()));
    }
    writes
}

/// `img`'s data region after recovery by the engine and by the reference.
fn recovered(img: &CrashImage, base: usize) -> [Vec<u8>; 2] {
    let (mut engine, mut reference) = (img.clone(), img.clone());
    recover_image_opts(&mut engine, &RecoveryOptions::default());
    recover_image(&mut reference);
    [engine, reference].map(|i| i.as_bytes()[base..base + REGION].to_vec())
}

/// Whether some entry of a chain is a merged run: every write is a word
/// or shorter, so a longer entry was joined by a rewrite.
fn has_merged_run(records: &[specpmt::core::record::LogRecord]) -> bool {
    records.iter().flat_map(|r| &r.entries).any(|e| e.value.len() > 8)
}

#[test]
fn shared_chains_recover_identically_across_a_dense_rewrite() {
    for (threads, seed) in [(2usize, 21u64), (3, 22), (4, 23)] {
        let s = SpecSpmtShared::open_or_format(
            1usize << 22,
            ConcurrentConfig::builder()
                .threads(threads)
                .block_bytes(BLOCK)
                .reclaim_threshold_bytes(usize::MAX)
                .group_commit(false)
                .build(),
        );
        let base = s.pool().alloc_direct(REGION, 64).expect("alloc");
        let mut handles: Vec<_> = (0..threads).map(|t| s.tx_handle(t)).collect();
        let mut rng = SplitMix64::new(seed);
        let (mut rewritten, mut merged) = (0, false);
        for cycle in 0..24 {
            for _ in 0..rng.range_usize(10, 60) {
                let h = &mut handles[rng.range_usize(0, threads - 1)];
                h.begin();
                for (at, data) in draw_writes(&mut rng, base) {
                    h.write(at, &data);
                }
                if rng.below(8) == 0 {
                    h.abort();
                } else {
                    h.commit();
                }
            }
            if rng.below(4) == 0 {
                let _ = s.write_checkpoint();
            }
            let ctx = format!("threads={threads} seed={seed} cycle={cycle}");
            let before_img = s.device().capture(CrashPolicy::AllLost);
            let before = s.reclaim_stats();
            s.reclaim_cycle();
            rewritten += s.reclaim_stats().chains_rewritten - before.chains_rewritten;
            let after_img = s.device().capture(CrashPolicy::AllLost);
            let live = s.pool().handle().peek(base, REGION);
            for img in [&before_img, &after_img] {
                for bytes in recovered(img, base) {
                    assert_eq!(bytes, live, "{ctx}");
                }
            }
            let handle = s.pool().handle();
            merged |= (0..threads)
                .any(|t| has_merged_run(&parse_chain(&handle, s.layout().head(&handle, t), BLOCK)));
        }
        assert!(rewritten > 20, "threads={threads} seed={seed}: {rewritten} rewrites");
        assert!(merged, "threads={threads} seed={seed}: no rewrite merged a run");
    }
}

#[test]
fn one_chain_recovers_identically_across_a_dense_rewrite() {
    for seed in [31u64, 32, 33] {
        let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        let base = pool.alloc_direct(REGION, 64).expect("alloc");
        let mut rt = SpecSpmt::new(
            pool,
            SpecConfig {
                block_bytes: BLOCK,
                reclaim_threshold_bytes: usize::MAX,
                ..SpecConfig::default()
            },
        );
        let mut rng = SplitMix64::new(seed);
        let (mut rewritten, mut merged) = (0, false);
        for cycle in 0..24 {
            for _ in 0..rng.range_usize(10, 60) {
                rt.begin();
                for (at, data) in draw_writes(&mut rng, base) {
                    rt.write(at, &data);
                }
                rt.commit();
            }
            let ctx = format!("seed={seed} cycle={cycle}");
            let before_img = rt.pool().device().capture(CrashPolicy::AllLost);
            let before = rt.reclaim_stats();
            rt.reclaim_now();
            rewritten += rt.reclaim_stats().chains_rewritten - before.chains_rewritten;
            let after_img = rt.pool().device().capture(CrashPolicy::AllLost);
            let live = rt.pool().device().peek(base, REGION).to_vec();
            for img in [&before_img, &after_img] {
                for bytes in recovered(img, base) {
                    assert_eq!(bytes, live, "{ctx}");
                }
            }
            let dev = rt.pool().device();
            let head = PoolLayout::read(dev).expect("formatted pool").head(dev, 0);
            merged |= has_merged_run(&parse_chain(dev, head, BLOCK));
        }
        assert!(rewritten > 20, "seed={seed}: {rewritten} rewrites");
        assert!(merged, "seed={seed}: no rewrite merged a run");
    }
}

/// A `threads`-chain runtime with no daemon and no group commit, and its
/// data region.
fn shared_runtime(threads: usize) -> (Arc<SpecSpmtShared>, usize) {
    let s = SpecSpmtShared::open_or_format(
        1usize << 22,
        ConcurrentConfig::builder()
            .threads(threads)
            .block_bytes(BLOCK)
            .reclaim_threshold_bytes(usize::MAX)
            .group_commit(false)
            .build(),
    );
    let base = s.pool().alloc_direct(REGION, 64).expect("alloc");
    (s, base)
}

/// One transaction writing `v` to the `slot`th word of the region.
fn commit_word(h: &mut TxHandle, base: usize, slot: usize, v: u64) {
    h.begin();
    h.write(base + 8 * slot, &v.to_le_bytes());
    h.commit();
}

/// Every chain's committed records.
fn chains(s: &SpecSpmtShared) -> Vec<Vec<LogRecord>> {
    let h = s.pool().handle();
    (0..s.layout().threads()).map(|t| parse_chain(&h, s.layout().head(&h, t), BLOCK)).collect()
}

/// Runs one `reclaim_cycle`, checks that the images before and after it
/// recover, both ways, to the region's live bytes, and returns the chains
/// before and after.
fn checked_cycle(s: &SpecSpmtShared, base: usize) -> [Vec<Vec<LogRecord>>; 2] {
    let (before_img, before) = (s.device().capture(CrashPolicy::AllLost), chains(s));
    s.reclaim_cycle();
    let after_img = s.device().capture(CrashPolicy::AllLost);
    let live = s.pool().handle().peek(base, REGION);
    for img in [&before_img, &after_img] {
        for bytes in recovered(img, base) {
            assert_eq!(bytes, live);
        }
    }
    [before, chains(s)]
}

/// [`checked_cycle`] for the one chain of `SpecSpmt`, reclaiming with
/// `reclaim`; returns the chain before and after.
fn checked_reclaim(
    rt: &mut SpecSpmt,
    base: usize,
    reclaim: impl FnOnce(&mut SpecSpmt),
) -> [Vec<LogRecord>; 2] {
    let chain = |rt: &SpecSpmt| {
        let dev = rt.pool().device();
        parse_chain(dev, PoolLayout::read(dev).expect("formatted pool").head(dev, 0), BLOCK)
    };
    let (before_img, before) = (rt.pool().device().capture(CrashPolicy::AllLost), chain(rt));
    reclaim(rt);
    let after_img = rt.pool().device().capture(CrashPolicy::AllLost);
    let live = rt.pool().device().peek(base, REGION).to_vec();
    for img in [&before_img, &after_img] {
        for bytes in recovered(img, base) {
            assert_eq!(bytes, live);
        }
    }
    [before, chain(rt)]
}

/// A one-chain `SpecSpmt` and its data region.
fn one_chain_runtime() -> (SpecSpmt, usize) {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
    let base = pool.alloc_direct(REGION, 64).expect("alloc");
    let cfg = SpecConfig {
        block_bytes: BLOCK,
        reclaim_threshold_bytes: usize::MAX,
        ..SpecConfig::default()
    };
    (SpecSpmt::new(pool, cfg), base)
}

/// Chain 1 commits once, early; chain 0 churns one word before that
/// commit and writes fresh words after it. The settled watermark is chain
/// 1's commit, so chain 0's churn folds into a base below it and the
/// fresh records above it follow verbatim.
#[test]
fn a_lagging_watermark_keeps_the_newer_tail_verbatim() {
    let (s, base) = shared_runtime(2);
    let (mut h0, mut h1) = (s.tx_handle(0), s.tx_handle(1));
    for v in 0..10 {
        commit_word(&mut h0, base, 0, v);
    }
    commit_word(&mut h1, base, 1, 99);
    for slot in 2..7 {
        commit_word(&mut h0, base, slot, slot as u64);
    }
    let [before, after] = checked_cycle(&s, base);
    let settled = before[1][0].ts;
    assert_eq!(after[1], before[1], "chain 1 holds no garbage");
    assert_eq!(after[0].len(), 6);
    assert_eq!(after[0][0].ts, before[0][9].ts, "the base carries the newest folded ts");
    assert!(after[0][0].ts <= settled && after[0][1].ts > settled);
    assert_eq!(after[0][0].entries.len(), 1, "one word left of the churn");
    assert_eq!(after[0][1..], before[0][10..], "the tail above the watermark, verbatim");
}

/// A base folds again with what was committed since: each cycle leaves
/// one record, at the newest commit's timestamp.
#[test]
fn a_base_refolds_across_cycles() {
    let (mut rt, base) = one_chain_runtime();
    let mut rng = SplitMix64::new(41);
    for cycle in 0..4 {
        for _ in 0..30 {
            rt.begin();
            for (at, data) in draw_writes(&mut rng, base) {
                rt.write(at, &data);
            }
            rt.commit();
        }
        let [before, after] = checked_reclaim(&mut rt, base, SpecSpmt::reclaim_now);
        assert_eq!(after.len(), 1, "cycle {cycle}: one base");
        assert_eq!(after[0].ts, before.last().expect("commits").ts, "cycle {cycle}");
        if cycle > 0 {
            assert_eq!(before[0].ts, after[0].ts - 30, "cycle {cycle}: the last base re-folded");
        }
    }
}

/// One transaction's writes overlap one another: the fold resolves them
/// in write order, as replay does.
#[test]
fn overlapping_entries_in_one_record_fold_in_write_order() {
    let (mut rt, base) = one_chain_runtime();
    for round in 0..3u8 {
        rt.begin();
        rt.write(base + 8, &[round; 16]);
        rt.write(base + 12, &[round + 10; 4]);
        rt.write(base + 6, &[round + 20; 4]);
        rt.write(base + 20, &[round + 30; 8]);
        rt.commit();
        rt.begin();
        rt.write(base + 9, &[round + 40; 2]);
        rt.commit();
    }
    let [before, after] = checked_reclaim(&mut rt, base, SpecSpmt::reclaim_now);
    assert!(before.len() == 6 && after.len() == 1);
    assert_eq!(after[0].entries.len(), 1, "the overlapping writes are one run");
    let live = rt.pool().device().peek(base + 6, 22).to_vec();
    assert_eq!(after[0].entries[0].value, live);
}

/// A checkpoint anchors both chains; then chain 0 churns and the cycle
/// folds it. Its anchor's block left the live chain, so recovery reads
/// chain 0 from its head and chain 1, which the cycle left alone, from its
/// anchor — and lands the live bytes.
#[test]
fn a_checkpoint_before_the_fold_recovers_through_the_stale_anchor() {
    let (s, base) = shared_runtime(2);
    let (mut h0, mut h1) = (s.tx_handle(0), s.tx_handle(1));
    for v in 0..8u64 {
        commit_word(&mut h0, base, 0, v);
        commit_word(&mut h1, base, 8 + v as usize, v);
    }
    s.write_checkpoint().expect("both chains committed");
    for v in 0..8 {
        commit_word(&mut h0, base, 1, v);
    }
    // Chain 1 commits last, so every record of chain 0 is settled.
    commit_word(&mut h1, base, 31, 1);
    let [before, after] = checked_cycle(&s, base);
    assert_eq!(after[1], before[1]);
    assert_eq!(after[0].len(), 1, "chain 0 folded into one base");
    commit_word(&mut h0, base, 2, 7);
    let img = s.device().capture(CrashPolicy::AllLost);
    let mut engine = img.clone();
    let rep = recover_image_opts(&mut engine, &RecoveryOptions::default());
    assert!(rep.checkpoint_used);
    assert_eq!(rep.chains_seeked, 1, "chain 0's anchor is stale, chain 1's holds");
    for bytes in recovered(&img, base) {
        assert_eq!(bytes, s.pool().handle().peek(base, REGION));
    }
}

/// An open chain with nothing committed leaves no settled watermark: the
/// cycle folds no base, and a record holding garbage is folded alone,
/// under its own timestamp. Once that chain commits, the next cycle folds.
#[test]
fn an_open_chain_with_nothing_committed_folds_no_base() {
    let (s, base) = shared_runtime(2);
    let elsewhere = s.pool().alloc_direct(64, 64).expect("alloc");
    let (mut h0, mut h1) = (s.tx_handle(0), s.tx_handle(1));
    h1.begin();
    h1.write(elsewhere, &[1; 8]);
    for v in 0..6u64 {
        h0.begin();
        h0.write(base, &v.to_le_bytes());
        h0.write(base + 8 + 8 * v as usize, &v.to_le_bytes());
        h0.commit();
    }
    let [before, after] = checked_cycle(&s, base);
    assert!(after[1].is_empty());
    assert_eq!(after[0].len(), 6, "no base: every record keeps its own");
    for (b, a) in before[0].iter().zip(&after[0]) {
        assert_eq!(a.ts, b.ts);
    }
    assert_eq!(after[0][5], before[0][5], "the one record without garbage, verbatim");
    assert!(after[0][..5].iter().all(|r| r.entries.len() == 1), "stale words dropped");

    commit_word(&mut h0, base, 0, 42);
    h1.commit();
    let [_, after] = checked_cycle(&s, base);
    assert_eq!(after[0].len(), 1, "chain 1 committed: chain 0 folds");
}

/// A base over the cap splits into consecutive records with one
/// timestamp, each within the cap, across cycles.
#[test]
fn a_base_split_at_a_small_cap_recovers() {
    const CAP: usize = 64;
    let (mut rt, base) = one_chain_runtime();
    let mut rng = SplitMix64::new(51);
    for cycle in 0..3 {
        for _ in 0..40 {
            rt.begin();
            for (at, data) in draw_writes(&mut rng, base) {
                rt.write(at, &data);
            }
            rt.commit();
        }
        let [before, after] = checked_reclaim(&mut rt, base, |rt| rt.reclaim_now_with_cap(CAP));
        let ts = before.last().expect("commits").ts;
        assert!(after.len() > 2, "cycle {cycle}: {} records", after.len());
        for r in &after {
            assert_eq!(r.ts, ts, "cycle {cycle}");
            assert!(r.payload_len() <= CAP, "cycle {cycle}");
        }
    }
}
