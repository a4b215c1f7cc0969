//! Reclamation's rewrite trims entries to their fresh byte spans and merges
//! a record's adjacent spans into one entry. That must never change what
//! recovers: over seeded histories on several chains of `SpecSpmtShared`
//! and on the one chain of `SpecSpmt`, an all-lost crash image taken just
//! before a rewrite and one taken just after it recover to the same data
//! bytes — through the engine (`recover_image_opts`) and through the
//! reference replay (`recover_image`) — and those bytes are what the
//! runtime last committed.

use specpmt::core::record::parse_chain;
use specpmt::core::recovery::recover_image;
use specpmt::core::{
    recover_image_opts, ConcurrentConfig, PoolLayout, RecoveryOptions, SpecConfig, SpecSpmt,
    SpecSpmtShared,
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
