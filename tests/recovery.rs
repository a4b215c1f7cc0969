//! Recovery boundary contracts through the facade: the documented
//! equal-timestamp tie-break, a hand-built pool through the engine at a
//! wider parse, torn-checkpoint fallback to full replay, a checksum-valid
//! entry whose address range runs past the pool, a write past the 16-bit
//! entry length, a checkpoint anchor a reclamation splice left stale — and
//! the exact simulated time-to-recover of one deterministic 32-chain image
//! (the cost model's goldens). Wherever an image is compared, the other
//! side is the reference replay, `recovery::recover_image`, never the
//! engine under another option.

use specpmt::core::record::{
    encode_record, parse_chain, LogArea, LogEntry, LogRecord, PoolStore, BLOCK_HDR, MAX_ENTRY_LEN,
};
use specpmt::core::recovery::recover_image;
use specpmt::core::{
    recover_image_opts, ConcurrentConfig, PoolLayout, RecoveryOptions, SpecConfig, SpecSpmt,
    SpecSpmtShared, TxHandle,
};
use specpmt::pmem::{
    CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool, SharedPmemDevice,
    MAX_POOL_BYTES,
};
use specpmt::txn::{TxAccess, TxRuntime};

/// A clone of `img` repaired by the reference replay.
fn reference_of(img: &CrashImage) -> CrashImage {
    let mut clone = img.clone();
    recover_image(&mut clone);
    clone
}

/// Recovers a clone of `img` under `opts` and returns (report, image).
fn recover_clone(
    img: &CrashImage,
    opts: &RecoveryOptions,
) -> (specpmt::core::RecoveryReport, CrashImage) {
    let mut clone = img.clone();
    let report = recover_image_opts(&mut clone, opts);
    (report, clone)
}

/// Hand-builds a two-chain pool (no runtime: records appended straight to
/// `LogArea`s, heads published through a formatted [`PoolLayout`]) whose
/// chains carry records with the same commit timestamp: the adversarial
/// input for the documented tie-break. Returns the image plus the two
/// probed addresses.
///
/// * `shared_addr` is written by chain 0 (ts 7) and chain 1 (ts 7) —
///   equal timestamps resolve by ascending chain index, so chain 1's
///   byte lands last and wins.
/// * `pos_addr` is written twice by chain 0, both at ts 7 — equal
///   timestamps within one chain resolve by chain position, so the
///   later record wins.
fn equal_ts_image() -> (CrashImage, usize, usize) {
    const BLOCK: usize = 256;
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let shared_addr = pool.alloc_direct(8, 8).expect("alloc");
    let pos_addr = pool.alloc_direct(8, 8).expect("alloc");
    let mut free = Vec::new();
    let mut dirty = Vec::new();

    let chain_records = [
        vec![
            LogRecord {
                ts: 7,
                entries: vec![
                    LogEntry { addr: shared_addr, value: 0xAA00u64.to_le_bytes().to_vec() },
                    LogEntry { addr: pos_addr, value: 0xBB00u64.to_le_bytes().to_vec() },
                ],
            },
            LogRecord {
                ts: 7,
                entries: vec![LogEntry { addr: pos_addr, value: 0xBB01u64.to_le_bytes().to_vec() }],
            },
        ],
        vec![LogRecord {
            ts: 7,
            entries: vec![LogEntry { addr: shared_addr, value: 0xAA01u64.to_le_bytes().to_vec() }],
        }],
    ];
    let mut heads = Vec::new();
    for records in &chain_records {
        let mut store = PoolStore::new(&mut pool, &mut free);
        let mut area = LogArea::create(&mut store, BLOCK, &mut dirty);
        for rec in records {
            area.append(&mut store, &encode_record(rec), &mut dirty);
            area.write_terminator(&mut store, &mut dirty);
        }
        heads.push(area.head());
    }

    let layout = PoolLayout::format(&mut pool, heads.len(), BLOCK);
    for (tid, &head) in heads.iter().enumerate() {
        layout.set_head(&mut pool, tid, head as u64);
    }
    // AllSurvive keeps the hand-staged (never flushed) bytes.
    (pool.device().capture(CrashPolicy::AllSurvive), shared_addr, pos_addr)
}

/// Equal commit timestamps resolve by ascending chain index, then chain
/// position — the contract `committed_records` documents — and the
/// engine's `(ts, chain)` merge reproduces the reference's stable sort
/// bit-identically.
#[test]
fn equal_timestamp_tie_break_is_chain_index_then_position() {
    let (img, shared_addr, pos_addr) = equal_ts_image();

    // Chain 1 beats chain 0 at equal ts; within chain 0 the later record
    // beats the earlier one.
    let reference = reference_of(&img);
    assert_eq!(reference.read_u64(shared_addr), 0xAA01);
    assert_eq!(reference.read_u64(pos_addr), 0xBB01);

    let (rep, merged) = recover_clone(&img, &RecoveryOptions::default());
    assert_eq!(rep.chains_nonempty, 2);
    assert_eq!(rep.records_parsed, 3);
    assert_eq!(rep.records_replayed, 3);
    assert!(!rep.checkpoint_used, "no checkpoint was ever written");
    assert_eq!(merged, reference, "the merge diverged from the reference tie-break order");
}

/// A committed record is only checksum-valid, not address-valid: an entry
/// at the top of the 48-bit offset space an entry header encodes runs past
/// any pool (a 48-bit offset can no longer make `addr + len` wrap). Both
/// recovery paths (and `inspect`) must skip it without panicking, apply
/// its well-formed neighbours, and still agree byte for byte.
#[test]
fn entry_with_wrapping_address_is_skipped_not_replayed() {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let good_addr = pool.alloc_direct(8, 8).expect("alloc");
    let entry = |addr, v: u64| LogEntry { addr, value: v.to_le_bytes().to_vec() };
    let records = [
        LogRecord {
            ts: 1,
            entries: vec![entry(MAX_POOL_BYTES - 4, 0xBAD), entry(good_addr, 0x600D)],
        },
        LogRecord { ts: 2, entries: vec![entry(MAX_POOL_BYTES - 4, 0xBAD)] },
    ];
    let (mut free, mut dirty) = (Vec::new(), Vec::new());
    let mut store = PoolStore::new(&mut pool, &mut free);
    let mut area = LogArea::create(&mut store, 256, &mut dirty);
    for rec in &records {
        area.append(&mut store, &encode_record(rec), &mut dirty);
    }
    area.write_terminator(&mut store, &mut dirty);
    let head = area.head() as u64;
    PoolLayout::format(&mut pool, 1, 256).set_head(&mut pool, 0, head);
    let img = pool.device().capture(CrashPolicy::AllSurvive);

    let reference = reference_of(&img);
    assert_eq!(reference.read_u64(good_addr), 0x600D, "the well-formed entry replays");
    let (rep, recovered) = recover_clone(&img, &RecoveryOptions::default());
    assert_eq!(rep.records_parsed, 2);
    assert_eq!(recovered, reference, "the engine diverged from the reference path");
    assert_eq!(specpmt::core::forensics(&img).total_records(), 2);
}

/// A pool no runtime formatted parses through the engine: the descriptor's
/// heads are honored and the report shows its chain-slot geometry,
/// whatever the modelled parse width.
#[test]
fn hand_built_pool_recovers_through_the_parallel_engine() {
    let (img, shared_addr, _) = equal_ts_image();
    let layout = PoolLayout::read(&img).expect("the formatted descriptor parses");
    assert_eq!(layout.ckpt_head(&img), 0, "no checkpoint head was published");

    let (rep, recovered) = recover_clone(&img, &RecoveryOptions::parallel(4));
    assert_eq!(rep.chains, layout.threads());
    assert_eq!(rep.chains_nonempty, 2);
    assert!(!rep.checkpoint_used);
    assert_eq!(rep.checkpoint_watermark, 0);
    assert_eq!(recovered.read_u64(shared_addr), 0xAA01);
}

/// Builds a 32-thread shared-runtime crash image carrying a live
/// checkpoint plus post-checkpoint tail commits. Returns the image and
/// the per-thread probed slots (each holding `0xC0DE_0000 + tid` from the
/// final round).
fn checkpointed_image(threads: usize) -> (CrashImage, Vec<usize>) {
    let dev = SharedPmemDevice::new(PmemConfig::new(32 << 20));
    let cfg =
        ConcurrentConfig::builder().threads(threads).reclaim_threshold_bytes(usize::MAX).build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let slots: Vec<usize> =
        (0..threads).map(|_| shared.pool().alloc_direct(64, 8).expect("alloc")).collect();
    let mut handles: Vec<_> = (0..threads).map(|t| shared.tx_handle(t)).collect();
    for round in 0..4u64 {
        if round == 3 {
            let wm = shared.write_checkpoint().expect("all chains committed");
            assert!(wm > 0, "watermark covers the committed prefix");
        }
        for (t, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write(slots[t], &(0xC0DE_0000 + t as u64 + (round << 32)).to_le_bytes());
            h.commit();
        }
    }
    shared.close();
    (dev.capture(CrashPolicy::AllLost), slots)
}

/// A torn checkpoint (corrupted checksum) must not be trusted: recovery
/// falls back to full log replay, bit-identically to the reference, and
/// still lands every committed value.
#[test]
fn torn_checkpoint_falls_back_to_full_replay() {
    let (img, slots) = checkpointed_image(32);

    // The pristine image really does carry a usable checkpoint.
    let (pristine_rep, pristine_img) = recover_clone(&img, &RecoveryOptions::parallel(4));
    assert!(pristine_rep.checkpoint_used);
    assert!(pristine_rep.records_skipped_checkpoint > 0);

    // Tear it: flip bits in the checksum field of the checkpoint record
    // (CKPT header layout: magic | watermark | len | checksum).
    let mut torn = img.clone();
    let layout = PoolLayout::read(&torn).expect("v2 pool parses");
    let head = layout.ckpt_head(&torn);
    assert_ne!(head, 0, "checkpoint head must be spliced in");
    let sum_addr = head + BLOCK_HDR + 20;
    torn.write_u64(sum_addr, torn.read_u64(sum_addr) ^ 0xFFFF_FFFF);

    let (torn_rep, torn_img) = recover_clone(&torn, &RecoveryOptions::default());
    assert!(!torn_rep.checkpoint_used, "torn checkpoint must be rejected");
    assert_eq!(torn_rep.records_skipped_checkpoint, 0);
    assert!(
        torn_rep.records_replayed >= pristine_rep.records_replayed,
        "fallback replays at least the checkpointed path's tail"
    );
    assert_eq!(torn_img, reference_of(&torn), "the fallback diverged from the reference");
    for (t, &slot) in slots.iter().enumerate() {
        assert_eq!(torn_img.read_u64(slot), pristine_img.read_u64(slot), "slot of thread {t}");
        assert_eq!(torn_img.read_u64(slot) & 0xFFFF_FFFF, 0xC0DE_0000 + t as u64);
    }
}

/// Explicitly disabling the checkpoint replays the full log and matches
/// the checkpointed result byte for byte.
#[test]
fn checkpoint_and_full_replay_agree_on_a_live_checkpoint() {
    let (img, _) = checkpointed_image(8);
    let opts = RecoveryOptions::parallel(4);
    let (full_rep, full_img) = recover_clone(&img, &opts.without_checkpoint());
    let (ckpt_rep, ckpt_img) = recover_clone(&img, &opts);
    assert!(!full_rep.checkpoint_used);
    assert!(ckpt_rep.checkpoint_used);
    assert!(ckpt_rep.records_replayed < full_rep.records_replayed);
    assert_eq!(full_img, ckpt_img);
    assert_eq!(ckpt_img, reference_of(&img), "both diverged from the reference");
}

/// Builds the time-to-recover image: 32 log chains of `rounds` committed
/// two-write transactions each, a checkpoint written four rounds before
/// the end (so checkpointed recovery replays only that tail), plus `extra`
/// further records on chain 0. One OS thread drives every handle
/// round-robin, so timestamps and block placement — and with them every
/// term of [`specpmt::core::RecoveryReport::sim_ns`] — are the same on
/// any host.
fn chain_image(rounds: usize, extra: usize) -> CrashImage {
    const CHAINS: usize = 32;
    const TAIL_ROUNDS: usize = 4;
    let dev = SharedPmemDevice::new(PmemConfig::new(8 << 20));
    let cfg =
        ConcurrentConfig::builder().threads(CHAINS).reclaim_threshold_bytes(usize::MAX).build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let bases: Vec<usize> =
        (0..CHAINS).map(|_| shared.pool().alloc_direct(4096, 64).expect("alloc")).collect();
    let mut handles: Vec<_> = (0..CHAINS).map(|t| shared.tx_handle(t)).collect();
    let mut commit = |t: usize, r: usize| {
        let v = (((t as u64) << 32) | r as u64).to_le_bytes();
        let h = &mut handles[t];
        h.begin();
        // Two rotating slots per chain so replay has stale bytes to skip
        // and the checkpoint holds real runs.
        h.write(bases[t] + (r % 16) * 64, &v);
        h.write(bases[t] + 2048 + (r % 8) * 64, &v);
        h.commit();
    };
    for r in 0..rounds {
        if r + TAIL_ROUNDS == rounds {
            shared.write_checkpoint().expect("all chains committed");
        }
        (0..CHAINS).for_each(|t| commit(t, r));
    }
    (rounds..rounds + extra).for_each(|r| commit(0, r));
    shared.close();
    dev.capture(CrashPolicy::AllLost)
}

/// The simulated time-to-recover of the 32-chain × 64-round image, exact:
/// the parse term shrinks with the modelled parse width (chains parse
/// independently; the busiest worker's byte share is the makespan), and
/// the checkpoint moves the merge term from every record to the tail and
/// the parse term from every record to each chain's anchor and tail.
/// One extra record on one chain must move every number. The width is a
/// parameter of that model and of nothing else: the image, and every
/// report field but the two that carry the width, are the same at any.
///
/// The checkpointed goldens were 310,306 / 95,266 / 72,226 while recovery
/// parsed every chain from its head: the seek reads 191 records (11,460
/// bytes) instead of 2,048 (122,880), and every chain here fits in one
/// block, so it follows no forward pointer. With 8-byte entry headers the
/// records are 52 bytes, not 60: the seek reads 9,932 bytes, full replay
/// 106,496, and the goldens fell from 518,096 / 68,896, 303,056 / 48,856
/// and 280,016 / 46,696.
#[test]
fn recovery_sim_cost_matches_goldens() {
    const GOLDEN: [(usize, u64, u64); 3] =
        [(1, 485_328, 65_840), (8, 298_960, 48_472), (32, 278_992, 46_600)];
    let img = chain_image(64, 0);
    let dearer = chain_image(64, 1);
    let reference = reference_of(&img);
    let (serial_rep, _) = recover_clone(&img, &RecoveryOptions::default());
    assert_eq!(serial_rep.sim_ns(), GOLDEN[0].2, "the default entry is serial and checkpointed");
    for width in [1, 2, 8, 32] {
        let (rep, recovered) = recover_clone(&img, &RecoveryOptions::parallel(width));
        assert_eq!(recovered, reference, "width {width} diverged from the reference");
        assert_eq!(rep.parse_threads, width);
        let widthless = specpmt::core::RecoveryReport {
            parse_threads: serial_rep.parse_threads,
            parse_makespan_bytes: serial_rep.parse_makespan_bytes,
            ..rep
        };
        assert_eq!(widthless, serial_rep, "width {width} moved more than the modelled parse");
    }
    for (threads, full_ns, ckpt_ns) in GOLDEN {
        let ckpt = RecoveryOptions::parallel(threads);
        for (opts, golden) in [(ckpt.without_checkpoint(), full_ns), (ckpt, ckpt_ns)] {
            let (rep, recovered) = recover_clone(&img, &opts);
            assert_eq!(rep.sim_ns(), golden, "{opts:?}");
            assert_eq!(rep.checkpoint_used, opts.use_checkpoint);
            assert_eq!(recovered, reference, "{opts:?} diverged from the reference");
            assert_ne!(
                recover_clone(&dearer, &opts).0.sim_ns(),
                golden,
                "{opts:?}, one more record"
            );
        }
    }
}

/// The time-to-recover bound: at a fixed checkpoint lag the checkpointed
/// replay cost, and the log bytes the checkpointed recovery parses — each
/// chain's anchor record and the records after it — are the same numbers
/// whatever the log size, while full replay grows with the log. What the
/// log size still moves is the seek: one forward pointer per block before
/// a chain's anchor (none while every chain fits in one 4 KiB block).
#[test]
fn checkpointed_replay_cost_is_flat_in_log_size() {
    const CKPT_REPLAY_NS: u64 = 43_656;
    // 191 records of 52 bytes (60 before entry headers shrank to 8 bytes).
    const CKPT_BYTES_PARSED: u64 = 9_932;
    let opts = RecoveryOptions::parallel(32);
    for (rounds, seek_hops) in [(16, 0), (64, 0), (256, 96)] {
        let img = chain_image(rounds, 0);
        let (full_rep, full_img) = recover_clone(&img, &opts.without_checkpoint());
        let (ckpt_rep, ckpt_img) = recover_clone(&img, &opts);
        assert_eq!(full_img, ckpt_img, "{rounds} rounds");
        assert_eq!(ckpt_img, reference_of(&img), "{rounds} rounds, against the reference");
        assert_eq!(ckpt_rep.replay_sim_ns(), CKPT_REPLAY_NS, "{rounds} rounds");
        assert_eq!(ckpt_rep.bytes_parsed, CKPT_BYTES_PARSED, "{rounds} rounds");
        assert_eq!(ckpt_rep.chains_seeked, 32, "{rounds} rounds");
        assert_eq!(ckpt_rep.seek_hops, seek_hops, "{rounds} rounds");
        assert!(full_rep.replay_sim_ns() > CKPT_REPLAY_NS, "{rounds} rounds");
        assert!(ckpt_rep.sim_ns() < full_rep.sim_ns(), "{rounds} rounds");
    }
    let (dearer, _) = recover_clone(&chain_image(16, 1), &opts);
    assert_ne!(dearer.replay_sim_ns(), CKPT_REPLAY_NS, "one more tail record");
}

/// A two-chain runtime on 256-byte blocks after `rounds` rounds — chain 0
/// overwrites one word, chain 1 writes a word of its own each round, so
/// only chain 0 has anything for reclamation to drop — and a checkpoint
/// anchoring both chains. Returns the device, the runtime, its handles and
/// the written region.
fn anchored_runtime(
    rounds: u64,
) -> (SharedPmemDevice, std::sync::Arc<SpecSpmtShared>, Vec<TxHandle>, usize) {
    let dev = SharedPmemDevice::new(PmemConfig::new(4 << 20));
    let cfg = ConcurrentConfig::builder()
        .threads(2)
        .block_bytes(STALE_BLOCK)
        .reclaim_threshold_bytes(usize::MAX)
        .build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let base = shared.pool().alloc_direct(4096, 64).expect("alloc");
    let mut handles = vec![shared.tx_handle(0), shared.tx_handle(1)];
    for r in 0..rounds {
        commit_word(&mut handles[0], base, r);
        commit_word(&mut handles[1], base + 64 + 8 * r as usize, r);
    }
    shared.write_checkpoint().expect("both chains committed");
    (dev, shared, handles, base)
}

const STALE_BLOCK: usize = 256;

/// One transaction writing `v` at `addr`.
fn commit_word(h: &mut TxHandle, addr: usize, v: u64) {
    h.begin();
    h.write(addr, &v.to_le_bytes());
    h.commit();
}

/// The blocks of the chain at `head`, head first, by its forward pointers.
fn chain_blocks(img: &CrashImage, head: usize) -> Vec<usize> {
    std::iter::successors((head != 0).then_some(head), |&b| {
        Some(img.read_u64(b) as usize).filter(|&next| next != 0)
    })
    .collect()
}

/// A stale anchor is never followed. A checkpoint anchors both chains of a
/// two-chain runtime; then a reclamation splice rewrites chain 0 — whose
/// records but the last went stale — and takes its old blocks off the
/// chain with the anchored record still intact in them, and chain 0
/// commits again. Its anchor's block is no longer on its live chain, so
/// recovery reads chain 0 from its head (only chain 1, which the cycle
/// left alone, from its anchor) and lands the reference's image,
/// post-splice commits included.
#[test]
fn a_reclaim_splice_leaves_a_stale_anchor_that_recovery_does_not_follow() {
    let (dev, shared, mut handles, base) = anchored_runtime(20);
    let anchored = dev.capture(CrashPolicy::AllLost);
    let (rep, recovered) = recover_clone(&anchored, &RecoveryOptions::default());
    assert_eq!(rep.chains_seeked, 2, "both anchors hold before the splice");
    assert_eq!(recovered, reference_of(&anchored));
    let layout = PoolLayout::read(&anchored).expect("formatted");
    let old_head = layout.head(&anchored, 0);
    let old_chain = parse_chain(&anchored, old_head, STALE_BLOCK);
    assert!(old_chain.len() == 20 && old_head != 0);

    shared.reclaim_cycle();
    commit_word(&mut handles[0], base, 100);
    commit_word(&mut handles[0], base + 8, 101);
    let img = dev.capture(CrashPolicy::AllLost);
    assert_ne!(layout.head(&img, 0), old_head, "the splice moved chain 0");
    assert_eq!(parse_chain(&img, old_head, STALE_BLOCK), old_chain, "the old blocks still hold it");

    let (rep, recovered) = recover_clone(&img, &RecoveryOptions::default());
    assert!(rep.checkpoint_used);
    assert_eq!(rep.chains_seeked, 1, "chain 0's anchor is stale, chain 1's holds");
    let watermark = rep.checkpoint_watermark;
    let chain = |t| parse_chain(&img, layout.head(&img, t), STALE_BLOCK);
    let from_anchor_1 = 1 + chain(1).iter().filter(|r| r.ts > watermark).count();
    assert_eq!(rep.records_parsed, chain(0).len() + from_anchor_1, "chain 0 read from its head");
    assert_eq!(recovered, reference_of(&img), "the stale anchor diverged from the reference");
    assert_eq!((recovered.read_u64(base), recovered.read_u64(base + 8)), (100, 101));
}

/// The block a checkpoint anchor names never comes back to a chain while
/// that checkpoint is the durable one. Chain 0's 23rd record — its anchor
/// — starts 88 bytes into its fourth block. The splice leaves one record
/// on chain 0 and takes the four old blocks off it; six more commits fill
/// the new block and spill into a block from the free list, leaving the
/// live stream's terminator at 28 in it. Were that the anchor's block (the
/// old tail, the last block the splice freed), its anchored record would
/// sit intact past the terminator, on the live chain: a seek that trusted
/// it would read nothing after it and drop all six commits. The block is
/// held off the free list instead, so the spill takes another one and
/// recovery reads chain 0 from its head.
#[test]
fn a_spill_never_reuses_the_block_a_durable_anchor_names() {
    let (dev, shared, mut handles, base) = anchored_runtime(23);
    let anchored = dev.capture(CrashPolicy::AllLost);
    let layout = PoolLayout::read(&anchored).expect("formatted");
    let old_blocks = chain_blocks(&anchored, layout.head(&anchored, 0));
    let old_chain = parse_chain(&anchored, old_blocks[0], STALE_BLOCK);
    // Every record is the same size, so the anchor starts 22 of them into
    // the chain's stream of block bodies.
    let record_bytes = encode_record(&old_chain[22]).len();
    let (offset, body) = (22 * record_bytes, STALE_BLOCK - BLOCK_HDR);
    let tail = old_blocks[offset / body];
    let at = tail + BLOCK_HDR + offset % body;
    assert_eq!((old_blocks.len(), offset / body, at - tail), (4, 3, 88), "anchor in the tail");
    let anchor_bytes = anchored.read_bytes(at, record_bytes).to_vec();

    shared.reclaim_cycle();
    for v in 0..6 {
        commit_word(&mut handles[0], base + 8 * v as usize, 100 + v);
    }
    let img = dev.capture(CrashPolicy::AllLost);
    let live = chain_blocks(&img, layout.head(&img, 0));
    assert_eq!(live.len(), 2, "the sixth commit spilled into a block from the free list");
    assert_eq!(img.read_bytes(at, record_bytes), anchor_bytes, "the anchored record is intact");

    let (rep, recovered) = recover_clone(&img, &RecoveryOptions::default());
    // Not `assert_eq!`: a divergence would print two 4 MiB images.
    assert!(recovered == reference_of(&img), "a reused anchor block dropped the commits");
    assert_eq!(rep.chains_seeked, 1, "chain 0 is read from its head");
    assert!(!live.contains(&tail), "the anchored block went back to chain 0");
    for v in 0..6 {
        assert_eq!(recovered.read_u64(base + 8 * v as usize), 100 + v);
    }
}

/// A chain a checkpoint scans empty and not open still bounds its
/// watermark. One thread writes a checkpoint over a 512-chain runtime
/// while another, after a spin that grows by trial, commits one word on
/// chain 0 and then one on chain 511. When the scan passes chain 0 before
/// that commit and reaches chain 511 after the second, chain 511's
/// timestamp would set the watermark above chain 0's record — which the
/// scan did not fold — and the checkpointed recovery would drop it. Every
/// trial must land the reference replay's image, both words included.
///
/// Without the bound, a debug build on a 2-vCPU host loses the word in
/// about 9 trials of 10, so 24 trials (about 3 s) all miss the race only
/// by a vanishing chance.
#[test]
fn a_chain_scanned_empty_still_bounds_the_checkpoint_watermark() {
    const CHAINS: usize = 512;
    const TRIALS: u64 = 24;
    for trial in 0..TRIALS {
        let dev = SharedPmemDevice::new(PmemConfig::new(4 << 20));
        let cfg = ConcurrentConfig::builder()
            .threads(CHAINS)
            .block_bytes(STALE_BLOCK)
            .reclaim_threshold_bytes(usize::MAX)
            .build();
        let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
        let base = shared.pool().alloc_direct(64, 64).expect("alloc");
        shared.pool().handle().persist_range(base, 64);
        let (mut first, mut last) = (shared.tx_handle(0), shared.tx_handle(CHAINS - 1));
        let spin = trial * 250;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                shared.write_checkpoint();
            });
            barrier.wait();
            for i in 0..spin {
                std::hint::black_box(i);
            }
            commit_word(&mut first, base, 0xa0a0);
            commit_word(&mut last, base + 8, 0xb0b0);
        });
        let img = dev.capture(CrashPolicy::AllLost);
        let (rep, recovered) = recover_clone(&img, &RecoveryOptions::default());
        // Not `assert_eq!`: a divergence would print two 4 MiB images.
        assert!(
            recovered == reference_of(&img),
            "trial {trial} (spin {spin}): watermark {} lost chain 0's commit, which reads {:#x}",
            rep.checkpoint_watermark,
            recovered.read_u64(base)
        );
        assert_eq!((recovered.read_u64(base), recovered.read_u64(base + 8)), (0xa0a0, 0xb0b0));
    }
}

/// Two transactions past the 16-bit entry length, on `a` over the region
/// at `base`: one write of two full entries and a rest, then 70 adjacent
/// 1,000-byte writes whose extension of one entry stops at the bound.
/// Returns the bytes the region must recover to.
fn write_past_the_entry_bound<A: TxAccess>(a: &mut A, base: usize) -> Vec<u8> {
    let long: Vec<u8> = (0..2 * MAX_ENTRY_LEN + 1_000).map(|i| (i % 253) as u8).collect();
    a.begin();
    a.write(base, &long);
    a.commit();
    let run = base + long.len();
    a.begin();
    for k in 0..70 {
        a.write(run + 1_000 * k, &[k as u8 + 1; 1_000]);
    }
    a.commit();
    let mut want = long;
    (0..70u8).for_each(|k| want.extend_from_slice(&[k + 1; 1_000]));
    want
}

/// A write longer than an entry holds is logged as consecutive entries,
/// and an extension that would pass the bound opens a new one: on the
/// sequential runtime and on a shared-runtime handle, the five entries
/// (three for the long write, two for the run) replay through the engine
/// to the reference's image, which holds every byte written.
#[test]
fn a_write_past_the_entry_bound_splits_into_entries_that_replay() {
    let spec_cfg = SpecConfig { reclaim_threshold_bytes: usize::MAX, ..SpecConfig::default() };
    let mut rt =
        SpecSpmt::new(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20))), spec_cfg);
    let base = rt.setup_alloc(256 << 10, 64);
    let seq_want = write_past_the_entry_bound(&mut rt, base);
    let seq = (rt.pool().device().capture(CrashPolicy::AllLost), base, seq_want);

    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 20));
    let cfg = ConcurrentConfig::builder().threads(1).reclaim_threshold_bytes(usize::MAX).build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let base = shared.pool().alloc_direct(256 << 10, 64).expect("alloc");
    let shared_want = write_past_the_entry_bound(&mut shared.tx_handle(0), base);
    let mt = (dev.capture(CrashPolicy::AllLost), base, shared_want);

    for (name, (img, base, want)) in [("SpecSpmt", seq), ("TxHandle", mt)] {
        let chain = &specpmt::core::forensics(&img).chains[0];
        assert_eq!((chain.records, chain.entries), (2, 5), "{name}");
        let reference = reference_of(&img);
        assert_eq!(reference.read_bytes(base, want.len()), &want[..], "{name}");
        let (rep, recovered) = recover_clone(&img, &RecoveryOptions::default());
        assert_eq!(rep.records_replayed, 2, "{name}");
        assert!(recovered == reference, "{name}: the engine diverged from the reference");
    }
}
