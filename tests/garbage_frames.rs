//! Garbage frames: fixed-seed bit flips and truncations of every sealed
//! on-PM frame beside the log record — the layout descriptor, a checkpoint
//! (its anchor table included), the flight recorder's region header and
//! slots, an undo region and a hash-log table. Each reader must reject what
//! it cannot verify (`None`, an absent recorder, a skipped entry) and never
//! panic; where a frame is rejected, the rest of recovery goes on as if it
//! had never been written. A checkpoint whose seal holds but whose anchors
//! the image does not back — forged from outside and re-sealed — costs
//! recovery its seek, never its image.

use specpmt::baselines::{PmdkConfig, PmdkUndo};
use specpmt::core::hashlog::{HASH_BASE_SLOT, SLOT_BYTES};
use specpmt::core::layout::DESC_HDR;
use specpmt::core::record::{ANCHOR_BYTES, BLOCK_HDR, CKPT_HDR, REC_HDR};
use specpmt::core::recovery::recover_image;
use specpmt::core::undo::{entry_bytes, UNDO_BASE_SLOT};
use specpmt::core::{
    forensics, inspect_image, recover_image_opts, ConcurrentConfig, HashLogConfig, HashLogSpmt,
    PoolLayout, RecoveryOptions, SpecSpmtShared,
};
use specpmt::pmem::blackbox::{EVT_BYTES, REGION_HDR};
use specpmt::pmem::frame::seal;
use specpmt::pmem::{
    root_off, CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool,
    SharedPmemDevice, SplitMix64,
};
use specpmt::txn::{Recover, TxAccess, TxRuntime};

/// Flips drawn per frame.
const FLIPS: usize = 96;

/// `img` with one bit flipped at a byte drawn from `[lo, hi)`.
fn flipped(img: &CrashImage, rng: &mut SplitMix64, lo: usize, hi: usize) -> (usize, CrashImage) {
    let at = rng.range_usize(lo, hi - 1);
    let mut out = img.clone();
    out.write_bytes(at, &[img.read_bytes(at, 1)[0] ^ 1 << rng.below(8)]);
    (at, out)
}

/// The first `len` bytes of `img`.
fn truncated(img: &CrashImage, len: usize) -> CrashImage {
    CrashImage::new(img.as_bytes()[..len].to_vec())
}

/// Every reader of a SpecPMT image, run on `img`: none may panic.
fn read_everything(img: &CrashImage) {
    let mut clone = img.clone();
    recover_image_opts(&mut clone, &RecoveryOptions::default());
    let _ = (inspect_image(img), forensics(img), PoolLayout::read(img));
}

/// A four-chain shared-runtime image with the flight recorder on and a
/// live checkpoint behind the last round of commits.
fn recorder_image() -> CrashImage {
    let dev = SharedPmemDevice::new(PmemConfig::new(8 << 20));
    let cfg = ConcurrentConfig::builder()
        .threads(4)
        .flight_recorder(true)
        .reclaim_threshold_bytes(usize::MAX)
        .build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let slots: Vec<usize> =
        (0..4).map(|_| shared.pool().alloc_direct(64, 8).expect("alloc")).collect();
    let mut handles: Vec<_> = (0..4).map(|t| shared.tx_handle(t)).collect();
    for round in 0..6u64 {
        if round == 4 {
            assert!(shared.write_checkpoint().is_some_and(|wm| wm > 0));
        }
        for (t, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write(slots[t], &(round << 8 | t as u64).to_le_bytes());
            h.commit();
        }
    }
    shared.close();
    dev.capture(CrashPolicy::AllLost)
}

#[test]
fn a_damaged_layout_descriptor_is_no_layout() {
    let img = recorder_image();
    let desc = PoolLayout::read(&img).expect("pristine layout").desc_base();
    let mut rng = SplitMix64::new(0xde5c);
    for _ in 0..FLIPS {
        // The write-once, sealed part: magic, version, chain count, block
        // size and the seal itself.
        let (at, bad) = flipped(&img, &mut rng, desc, desc + 32);
        assert_eq!(PoolLayout::read(&bad), None, "flip at {at:#x} was accepted");
        read_everything(&bad);
        // The unsealed heads (checkpoint, recorder base, chain table) are
        // self-validating pointers: anything goes, but nothing panics.
        read_everything(&flipped(&img, &mut rng, desc + 32, desc + DESC_HDR + 8 * 4).1);
    }
    for cut in [desc + 7, desc + 31, desc + DESC_HDR + 8] {
        let short = truncated(&img, cut);
        assert_eq!(PoolLayout::read(&short), None, "descriptor cut at {cut:#x}");
        read_everything(&short);
    }
}

#[test]
fn a_damaged_checkpoint_falls_back_to_full_replay() {
    let img = recorder_image();
    let layout = PoolLayout::read(&img).expect("pristine layout");
    let rec = layout.ckpt_head(&img) + BLOCK_HDR;
    assert!(recover_image_opts(&mut img.clone(), &RecoveryOptions::default()).checkpoint_used);
    // magic | watermark | len (u32) | seal, then the payload; the flips
    // stay in the record's first block.
    let len = u32::from_le_bytes(img.read_bytes(rec + 16, 4).try_into().expect("4 bytes"));
    let end = rec + (CKPT_HDR + len as usize).min(layout.block_bytes() - BLOCK_HDR);
    let mut rng = SplitMix64::new(0xc4c4);
    for _ in 0..FLIPS {
        let (at, bad) = flipped(&img, &mut rng, rec, end);
        let mut engine = bad.clone();
        let report = recover_image_opts(&mut engine, &RecoveryOptions::default());
        assert!(!report.checkpoint_used, "checkpoint flip at {at:#x} was honoured");
        let mut reference = bad;
        recover_image(&mut reference);
        assert_eq!(engine, reference, "flip at {at:#x}: the fallback diverged from full replay");
    }
    let mut short = truncated(&img, rec + CKPT_HDR + len as usize / 2);
    assert!(!recover_image_opts(&mut short, &RecoveryOptions::default()).checkpoint_used);
}

/// A four-chain image whose checkpoint was written twice, so the first
/// checkpoint's block went back to the free list when the second was
/// spliced in. Returns the image and that freed block.
fn twice_checkpointed_image() -> (CrashImage, usize) {
    let dev = SharedPmemDevice::new(PmemConfig::new(8 << 20));
    let cfg = ConcurrentConfig::builder().threads(4).reclaim_threshold_bytes(usize::MAX).build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let slots: Vec<usize> =
        (0..4).map(|_| shared.pool().alloc_direct(64, 8).expect("alloc")).collect();
    let mut handles: Vec<_> = (0..4).map(|t| shared.tx_handle(t)).collect();
    let mut freed = 0;
    for round in 0..8u64 {
        if round == 2 || round == 5 {
            assert!(shared.write_checkpoint().is_some());
        }
        if round == 2 {
            freed = shared.layout().ckpt_head(&shared.pool().handle());
        }
        for (t, h) in handles.iter_mut().enumerate() {
            h.begin();
            h.write(slots[t], &(round << 8 | t as u64).to_le_bytes());
            h.commit();
        }
    }
    (dev.capture(CrashPolicy::AllLost), freed)
}

/// Where `img`'s checkpoint record starts, its watermark and payload
/// length, and its anchors as `[block, pos, ts, checksum]`. The record is
/// `magic | watermark | len (u32) | seal`, then the payload: the anchor
/// count (u32), the anchors, the runs.
fn checkpoint_frame(img: &CrashImage) -> (usize, u64, usize, Vec<[u64; 4]>) {
    let layout = PoolLayout::read(img).expect("pristine layout");
    let rec = layout.ckpt_head(img) + BLOCK_HDR;
    let u32_at = |at| u32::from_le_bytes(img.read_bytes(at, 4).try_into().expect("4 bytes"));
    let len = u32_at(rec + 16) as usize;
    assert!(CKPT_HDR + len <= layout.block_bytes() - BLOCK_HDR, "the frame fits one block");
    let table = rec + CKPT_HDR + 4;
    let anchors = (0..u32_at(rec + CKPT_HDR) as usize)
        .map(|i| [0, 1, 2, 3].map(|w| img.read_u64(table + i * ANCHOR_BYTES + 8 * w)))
        .collect();
    (rec, img.read_u64(rec + 8), len, anchors)
}

/// `img` with its checkpoint's anchors replaced by `anchors` and the
/// record re-sealed through `frame::seal` as the writer seals it: a
/// checkpoint the seal vouches for, whose anchors the image need not back.
fn with_anchors(img: &CrashImage, anchors: &[[u64; 4]]) -> CrashImage {
    let (rec, watermark, len, _) = checkpoint_frame(img);
    let mut out = img.clone();
    for (i, anchor) in anchors.iter().enumerate() {
        for (w, &word) in anchor.iter().enumerate() {
            out.write_u64(rec + CKPT_HDR + 4 + i * ANCHOR_BYTES + 8 * w, word);
        }
    }
    let payload = out.read_bytes(rec + CKPT_HDR, len).to_vec();
    out.write_u64(rec + 20, seal(&payload, len as u64, watermark));
    out
}

/// Sealed checkpoints whose anchors are out of bounds, wrap, point into a
/// record or a block header or past a block, carry another timestamp or
/// checksum, name a freed block or another chain's block, or are absent:
/// the checkpoint is honoured, no chain is read from such an anchor, and
/// the image is the reference's. Bit flips in the anchor table still
/// reject the whole checkpoint.
#[test]
fn forged_anchors_cost_the_seek_never_the_image() {
    let (img, freed) = twice_checkpointed_image();
    let block_bytes = PoolLayout::read(&img).expect("pristine layout").block_bytes() as u64;
    let (rec, _, _, anchors) = checkpoint_frame(&img);
    assert_eq!(anchors.len(), 4);
    assert_ne!(freed, rec - BLOCK_HDR, "the freed block is not the live one");
    let reseal = with_anchors(&img, &anchors);
    assert!(reseal == img, "re-sealing the stored anchors changes nothing");
    let pristine = recover_image_opts(&mut img.clone(), &RecoveryOptions::default());
    assert_eq!(pristine.chains_seeked, 4, "every genuine anchor holds");

    let size = img.len() as u64;
    type Forge = fn(u64, u64, u64, [u64; 4], [u64; 4]) -> [u64; 4];
    let forgeries: [(&str, Forge); 13] = [
        ("out of bounds", |size, _, _, [_, p, t, c], _| [size, p, t, c]),
        ("block wraps", |_, _, _, [_, p, t, c], _| [u64::MAX - 7, p, t, c]),
        ("position wraps", |_, _, _, [b, _, t, c], _| [b, u64::MAX, t, c]),
        ("in the block header", |_, _, _, [b, _, t, c], _| [b, 8, t, c]),
        ("past the block", |_, bb, _, [b, _, t, c], _| [b, bb + 1, t, c]),
        ("mid-record", |_, _, _, [b, p, t, c], _| [b, p + 1, t, c]),
        ("mid-header", |_, _, _, [b, p, t, c], _| [b, p + REC_HDR as u64 / 2, t, c]),
        ("another timestamp", |_, _, _, [b, p, t, c], _| [b, p, t + 1, c]),
        ("another checksum", |_, _, _, [b, p, t, c], _| [b, p, t, c ^ 1]),
        ("a freed block", |_, _, freed, [_, _, t, c], _| [freed, BLOCK_HDR as u64, t, c]),
        ("another chain's block", |_, _, _, _, next| next),
        ("another chain's block, own record", |_, _, _, [_, p, t, c], [b, ..]| [b, p, t, c]),
        ("absent", |_, _, _, [_, p, t, c], _| [0, p, t, c]),
    ];
    for (what, forge) in forgeries {
        let forged: Vec<[u64; 4]> = (0..anchors.len())
            .map(|i| forge(size, block_bytes, freed as u64, anchors[i], anchors[(i + 1) % 4]))
            .collect();
        let bad = with_anchors(&img, &forged);
        let mut engine = bad.clone();
        let report = recover_image_opts(&mut engine, &RecoveryOptions::default());
        assert!(report.checkpoint_used, "{what}: the seal holds");
        assert_eq!(report.chains_seeked, 0, "{what}: a chain was read from a forged anchor");
        let mut reference = bad.clone();
        recover_image(&mut reference);
        assert_eq!(engine, reference, "{what}: diverged from the reference");
        read_everything(&bad);
    }

    let table = rec + CKPT_HDR;
    let mut rng = SplitMix64::new(0xa2c4);
    for _ in 0..FLIPS {
        let (at, bad) = flipped(&img, &mut rng, table, table + 4 + 4 * ANCHOR_BYTES);
        let mut engine = bad.clone();
        let report = recover_image_opts(&mut engine, &RecoveryOptions::default());
        assert!(!report.checkpoint_used, "anchor table flip at {at:#x} was honoured");
        let mut reference = bad;
        recover_image(&mut reference);
        assert_eq!(engine, reference, "flip at {at:#x}: the fallback diverged from full replay");
    }
}

#[test]
fn a_damaged_recorder_region_is_absent_and_a_damaged_slot_is_torn() {
    let img = recorder_image();
    let pristine = forensics(&img);
    assert!(pristine.recorder_present && pristine.events_decoded > 0);
    let base = PoolLayout::read(&img).expect("pristine layout").bbox_head(&img);
    let mut rng = SplitMix64::new(0xbb0c);
    for _ in 0..FLIPS {
        // Magic, ring count, capacity and their seal.
        let (at, bad) = flipped(&img, &mut rng, base, base + 24);
        assert!(!forensics(&bad).recorder_present, "header flip at {at:#x} was accepted");
        read_everything(&bad);

        // A flip in the slot of a decoded event tears exactly that slot.
        let ev = pristine.events[rng.below(pristine.events.len() as u64) as usize];
        let slot = base
            + REGION_HDR
            + (ev.tid as usize * pristine.capacity + ev.seq as usize % pristine.capacity)
                * EVT_BYTES;
        let (at, bad) = flipped(&img, &mut rng, slot, slot + EVT_BYTES);
        let report = forensics(&bad);
        assert!(report.recorder_present);
        assert_eq!(report.events_torn, pristine.events_torn + 1, "slot flip at {at:#x}");
        assert_eq!(report.events_decoded, pristine.events_decoded - 1, "slot flip at {at:#x}");
    }
    let region_end = base + REGION_HDR + pristine.rings * pristine.capacity * EVT_BYTES;
    for cut in [base + 8, base + REGION_HDR + EVT_BYTES / 2, region_end - 1] {
        let short = truncated(&img, cut);
        assert!(!forensics(&short).recorder_present, "region cut at {cut:#x}");
        read_everything(&short);
    }
}

/// A PMDK pool crashed inside a transaction that snapshotted one object:
/// the undo region holds one live entry.
fn open_undo_image() -> (CrashImage, usize) {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
    let mut rt = PmdkUndo::new(pool, PmdkConfig { log_bytes: 64 * 1024, ..PmdkConfig::default() });
    let a = rt.setup_alloc(256, 256);
    rt.begin();
    rt.write_u64(a, 7);
    rt.commit();
    rt.begin();
    rt.write_u64(a, 8);
    (rt.pool().device().capture(CrashPolicy::AllSurvive), a)
}

#[test]
fn a_damaged_undo_entry_is_skipped() {
    let (img, a) = open_undo_image();
    let mut rolled = img.clone();
    PmdkUndo::recover(&mut rolled);
    assert_eq!(rolled.read_u64(a), 7, "the pristine entry rolls back");
    // PMDK's region: stage word | used offset | padding to 64 B, entries.
    let region = img.read_u64(root_off(UNDO_BASE_SLOT)) as usize;
    let (entry, end) = (region + 64, region + 64 + entry_bytes(256));
    let mut rng = SplitMix64::new(0x0d0d);
    for _ in 0..FLIPS {
        let (at, mut bad) = flipped(&img, &mut rng, entry, end);
        let before = bad.clone();
        PmdkUndo::recover(&mut bad);
        assert_eq!(bad, before, "entry flip at {at:#x} rolled something back");
    }
    // A flipped stage word names another generation: nothing is in flight.
    for _ in 0..FLIPS {
        let (at, mut bad) = flipped(&img, &mut rng, region, region + 8);
        PmdkUndo::recover(&mut bad);
        assert_eq!(bad.read_u64(a), 8, "stage flip at {at:#x}");
    }
    for cut in [entry + 4, entry + 24, end - 1] {
        let mut short = truncated(&img, cut);
        let before = short.clone();
        PmdkUndo::recover(&mut short);
        assert_eq!(short, before, "region cut at {cut:#x}");
    }
}

#[test]
fn a_damaged_hash_log_generation_is_skipped() {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
    let mut rt = HashLogSpmt::new(pool, HashLogConfig { capacity: 1 << 6 });
    let a = rt.setup_alloc(32, 32);
    for v in [1u64, 2] {
        rt.begin();
        rt.write_u64(a, v);
        rt.commit();
    }
    let img = rt.pool().device().capture(CrashPolicy::AllLost);
    let recovered = |img: &CrashImage| {
        let mut img = img.clone();
        HashLogSpmt::recover(&mut img);
        img.read_u64(a)
    };
    assert_eq!(recovered(&img), 2);
    // The chunk's slot: key (chunk index + 1), then two generations of
    // ts | seal | 32-byte value; the older one holds 1, the newer 2.
    let table = img.read_u64(root_off(HASH_BASE_SLOT)) as usize;
    let key = (a / 32 + 1) as u64;
    let slot = (0..1 << 6)
        .map(|i| table + i * SLOT_BYTES)
        .find(|&s| img.read_u64(s) == key)
        .expect("the chunk's slot");
    let newer = if img.read_u64(slot + 8) > img.read_u64(slot + 56) { slot + 8 } else { slot + 56 };
    let older = if newer == slot + 8 { slot + 56 } else { slot + 8 };
    let mut rng = SplitMix64::new(0x4a54);
    for _ in 0..FLIPS {
        let (at, bad) = flipped(&img, &mut rng, newer, newer + 48);
        assert_eq!(recovered(&bad), 1, "newer flip at {at:#x}: the older generation wins");
        let (at, bad) = flipped(&img, &mut rng, older, older + 48);
        assert_eq!(recovered(&bad), 2, "older flip at {at:#x}");
        // The key is sealed into both generations.
        let (at, bad) = flipped(&img, &mut rng, slot, slot + 8);
        assert_eq!(recovered(&bad), img.read_u64(a), "key flip at {at:#x}");
    }
    let mut short = truncated(&img, slot + 60);
    let before = short.clone();
    HashLogSpmt::recover(&mut short);
    assert_eq!(short, before, "a cut table is skipped whole");
}
