//! Garbage frames: fixed-seed bit flips and truncations of every on-PM
//! frame. `every_field_of_every_format_is_damaged` walks each declared
//! format's `FIELDS` table — a bit flipped inside every field, and the
//! image cut at its start — and prints one coverage line per field; the
//! tests after it draw flips over whole frames: the layout descriptor, a
//! checkpoint (its anchor table included), the flight recorder's region
//! header and slots, an undo region and a hash-log table. Each reader must
//! reject what it cannot verify (`None`, an absent recorder, a skipped
//! entry) and never panic; where a frame is rejected, the rest of recovery
//! goes on as if it had never been written, and a damaged log record leaves
//! the recovery engine and the reference replay agreeing. A checkpoint
//! whose seal holds but whose anchors the image does not back — forged from
//! outside and re-sealed — costs recovery its seek, never its image.

use std::collections::BTreeSet;

use specpmt::baselines::{PmdkConfig, PmdkUndo};
use specpmt::core::hashlog::{GenerationHeader, CHUNK, HASH_BASE_SLOT, SLOT_BYTES};
use specpmt::core::layout::DescriptorHeader;
use specpmt::core::record::{
    Anchor, BlockHeader, CheckpointHeader, EntryHeader, RecordHeader, BLOCK_HDR, REC_HDR,
};
use specpmt::core::recovery::recover_image;
use specpmt::core::undo::{entry_bytes, UndoHeader, UNDO_BASE_SLOT};
use specpmt::core::{
    forensics, recover_image_opts, ConcurrentConfig, HashLogConfig, HashLogSpmt, PoolLayout,
    RecoveryOptions, SpecSpmtShared,
};
use specpmt::pmem::blackbox::{EventSlot, RegionHeader, REGION_HDR};
use specpmt::pmem::frame::{seal, Field};
use specpmt::pmem::{
    root_off, CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool, PoolHeader,
    SharedPmemDevice, SplitMix64,
};
use specpmt::txn::{Recover, TxAccess, TxRuntime};

/// Flips drawn per frame.
const FLIPS: usize = 96;

/// A hash-log slot's key, ahead of its two generations.
const KEY: usize = 8;

/// Bytes of one hash-log generation: its header, then the chunk's value.
const GENERATION: usize = GenerationHeader::LEN + CHUNK;

/// Where field `name` of a frame with table `fields` starts.
fn offset(fields: &[Field], name: &str) -> usize {
    fields.iter().find(|f| f.name == name).expect("a declared field").offset
}

/// The value of field `name` of the frame at `at` in `img`.
fn read_field(img: &CrashImage, at: usize, fields: &[Field], name: &str) -> u64 {
    let f = fields.iter().find(|f| f.name == name).expect("a declared field");
    let mut word = [0u8; 8];
    word[..f.width].copy_from_slice(img.read_bytes(at + f.offset, f.width));
    u64::from_le_bytes(word)
}

/// The descriptor bytes its seal covers, seal included: written once.
fn sealed_desc() -> usize {
    offset(DescriptorHeader::FIELDS, "ckpt_head")
}

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
    let _ = (forensics(img), PoolLayout::read(img));
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
        let (at, bad) = flipped(&img, &mut rng, desc, desc + sealed_desc());
        assert_eq!(PoolLayout::read(&bad), None, "flip at {at:#x} was accepted");
        read_everything(&bad);
        // The unsealed heads (checkpoint, recorder base, chain table) are
        // self-validating pointers: anything goes, but nothing panics.
        read_everything(
            &flipped(&img, &mut rng, desc + sealed_desc(), desc + DescriptorHeader::LEN + 8 * 4).1,
        );
    }
    for cut in [desc + 7, desc + sealed_desc() - 1, desc + DescriptorHeader::LEN + 8] {
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
    let len = read_field(&img, rec, CheckpointHeader::FIELDS, "len");
    let end = rec + (CheckpointHeader::LEN + len as usize).min(layout.block_bytes() - BLOCK_HDR);
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
    let mut short = truncated(&img, rec + CheckpointHeader::LEN + len as usize / 2);
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

/// An anchor's fields, in the order the forgeries below take them.
const ANCHOR: [&str; 4] = ["block", "pos", "ts", "checksum"];

/// Where `img`'s checkpoint record starts, its watermark and payload
/// length, and its anchors as `[block, pos, ts, checksum]`. The record is
/// its header, then the payload: the anchor count (u32), the anchors, the
/// runs.
fn checkpoint_frame(img: &CrashImage) -> (usize, u64, usize, Vec<[u64; 4]>) {
    let layout = PoolLayout::read(img).expect("pristine layout");
    let rec = layout.ckpt_head(img) + BLOCK_HDR;
    let u32_at = |at| u32::from_le_bytes(img.read_bytes(at, 4).try_into().expect("4 bytes"));
    let len = read_field(img, rec, CheckpointHeader::FIELDS, "len") as usize;
    assert!(
        CheckpointHeader::LEN + len <= layout.block_bytes() - BLOCK_HDR,
        "the frame fits one block"
    );
    let table = rec + CheckpointHeader::LEN + 4;
    let anchors = (0..u32_at(rec + CheckpointHeader::LEN) as usize)
        .map(|i| ANCHOR.map(|name| read_field(img, table + i * Anchor::LEN, Anchor::FIELDS, name)))
        .collect();
    (rec, read_field(img, rec, CheckpointHeader::FIELDS, "watermark"), len, anchors)
}

/// `img` with its checkpoint's anchors replaced by `anchors` and the
/// record re-sealed through `frame::seal` as the writer seals it: a
/// checkpoint the seal vouches for, whose anchors the image need not back.
fn with_anchors(img: &CrashImage, anchors: &[[u64; 4]]) -> CrashImage {
    let (rec, watermark, len, _) = checkpoint_frame(img);
    let mut out = img.clone();
    for (i, anchor) in anchors.iter().enumerate() {
        for (name, &word) in ANCHOR.iter().zip(anchor) {
            let at = rec + CheckpointHeader::LEN + 4 + i * Anchor::LEN;
            out.write_u64(at + offset(Anchor::FIELDS, name), word);
        }
    }
    let payload = out.read_bytes(rec + CheckpointHeader::LEN, len).to_vec();
    let seal_at = rec + offset(CheckpointHeader::FIELDS, "checksum");
    out.write_u64(seal_at, seal(&payload, len as u64, watermark));
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

    let table = rec + CheckpointHeader::LEN;
    let mut rng = SplitMix64::new(0xa2c4);
    for _ in 0..FLIPS {
        let (at, bad) = flipped(&img, &mut rng, table, table + 4 + 4 * Anchor::LEN);
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
    assert!(pristine.recorder_present && !pristine.events.is_empty());
    let base = PoolLayout::read(&img).expect("pristine layout").bbox_head(&img);
    let mut rng = SplitMix64::new(0xbb0c);
    for _ in 0..FLIPS {
        // Magic, ring count, capacity and their seal.
        let (at, bad) = flipped(&img, &mut rng, base, base + RegionHeader::LEN);
        assert!(!forensics(&bad).recorder_present, "header flip at {at:#x} was accepted");
        read_everything(&bad);

        // A flip in the slot of a decoded event tears exactly that slot.
        let ev = pristine.events[rng.below(pristine.events.len() as u64) as usize];
        let slot = base
            + REGION_HDR
            + (ev.tid as usize * pristine.capacity + ev.seq as usize % pristine.capacity)
                * EventSlot::LEN;
        let (at, bad) = flipped(&img, &mut rng, slot, slot + EventSlot::LEN);
        let report = forensics(&bad);
        assert!(report.recorder_present);
        assert_eq!(report.events_torn, pristine.events_torn + 1, "slot flip at {at:#x}");
        assert_eq!(report.events.len(), pristine.events.len() - 1, "slot flip at {at:#x}");
    }
    let region_end = base + REGION_HDR + pristine.rings * pristine.capacity * EventSlot::LEN;
    for cut in [base + 8, base + REGION_HDR + EventSlot::LEN / 2, region_end - 1] {
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
    for cut in [entry + 4, entry + UndoHeader::LEN, end - 1] {
        let mut short = truncated(&img, cut);
        let before = short.clone();
        PmdkUndo::recover(&mut short);
        assert_eq!(short, before, "region cut at {cut:#x}");
    }
}

/// A hash-log pool after two commits to the chunk at `a` (1, then 2): its
/// image, `a`, and the chunk's slot — its key (chunk index + 1), then two
/// generations of header and 32-byte value.
fn hash_log_image() -> (CrashImage, usize, usize) {
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
    let mut rt = HashLogSpmt::new(pool, HashLogConfig { capacity: 1 << 6 });
    let a = rt.setup_alloc(32, 32);
    for v in [1u64, 2] {
        rt.begin();
        rt.write_u64(a, v);
        rt.commit();
    }
    let img = rt.pool().device().capture(CrashPolicy::AllLost);
    let table = img.read_u64(root_off(HASH_BASE_SLOT)) as usize;
    let key = (a / CHUNK + 1) as u64;
    let slot = (0..1 << 6)
        .map(|i| table + i * SLOT_BYTES)
        .find(|&s| img.read_u64(s) == key)
        .expect("the chunk's slot");
    (img, a, slot)
}

/// Where `slot`'s newer and older generations start.
fn generations(img: &CrashImage, slot: usize) -> (usize, usize) {
    let (a, b) = (slot + KEY, slot + KEY + GENERATION);
    if img.read_u64(a) > img.read_u64(b) {
        (a, b)
    } else {
        (b, a)
    }
}

/// What the chunk at `a` holds once `img` is hash-log recovered.
fn hash_log_recovered(img: &CrashImage, a: usize) -> u64 {
    let mut img = img.clone();
    HashLogSpmt::recover(&mut img);
    img.read_u64(a)
}

#[test]
fn a_damaged_hash_log_generation_is_skipped() {
    let (img, a, slot) = hash_log_image();
    let recovered = |img: &CrashImage| hash_log_recovered(img, a);
    assert_eq!(recovered(&img), 2);
    // The older generation holds 1, the newer 2.
    let (newer, older) = generations(&img, slot);
    let mut rng = SplitMix64::new(0x4a54);
    for _ in 0..FLIPS {
        let (at, bad) = flipped(&img, &mut rng, newer, newer + GENERATION);
        assert_eq!(recovered(&bad), 1, "newer flip at {at:#x}: the older generation wins");
        let (at, bad) = flipped(&img, &mut rng, older, older + GENERATION);
        assert_eq!(recovered(&bad), 2, "older flip at {at:#x}");
        // The key is sealed into both generations.
        let (at, bad) = flipped(&img, &mut rng, slot, slot + KEY);
        assert_eq!(recovered(&bad), img.read_u64(a), "key flip at {at:#x}");
    }
    let mut short = truncated(&img, slot + 60);
    let before = short.clone();
    HashLogSpmt::recover(&mut short);
    assert_eq!(short, before, "a cut table is skipped whole");
}

/// Bit flips drawn inside each field by the field walk.
const FIELD_FLIPS: usize = 4;

/// The field walk's tally: every `format.field` damaged so far.
#[derive(Default)]
struct Coverage(BTreeSet<String>);

impl Coverage {
    /// Damages each field of the `format` frame that starts at `at` in
    /// `img` — [`FIELD_FLIPS`] single-bit flips at bytes drawn inside the
    /// field, then `img` cut at the field's start — and hands every
    /// damaged image to `check`, which asserts what must hold and names
    /// the outcome. Prints one line per field: format, field, cases and
    /// outcomes.
    fn walk(
        &mut self,
        format: &str,
        fields: &[Field],
        img: &CrashImage,
        at: usize,
        mut check: impl FnMut(&str, CrashImage) -> &'static str,
    ) {
        let mut rng = SplitMix64::new(at as u64 ^ 0xf1e1d);
        for field in fields {
            let (lo, hi) = (at + field.offset, at + field.offset + field.width);
            let flips: BTreeSet<_> = (0..FIELD_FLIPS)
                .map(|_| check(field.name, flipped(img, &mut rng, lo, hi).1))
                .collect();
            let cut = check(field.name, truncated(img, lo));
            let flips: Vec<_> = flips.into_iter().collect();
            println!(
                "{format}.{}: {} cases, flip {}, cut {cut}",
                field.name,
                FIELD_FLIPS + 1,
                flips.join(" | ")
            );
            self.0.insert(format!("{format}.{}", field.name));
        }
    }
}

/// Recovers `img` with the engine and with the reference replay, which
/// must agree whatever `img` holds.
fn engine_and_reference(img: CrashImage) -> CrashImage {
    let mut engine = img.clone();
    recover_image_opts(&mut engine, &RecoveryOptions::default());
    let mut reference = img;
    recover_image(&mut reference);
    assert!(engine == reference, "the engine diverged from the reference replay");
    engine
}

/// A two-chain image of multi-entry records in 256-byte blocks, so each
/// chain's first block holds whole records and links to a second: no
/// checkpoint, no recorder. Returns the image and the `DATA` bytes the
/// records update.
fn log_image() -> (CrashImage, usize) {
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 20));
    let cfg = ConcurrentConfig::builder()
        .threads(2)
        .block_bytes(256)
        .reclaim_threshold_bytes(usize::MAX)
        .build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let base = shared.pool().alloc_direct(DATA, 64).expect("alloc");
    let mut handles: Vec<_> = (0..2).map(|t| shared.tx_handle(t)).collect();
    for round in 0..6u64 {
        for (t, h) in handles.iter_mut().enumerate() {
            h.begin();
            for e in 0..3 {
                h.write(base + t * 256 + e * 64, &[round as u8 + 1; 24]);
            }
            h.commit();
        }
    }
    // Captured before `close`, which would make the data durable: the
    // records are all the image has of it.
    let img = dev.capture(CrashPolicy::AllLost);
    shared.close();
    (img, base)
}

/// Bytes of application data [`log_image`]'s records update.
const DATA: usize = 512;

/// Every declared format, field by field: a flipped bit and a cut inside
/// each field is rejected (`None`, an absent recorder, a skipped entry or
/// generation, a checkpoint not used) or, in a log record, entry or block
/// header, leaves the recovery engine and the reference replay agreeing;
/// nothing panics. Every field of every format is damaged at least once.
#[test]
fn every_field_of_every_format_is_damaged() {
    let mut cov = Coverage::default();

    // The log's own frames, at the start of chain 0: its head block's
    // links, its first record's header and that record's first entry.
    let (img, data) = log_image();
    let layout = PoolLayout::read(&img).expect("pristine layout");
    let pristine = engine_and_reference(img.clone());
    let head = layout.head(&img, 0);
    let rec = head + BLOCK_HDR;
    let outcome = |bad: CrashImage| {
        let recovered = engine_and_reference(bad);
        if recovered.len() < data + DATA {
            "engine = reference, data cut off"
        } else if recovered.read_bytes(data, DATA) == pristine.read_bytes(data, DATA) {
            "engine = reference, data intact"
        } else {
            "engine = reference, records lost"
        }
    };
    cov.walk("BlockHeader", BlockHeader::FIELDS, &img, head, |_, bad| outcome(bad));
    cov.walk("RecordHeader", RecordHeader::FIELDS, &img, rec, |_, bad| outcome(bad));
    cov.walk("EntryHeader", EntryHeader::FIELDS, &img, rec + REC_HDR, |_, bad| outcome(bad));
    cov.walk("PoolHeader", PoolHeader::FIELDS, &img, 0, |field, bad| {
        if field == "magic" {
            assert_eq!(PoolLayout::read(&bad), None, "a pool without its magic has no layout");
        }
        read_everything(&bad);
        outcome(bad)
    });

    // The recorder image: descriptor, checkpoint and recorder frames.
    let img = recorder_image();
    let layout = PoolLayout::read(&img).expect("pristine layout");
    cov.walk("DescriptorHeader", DescriptorHeader::FIELDS, &img, layout.desc_base(), |f, bad| {
        let sealed =
            DescriptorHeader::FIELDS.iter().any(|x| x.name == f && x.offset < sealed_desc());
        let read = PoolLayout::read(&bad);
        read_everything(&bad);
        match read {
            None => "no layout",
            Some(_) if sealed => panic!("a damaged sealed field {f} was accepted"),
            Some(_) => "unsealed head, no panic",
        }
    });
    let ckpt = layout.ckpt_head(&img) + BLOCK_HDR;
    let not_used = |bad: CrashImage| {
        let mut engine = bad.clone();
        let report = recover_image_opts(&mut engine, &RecoveryOptions::default());
        assert!(!report.checkpoint_used, "a damaged checkpoint was honoured");
        let mut reference = bad;
        recover_image(&mut reference);
        assert!(engine == reference, "the fallback diverged from full replay");
        "checkpoint not used, full replay"
    };
    cov.walk("CheckpointHeader", CheckpointHeader::FIELDS, &img, ckpt, |_, bad| not_used(bad));
    let anchor = ckpt + CheckpointHeader::LEN + 4;
    cov.walk("Anchor", Anchor::FIELDS, &img, anchor, |_, bad| not_used(bad));
    let pristine = forensics(&img);
    let base = layout.bbox_head(&img);
    cov.walk("RegionHeader", RegionHeader::FIELDS, &img, base, |_, bad| {
        assert!(!forensics(&bad).recorder_present, "a damaged region header was accepted");
        read_everything(&bad);
        "recorder absent"
    });
    let ev = pristine.events[pristine.events.len() / 2];
    let slot = base
        + REGION_HDR
        + (ev.tid as usize * pristine.capacity + ev.seq as usize % pristine.capacity)
            * EventSlot::LEN;
    cov.walk("EventSlot", EventSlot::FIELDS, &img, slot, |_, bad| {
        let report = forensics(&bad);
        if bad.len() < img.len() {
            assert!(!report.recorder_present, "a cut region was decoded");
            return "recorder absent";
        }
        assert_eq!(report.events_torn, pristine.events_torn + 1);
        assert_eq!(report.events.len(), pristine.events.len() - 1);
        "one slot torn"
    });

    // The undo entry and the hash-log generation.
    let (img, a) = open_undo_image();
    let entry = img.read_u64(root_off(UNDO_BASE_SLOT)) as usize + 64;
    assert_eq!(entry_bytes(256), UndoHeader::LEN + 256);
    cov.walk("UndoHeader", UndoHeader::FIELDS, &img, entry, |_, mut bad| {
        let before = bad.clone();
        PmdkUndo::recover(&mut bad);
        assert!(bad == before, "a damaged entry rolled something back");
        assert!(bad.len() < img.len() || bad.read_u64(a) == 8);
        "entry skipped"
    });
    let (img, a, slot) = hash_log_image();
    let (newer, _) = generations(&img, slot);
    cov.walk("GenerationHeader", GenerationHeader::FIELDS, &img, newer, |_, bad| {
        if bad.len() < img.len() {
            let mut cut = bad.clone();
            HashLogSpmt::recover(&mut cut);
            assert!(cut == bad, "a cut table is skipped whole");
            return "table skipped";
        }
        assert_eq!(hash_log_recovered(&bad, a), 1, "the older generation wins");
        "generation skipped"
    });

    let declared: BTreeSet<String> = [
        ("RecordHeader", RecordHeader::FIELDS),
        ("EntryHeader", EntryHeader::FIELDS),
        ("BlockHeader", BlockHeader::FIELDS),
        ("CheckpointHeader", CheckpointHeader::FIELDS),
        ("Anchor", Anchor::FIELDS),
        ("DescriptorHeader", DescriptorHeader::FIELDS),
        ("PoolHeader", PoolHeader::FIELDS),
        ("UndoHeader", UndoHeader::FIELDS),
        ("GenerationHeader", GenerationHeader::FIELDS),
        ("EventSlot", EventSlot::FIELDS),
        ("RegionHeader", RegionHeader::FIELDS),
    ]
    .into_iter()
    .flat_map(|(format, fields)| fields.iter().map(move |f| format!("{format}.{}", f.name)))
    .collect();
    assert_eq!(cov.0, declared, "a field of a declared format was never damaged");
}
