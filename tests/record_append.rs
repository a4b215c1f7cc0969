//! A transaction's log record is stored into its chain once, at the seal.
//!
//! On `SpecSpmt`, a solo `TxHandle` and a group-commit `TxHandle`, each
//! shape of write set below runs as one transaction behind a committed
//! warm-up record, and four things hold:
//!
//! * from `begin` until the seal no byte outside the transaction's data
//!   changes: a write stores its data and nothing into the log;
//! * after the commit the chain holds, where the warm-up record's
//!   terminator was, `RecordHeader::sealing(ts, payload)`, the payload
//!   `record::push_entry` encodes and the 4-byte terminator, all durable;
//! * the commit flushed exactly the lines of that run, plus the `next`
//!   link of the block a spilling record left: the clwb count equals the
//!   planned line count, and every planned line — and no other — changed
//!   in the persisted image;
//! * the engine's recovery of the persisted image equals the reference
//!   replay, `recover_image`.

use std::sync::Arc;

use specpmt::core::record::{
    push_entry, BlockHeader, RecordHeader, RecordReader, BLOCK_HDR, REC_HDR,
};
use specpmt::core::recovery::recover_image;
use specpmt::core::{
    recover_image_opts, ConcurrentConfig, PoolLayout, RecoveryOptions, SpecConfig, SpecSpmt,
    SpecSpmtShared, TxHandle,
};
use specpmt::pmem::{
    coalesce_lines, CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice, PmemPool,
    SharedPmemDevice, CACHE_LINE,
};
use specpmt::txn::{TxAccess, TxRuntime};

/// Small blocks, so a few entries spill a record into a new one.
const BLOCK: usize = 256;
const POOL: usize = 1 << 20;
const REGION: usize = 4096;

/// One runtime under test and the device it runs on.
enum Runtime {
    Seq(Box<SpecSpmt>),
    Shared { dev: SharedPmemDevice, h: Box<TxHandle>, _rt: Arc<SpecSpmtShared> },
}

impl Runtime {
    fn seq() -> Self {
        let cfg = SpecConfig {
            block_bytes: BLOCK,
            reclaim_threshold_bytes: usize::MAX,
            ..SpecConfig::default()
        };
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(POOL)));
        Self::Seq(Box::new(SpecSpmt::new(pool, cfg)))
    }

    fn shared(group_commit: bool) -> Self {
        let dev = SharedPmemDevice::new(PmemConfig::new(POOL));
        let cfg = ConcurrentConfig::builder()
            .threads(1)
            .block_bytes(BLOCK)
            .reclaim_threshold_bytes(usize::MAX)
            .group_commit(group_commit)
            .build();
        let rt = SpecSpmtShared::open_or_format(dev.clone(), cfg);
        let h = Box::new(rt.tx_handle(0));
        Self::Shared { dev, h, _rt: rt }
    }

    fn tx(&mut self) -> &mut dyn TxAccess {
        match self {
            Self::Seq(rt) => &mut **rt,
            Self::Shared { h, .. } => &mut **h,
        }
    }

    fn capture(&self, policy: CrashPolicy) -> CrashImage {
        match self {
            Self::Seq(rt) => rt.pool().device().capture(policy),
            Self::Shared { dev, .. } => dev.capture(policy),
        }
    }

    /// The volatile image: every unflushed store survives.
    fn volatile(&self) -> CrashImage {
        self.capture(CrashPolicy::AllSurvive)
    }

    /// The persisted image: between transactions nothing is in flight.
    fn persisted(&self) -> CrashImage {
        self.capture(CrashPolicy::AllLost)
    }

    /// (clwb, sfence) counts so far.
    fn flushes_and_fences(&self) -> (u64, u64) {
        let s = match self {
            Self::Seq(rt) => rt.pool().device().stats().clone(),
            Self::Shared { dev, .. } => dev.stats(),
        };
        (s.clwb_count, s.sfence_count)
    }
}

/// One transaction's writes, or its abort.
struct Shape {
    name: &'static str,
    /// `(offset into the region, value)`, in write order.
    writes: Vec<(usize, Vec<u8>)>,
    abort: bool,
    /// The record's payload as `push_entry` encodes it, from the region's
    /// base and its contents before the transaction.
    payload: fn(usize, &[u8]) -> Vec<u8>,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "one 8-byte write",
            writes: vec![(64, vec![0xA1; 8])],
            abort: false,
            payload: |base, _| entries(&[(base + 64, vec![0xA1; 8])]),
        },
        Shape {
            name: "24 contiguous 4-byte writes",
            writes: (0..24).map(|i| (128 + 4 * i, vec![i as u8 + 1; 4])).collect(),
            abort: false,
            payload: |base, _| {
                let value: Vec<u8> = (0..24u8).flat_map(|i| [i + 1; 4]).collect();
                entries(&[(base + 128, value)])
            },
        },
        Shape {
            name: "a same-length rewrite",
            writes: vec![(64, vec![1; 8]), (512, vec![2; 16]), (64, vec![3; 8])],
            abort: false,
            payload: |base, _| entries(&[(base + 64, vec![3; 8]), (base + 512, vec![2; 16])]),
        },
        Shape {
            name: "a spill into a new block",
            writes: vec![(0, vec![4; 64]), (1024, vec![5; 64]), (2048, vec![6; 64])],
            abort: false,
            payload: |base, _| {
                entries(&[
                    (base, vec![4; 64]),
                    (base + 1024, vec![5; 64]),
                    (base + 2048, vec![6; 64]),
                ])
            },
        },
        Shape {
            name: "a write-free transaction",
            writes: vec![],
            abort: false,
            payload: |_, _| vec![],
        },
        Shape {
            name: "an abort after 3 writes",
            writes: vec![(64, vec![7; 8]), (512, vec![8; 8]), (1024, vec![9; 8])],
            abort: true,
            // The compensating record: each entry patched back to the
            // bytes it replaced.
            payload: |base, before| {
                let old = |off: usize| before[off..off + 8].to_vec();
                entries(&[(base + 64, old(64)), (base + 512, old(512)), (base + 1024, old(1024))])
            },
        },
    ]
}

fn entries(list: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    list.iter().for_each(|(addr, value)| push_entry(&mut payload, *addr, value));
    payload
}

/// `len` stream bytes of the chain at `head`, starting `off` bytes into
/// it, as `(addr, len)` pieces, and the `next` links crossed to reach
/// them (a crossing at `off` itself included). The pieces stop early
/// where the chain ends.
fn stream(
    img: &CrashImage,
    head: usize,
    off: usize,
    len: usize,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    let next = BlockHeader::FIELDS.iter().find(|f| f.name == "next").expect("next").offset;
    let (mut block, mut pos, mut skip, mut left) = (head, BLOCK_HDR, off, len);
    let (mut pieces, mut links) = (Vec::new(), Vec::new());
    while left > 0 {
        if pos == BLOCK {
            let link = block + next;
            block = img.read_u64(link) as usize;
            if block == 0 {
                break;
            }
            if skip == 0 {
                links.push(link);
            }
            pos = BLOCK_HDR;
        }
        let n = if skip > 0 { skip.min(BLOCK - pos) } else { left.min(BLOCK - pos) };
        if skip > 0 {
            skip -= n;
        } else {
            pieces.push((block + pos, n));
            left -= n;
        }
        pos += n;
    }
    (pieces, links)
}

fn read(img: &CrashImage, pieces: &[(usize, usize)]) -> Vec<u8> {
    pieces.iter().flat_map(|&(a, n)| img.read_bytes(a, n).to_vec()).collect()
}

/// Indices of the cache lines whose bytes differ between `a` and `b`.
fn changed_lines(a: &CrashImage, b: &CrashImage) -> Vec<usize> {
    let lines = a.as_bytes().chunks(CACHE_LINE).zip(b.as_bytes().chunks(CACHE_LINE));
    lines.enumerate().filter(|(_, (x, y))| x != y).map(|(i, _)| i).collect()
}

/// The chain's committed records in `img`: (stream bytes, last ts).
fn chain_extent(img: &CrashImage, head: usize) -> (usize, Option<u64>) {
    let mut reader = RecordReader::new(img, head, BLOCK);
    let (mut bytes, mut last) = (0, None);
    while let Some(rec) = reader.next() {
        bytes += rec.bytes().len();
        last = Some(rec.ts);
    }
    (bytes, last)
}

fn run(mut rt: Runtime, runtime: &str, shape: &Shape) {
    let tag = format!("{runtime}, {}", shape.name);
    let base = rt.tx().setup_alloc(REGION, 64);
    // Warm-up: one committed record, so the measured one starts mid-block.
    rt.tx().begin();
    rt.tx().write(base + 8, &[0x5A; 8]);
    rt.tx().commit();

    let before = rt.volatile();
    let persisted_before = rt.persisted();
    let head = PoolLayout::read(&persisted_before).expect("layout").head(&persisted_before, 0);
    let (start, warm_ts) = chain_extent(&persisted_before, head);
    let region_before = before.read_bytes(base, REGION).to_vec();
    let (clwb0, fence0) = rt.flushes_and_fences();

    rt.tx().begin();
    for (off, value) in &shape.writes {
        rt.tx().write(base + off, value);
    }
    let mut staged = rt.volatile();
    staged.write_bytes(base, &region_before);
    assert!(staged == before, "{tag}: a byte outside the data changed before the seal");
    if shape.abort {
        rt.tx().abort();
    } else {
        rt.tx().commit();
    }

    let (clwb1, fence1) = rt.flushes_and_fences();
    let after = rt.persisted();
    let payload = (shape.payload)(base, &region_before);
    if payload.is_empty() {
        assert_eq!((clwb1 - clwb0, fence1 - fence0), (0, 0), "{tag}: a write-free commit");
        assert!(rt.volatile() == before, "{tag}: a write-free commit stored");
        return;
    }

    // The record sits where the warm-up record's terminator was.
    let (end, ts) = chain_extent(&after, head);
    assert_eq!(end, start + REC_HDR + payload.len(), "{tag}: one record appended");
    let ts = ts.expect("a sealed record");
    assert!(Some(ts) > warm_ts, "{tag}");
    let mut want = RecordHeader::sealing(ts, &payload).encode().to_vec();
    want.extend_from_slice(&payload);
    want.extend_from_slice(&[0; 4]);
    let (pieces, links) = stream(&after, head, start, want.len());
    let run = read(&after, &pieces);
    assert_eq!(run, want[..run.len()], "{tag}: the durable record");
    assert!(run.len() >= want.len() - 4, "{tag}: only the terminator may pass the chain end");
    assert_eq!(links.len(), usize::from(shape.name.contains("spill")), "{tag}: blocks crossed");

    // The flush plan: the run's lines and any link crossed.
    let mut ranges = pieces;
    ranges.extend(links.iter().map(|&l| (l, 8)));
    let mut plan = Vec::new();
    coalesce_lines(&ranges, &mut plan);
    assert_eq!(clwb1 - clwb0, plan.len() as u64, "{tag}: lines flushed");
    assert_eq!(fence1 - fence0, 1, "{tag}: one fence");
    assert_eq!(changed_lines(&persisted_before, &after), plan, "{tag}: lines made durable");

    let mut reference = after.clone();
    recover_image(&mut reference);
    let mut engine = after.clone();
    recover_image_opts(&mut engine, &RecoveryOptions::default());
    assert!(engine == reference, "{tag}: the engine diverged from the reference");
    let committed = rt.volatile();
    assert_eq!(reference.read_bytes(base, REGION), committed.read_bytes(base, REGION), "{tag}");
}

#[test]
fn a_record_is_stored_once_at_the_seal() {
    for shape in &shapes() {
        if !shape.abort {
            run(Runtime::seq(), "SpecSpmt", shape);
        }
        run(Runtime::shared(false), "TxHandle", shape);
        run(Runtime::shared(true), "group TxHandle", shape);
    }
}
