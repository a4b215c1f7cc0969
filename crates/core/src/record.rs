//! On-PM log organization: chained log blocks, record encoding, parsing.
//!
//! Per the paper's Section 4.1, each thread's log area is a chronological
//! sequence of *records* stored in chained fixed-size *log blocks*:
//!
//! ```text
//! block:  [fwd ptr: u64][bwd ptr: u64][record bytes …]
//! record: [len: u32][ts: u64][checksum: u64][entries …]       (len = entry bytes)
//! entry:  [addr: u64][len: u32][value bytes]
//! ```
//!
//! Records flow byte-contiguously across blocks (a record larger than the
//! space left in a block simply continues in the next one). A record with
//! `len == 0`, an unreadable record, or a checksum mismatch terminates the
//! chain: the checksum doubles as the commit flag, so a transaction whose
//! commit was interrupted leaves a torn record that parsing rejects.
//!
//! [`RecordReader`] is the one parser. Where the source can lend its bytes
//! in place ([`ByteSource::lend`]: a crash image, a device) and a record's
//! header and payload lie in one block, the record it returns is borrowed
//! from the source itself; only a record that crosses a block boundary, or
//! one read from a source that cannot lend, is copied into the reader's
//! buffer first.
//!
//! A checkpoint is one record of its own, in a chain of its own:
//!
//! ```text
//! checkpoint: [magic: u64][watermark: u64][len: u32][checksum: u64][payload …]
//! payload:    [anchors: u32][anchor × anchors][runs …]
//! anchor:     [block: u64][pos: u64][ts: u64][checksum: u64]     (block 0 = none)
//! run:        an entry, as above
//! ```
//!
//! The checksum seals the whole payload, anchor table included, so a torn
//! checkpoint is rejected whole. Anchor `i` names chain `i`'s last record at
//! or below the watermark (an `Anchor`); the runs are the last-writer-wins
//! state of every record at or below it. `encode_checkpoint` and
//! `read_checkpoint` are the frame's one encoder and one decoder, and
//! `stream_cursor` places a record in its chain from the bytes before it.

use std::sync::Mutex;

use specpmt_pmem::frame::{seal, verify, Fields};
use specpmt_pmem::{
    CrashControl, CrashImage, DeviceHandle, FenceReport, PmemDevice, PmemError, PmemPool,
    SharedPmemPool,
};

/// Bytes reserved at the start of each log block (forward + backward
/// pointers).
pub const BLOCK_HDR: usize = 16;

/// Record header size: `len (u32) | ts (u64) | checksum (u64)`.
pub const REC_HDR: usize = 20;

/// Entry header size: `addr (u64) | len (u32)`.
pub const ENTRY_HDR: usize = 12;

/// Upper bound on a single record's payload; larger lengths — and lengths
/// the source could not hold — are treated as corruption during parsing.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 24;

/// Whether `[addr, addr + len)` lies inside a `size`-byte source. A
/// checksum-valid entry can still carry any 64-bit address, so the sum
/// must not be allowed to wrap.
pub(crate) fn in_bounds(addr: usize, len: usize, size: usize) -> bool {
    addr.checked_add(len).is_some_and(|end| end <= size)
}

/// Something log bytes can be read from: a live device or a crash image.
pub trait ByteSource {
    /// Reads `buf.len()` bytes at `addr`; returns `false` (leaving `buf`
    /// unspecified) if out of bounds. The default copies what
    /// [`Self::lend`] lends.
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
        self.lend(addr, buf.len()).map(|bytes| buf.copy_from_slice(bytes)).is_some()
    }
    /// Source size in bytes.
    fn source_len(&self) -> usize;
    /// Lends the `len` bytes at `addr` in place. `None` if out of bounds,
    /// or — the default — when the source does not hold its bytes in one
    /// piece; such a source implements [`Self::read_at`] itself.
    fn lend(&self, _addr: usize, _len: usize) -> Option<&[u8]> {
        None
    }
}

impl ByteSource for CrashImage {
    fn source_len(&self) -> usize {
        self.len()
    }

    fn lend(&self, addr: usize, len: usize) -> Option<&[u8]> {
        in_bounds(addr, len, self.len()).then(|| self.read_bytes(addr, len))
    }
}

impl ByteSource for PmemDevice {
    fn source_len(&self) -> usize {
        self.size()
    }

    fn lend(&self, addr: usize, len: usize) -> Option<&[u8]> {
        in_bounds(addr, len, self.size()).then(|| self.peek(addr, len))
    }
}

/// Does not lend: the shared device's volatile image is atomic words, not
/// bytes a slice can borrow.
impl ByteSource for DeviceHandle {
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
        if !in_bounds(addr, buf.len(), self.size()) {
            return false;
        }
        // `peek_into` copies straight from the device's words into the
        // caller's buffer — the earlier `peek(..) -> Vec` round-trip
        // allocated and copied every parsed header/payload twice.
        self.peek_into(addr, buf);
        true
    }

    fn source_len(&self) -> usize {
        self.size()
    }
}

/// A position in a log-block chain: block base offset + offset within the
/// block (always ≥ [`BLOCK_HDR`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Pool offset of the block.
    pub block: usize,
    /// Byte position within the block.
    pub pos: usize,
}

/// One durable update captured in a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Pool offset the value belongs at.
    pub addr: usize,
    /// The (new, speculative) value.
    pub value: Vec<u8>,
}

/// A parsed, checksum-valid (i.e. committed) log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Commit timestamp (global order across threads).
    pub ts: u64,
    /// Entries in append order (later entries supersede earlier ones).
    pub entries: Vec<LogEntry>,
}

impl LogRecord {
    /// Total payload bytes this record's entries encode to.
    pub fn payload_len(&self) -> usize {
        self.entries.iter().map(|e| ENTRY_HDR + e.value.len()).sum()
    }
}

/// Computes the record checksum: the frame [`seal`] of the payload, with
/// its length and `ts` as the two extra words. One pass over the payload,
/// no temporary buffer.
pub fn record_checksum(ts: u64, payload: &[u8]) -> u64 {
    seal(payload, payload.len() as u64, ts)
}

/// Encodes a record header from precomputed parts — the seal path, where
/// the write set computed the checksum over its staged payload.
pub fn encode_header_parts(ts: u64, payload_len: usize, checksum: u64) -> [u8; REC_HDR] {
    let mut h = [0u8; REC_HDR];
    h[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    h[4..12].copy_from_slice(&ts.to_le_bytes());
    h[12..20].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Encodes a record header for the given payload.
pub fn encode_header(ts: u64, payload: &[u8]) -> [u8; REC_HDR] {
    encode_header_parts(ts, payload.len(), record_checksum(ts, payload))
}

/// Appends one entry to a payload buffer.
pub fn push_entry(payload: &mut Vec<u8>, addr: usize, value: &[u8]) {
    payload.extend_from_slice(&(addr as u64).to_le_bytes());
    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
    payload.extend_from_slice(value);
}

/// Encodes the fixed-size entry header `[addr u64 | len u32]` on the
/// stack — the allocation-free form of [`push_entry`] used by the
/// reusable write set.
pub fn entry_header(addr: usize, value_len: usize) -> [u8; ENTRY_HDR] {
    let mut hdr = [0u8; ENTRY_HDR];
    hdr[..8].copy_from_slice(&(addr as u64).to_le_bytes());
    hdr[8..].copy_from_slice(&(value_len as u32).to_le_bytes());
    hdr
}

/// Encodes a full record (header + payload) — used by compaction.
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(rec.payload_len());
    for e in &rec.entries {
        push_entry(&mut payload, e.addr, &e.value);
    }
    let mut out = Vec::with_capacity(REC_HDR + payload.len());
    out.extend_from_slice(&encode_header(rec.ts, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes the record header `bytes` starts with into `(payload length,
/// timestamp, checksum)`; `None` when `bytes` is shorter than a header.
pub(crate) fn decode_header(bytes: &[u8]) -> Option<(usize, u64, u64)> {
    let mut f = Fields::new(bytes);
    Some((f.u32()? as usize, f.u64()?, f.u64()?))
}

/// Decodes the entry `bytes` starts with into `(addr, value length)`; its
/// value follows the [`ENTRY_HDR`]-byte header. `None` where `bytes` does
/// not hold a whole entry — the end of a payload.
///
/// Returns positions rather than borrows, so compaction can decode an
/// entry and then move it within the buffer it was decoded from.
pub(crate) fn decode_entry(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut f = Fields::new(bytes);
    let (addr, len) = (f.u64()? as usize, f.u32()? as usize);
    (len <= f.rest().len()).then_some((addr, len))
}

/// One entry of a record payload, borrowed from the bytes it was decoded
/// from.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    /// Pool offset the value belongs at.
    pub addr: usize,
    /// The (new, speculative) value.
    pub value: &'a [u8],
}

/// Borrowing iterator over the entries of a record payload.
#[derive(Debug)]
pub struct Entries<'a> {
    /// The payload bytes not yet decoded.
    rest: &'a [u8],
}

impl<'a> Entries<'a> {
    pub(crate) fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    /// Materialises the remaining entries.
    fn into_owned(self) -> Vec<LogEntry> {
        self.map(|e| LogEntry { addr: e.addr, value: e.value.to_vec() }).collect()
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        let (addr, len) = decode_entry(self.rest)?;
        let (value, rest) = self.rest[ENTRY_HDR..].split_at(len);
        self.rest = rest;
        Some(EntryRef { addr, value })
    }
}

/// Streaming reader over a block chain.
struct StreamReader<'a, S: ByteSource> {
    src: &'a S,
    cur: Cursor,
    block_bytes: usize,
    /// Cycle guard: maximum block hops remaining.
    hops_left: usize,
}

/// The cycle guard: at most this many forward pointers are followed on one
/// chain of `block_bytes`-byte blocks in a `source_len`-byte source — one
/// more than the source could hold blocks, so a garbage pointer that closes
/// a loop ends the walk instead of spinning it.
pub(crate) fn max_hops(source_len: usize, block_bytes: usize) -> usize {
    source_len / block_bytes.max(1) + 2
}

impl<'a, S: ByteSource> StreamReader<'a, S> {
    /// A reader positioned at `cur`, or `None` when `cur` does not name a
    /// position in a block of `src` (empty head, garbage pointer, a
    /// position inside the block header or past the block, degenerate
    /// block size).
    fn at(src: &'a S, cur: Cursor, block_bytes: usize) -> Option<Self> {
        if cur.block == 0
            || block_bytes <= BLOCK_HDR
            || !(BLOCK_HDR..=block_bytes).contains(&cur.pos)
            || !in_bounds(cur.block, block_bytes, src.source_len())
        {
            return None;
        }
        let hops_left = max_hops(src.source_len(), block_bytes);
        Some(Self { src, cur, block_bytes, hops_left })
    }

    fn read(&mut self, buf: &mut [u8]) -> bool {
        let mut off = 0;
        while off < buf.len() {
            if self.cur.pos >= self.block_bytes {
                // Follow the forward pointer.
                let mut p = [0u8; 8];
                if !self.src.read_at(self.cur.block, &mut p) {
                    return false;
                }
                let next = u64::from_le_bytes(p) as usize;
                if next == 0 || !in_bounds(next, self.block_bytes, self.src.source_len()) {
                    return false;
                }
                if self.hops_left == 0 {
                    return false;
                }
                self.hops_left -= 1;
                self.cur = Cursor { block: next, pos: BLOCK_HDR };
            }
            let n = (self.block_bytes - self.cur.pos).min(buf.len() - off);
            if !self.src.read_at(self.cur.block + self.cur.pos, &mut buf[off..off + n]) {
                return false;
            }
            self.cur.pos += n;
            off += n;
        }
        true
    }

    /// Lends the `back` bytes just read and the `len` bytes that follow
    /// them as one slice of the source, and moves past them. `None`,
    /// moving nothing, unless all of them lie in the current block and the
    /// source lends.
    fn lend(&mut self, back: usize, len: usize) -> Option<&'a [u8]> {
        let start = self.cur.pos.checked_sub(back).filter(|&s| s >= BLOCK_HDR)?;
        if self.cur.pos + len > self.block_bytes {
            return None;
        }
        let bytes = self.src.lend(self.cur.block + start, back + len)?;
        self.cur.pos += len;
        Some(bytes)
    }

    /// Reads the `len`-byte payload behind the header `hdr` just read and
    /// checks it against the checksum that header carried (through the one
    /// frame `verify`), for transaction records and checkpoints alike.
    /// Returns header and payload as one slice: lent by the source where
    /// it can ([`Self::lend`]), otherwise copied into `buf`. The length is
    /// unverified until the checksum matches, so one the source could not
    /// even hold is rejected before it sizes `buf`.
    fn read_payload<'b>(
        &mut self,
        hdr: &[u8],
        len: usize,
        ts: u64,
        cksum: u64,
        buf: &'b mut Vec<u8>,
    ) -> Option<&'b [u8]>
    where
        'a: 'b,
    {
        if len > self.src.source_len().saturating_sub(hdr.len()) {
            return None;
        }
        let bytes = match self.lend(hdr.len(), len) {
            Some(lent) => lent,
            None => {
                buf.clear();
                buf.reserve(hdr.len() + len);
                buf.extend_from_slice(hdr);
                buf.resize(hdr.len() + len, 0);
                if !self.read(&mut buf[hdr.len()..]) {
                    return None;
                }
                buf
            }
        };
        let payload = &bytes[hdr.len()..];
        verify(payload, payload.len() as u64, ts, cksum).then_some(bytes)
    }
}

/// A committed record as it is stored in the chain — header, then payload
/// — borrowed from the source it was read from, the reader's buffer, or a
/// cache of encoded records.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Commit timestamp.
    pub ts: u64,
    bytes: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// The encoded record: appending these bytes to a chain re-creates the
    /// record, checksum included.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The record's payload: its entries, encoded back to back.
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[REC_HDR..]
    }

    /// The record's entries, in append order.
    pub fn entries(&self) -> Entries<'a> {
        Entries::new(self.payload())
    }

    /// The record as a checkpoint names it, read at `at`.
    pub(crate) fn anchor(&self, at: Cursor) -> Anchor {
        let checksum = decode_header(self.bytes).map_or(0, |(_, _, sum)| sum);
        Anchor { at, ts: self.ts, checksum }
    }

    /// The owned form.
    pub(crate) fn to_record(self) -> LogRecord {
        LogRecord { ts: self.ts, entries: self.entries().into_owned() }
    }
}

/// Splits a buffer of back-to-back encoded records (as [`RecordRef::bytes`]
/// produced them) into its records. The buffer is volatile and trusted:
/// checksums were verified when the records were read from the chain.
pub(crate) fn encoded_records(mut bytes: &[u8]) -> impl Iterator<Item = RecordRef<'_>> {
    std::iter::from_fn(move || {
        let (len, ts, _) = decode_header(bytes)?;
        let (rec, rest) = bytes.split_at_checked(REC_HDR + len)?;
        bytes = rest;
        Some(RecordRef { ts, bytes: rec })
    })
}

/// The one parser of transaction records: streams the committed records of
/// a chain, each lent by the source when it lies in one block and the
/// source lends ([`ByteSource::lend`]), and copied into a single reused
/// buffer otherwise — no allocation per record either way.
///
/// Reading stops for good at the first `len == 0` header (open or
/// terminated log), an unreadable position, or a checksum mismatch (torn
/// commit) — per the paper, no fresh records can follow a corrupt one.
/// [`RecordReader::cursor`] then names where that record starts. A live
/// chain only ever grows there (see [`crate::reclaim`]), so a later reader
/// [resumed](RecordReader::resume) at the cursor sees exactly the records
/// appended since.
pub struct RecordReader<'a, S: ByteSource> {
    /// `None` once reading has stopped.
    stream: Option<StreamReader<'a, S>>,
    /// The current record, header then payload, when it was not lent.
    buf: Vec<u8>,
    /// Start of the first record not yet returned.
    next: Cursor,
}

impl<'a, S: ByteSource> RecordReader<'a, S> {
    /// Reads the chain starting at block `head` from its first record.
    pub fn new(src: &'a S, head: usize, block_bytes: usize) -> Self {
        Self::resume(src, Cursor { block: head, pos: BLOCK_HDR }, block_bytes)
    }

    /// Reads on from `at`, the [`cursor`](Self::cursor) an earlier reader
    /// of the same chain stopped at.
    pub(crate) fn resume(src: &'a S, at: Cursor, block_bytes: usize) -> Self {
        Self { stream: StreamReader::at(src, at, block_bytes), buf: Vec::new(), next: at }
    }

    /// Starts over at `at` — a chain's head, `Cursor { block: head, pos:
    /// BLOCK_HDR }`, or a position an earlier reader recorded — keeping the
    /// buffer copied records are read into: one reader reads any number of
    /// chains with the allocations of one.
    pub(crate) fn restart(&mut self, src: &'a S, at: Cursor, block_bytes: usize) {
        *self = Self { buf: std::mem::take(&mut self.buf), ..Self::resume(src, at, block_bytes) };
    }

    /// Start of the first record not yet returned: once [`Self::next`] has
    /// returned `None`, where the chain's committed records end.
    pub(crate) fn cursor(&self) -> Cursor {
        self.next
    }

    /// The next committed record, valid until the next call (it may borrow
    /// the reader's buffer, which is why this is not an `Iterator`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RecordRef<'_>> {
        // Taken, and put back only when a whole record was read.
        let mut stream = self.stream.take()?;
        let mut hdr = [0u8; REC_HDR];
        if !stream.read(&mut hdr) {
            return None;
        }
        let (len, ts, cksum) = decode_header(&hdr)?;
        if len == 0 || len > MAX_RECORD_PAYLOAD {
            return None;
        }
        let bytes = stream.read_payload(&hdr, len, ts, cksum, &mut self.buf)?;
        self.next = stream.cur;
        self.stream = Some(stream);
        Some(RecordRef { ts, bytes })
    }
}

/// Where the record stream of a chain stands `offset` bytes from its start:
/// the stream fills each of `blocks` (the chain's blocks, head first) after
/// its header, as [`LogArea::append`] writes it and [`RecordReader`] reads
/// it. `None` past the last block.
pub(crate) fn stream_cursor(blocks: &[usize], block_bytes: usize, offset: usize) -> Option<Cursor> {
    let per_block = block_bytes.checked_sub(BLOCK_HDR).filter(|&n| n > 0)?;
    let block = *blocks.get(offset / per_block)?;
    Some(Cursor { block, pos: BLOCK_HDR + offset % per_block })
}

/// Reads all committed records of the chain starting at `head` into one
/// buffer, encoded back to back as the chain stores them — what
/// [`encoded_records`] splits again. One allocation per chain, however many
/// records and entries it holds. The reference replay reads chains this
/// way; the recovery engine copies only the records it replays.
pub(crate) fn read_chain_encoded<S: ByteSource>(
    src: &S,
    head: usize,
    block_bytes: usize,
) -> Vec<u8> {
    let mut reader = RecordReader::new(src, head, block_bytes);
    let mut out = Vec::new();
    while let Some(rec) = reader.next() {
        out.extend_from_slice(rec.bytes());
    }
    out
}

/// Parses all committed records of the chain starting at `head` into their
/// owned form. Parsing stops at the first `len == 0` header (open or
/// terminated log), unreadable position or checksum mismatch (torn commit).
pub fn parse_chain<S: ByteSource>(src: &S, head: usize, block_bytes: usize) -> Vec<LogRecord> {
    let mut reader = RecordReader::new(src, head, block_bytes);
    std::iter::from_fn(|| reader.next().map(RecordRef::to_record)).collect()
}

/// Magic opening a checkpoint record ("SPCKPT01": the payload opens with
/// the anchor table).
pub const CKPT_MAGIC: u64 = 0x5350_434b_5054_3031;

/// Checkpoint record header size:
/// `magic (u64) | watermark (u64) | len (u32) | checksum (u64)`.
pub const CKPT_HDR: usize = 28;

/// Bytes of one anchor in a checkpoint's anchor table:
/// `block (u64) | pos (u64) | ts (u64) | checksum (u64)`, a zero `block`
/// meaning no anchor.
pub const ANCHOR_BYTES: usize = 32;

/// Upper bound on a checkpoint's payload (a checkpoint snapshots live
/// data, which can legitimately dwarf any single transaction record).
pub const MAX_CKPT_PAYLOAD: usize = 1 << 28;

/// Where a chain's last record at or below a checkpoint's watermark
/// started when the checkpoint read the chain, and the timestamp and
/// checksum that record carried. Recovery trusts it only after finding
/// `at.block` on the live chain and the same record at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Anchor {
    /// Where the record starts in its chain.
    pub(crate) at: Cursor,
    /// The record's commit timestamp.
    pub(crate) ts: u64,
    /// The record's stored checksum.
    pub(crate) checksum: u64,
}

/// A checkpoint record as [`read_checkpoint`] decodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// Every record with a commit timestamp at or below it is folded in.
    pub(crate) watermark: u64,
    /// Chain `i`'s anchor at index `i`; `None` where the chain held no
    /// record at or below the watermark.
    pub(crate) anchors: Vec<Option<Anchor>>,
    /// The snapshot runs, encoded back to back as entries ([`Entries`]).
    pub(crate) runs: Vec<u8>,
}

/// Encodes a checkpoint record: `magic | watermark | len | checksum`, then
/// a `len`-byte payload holding
///
/// * the anchor table — `count (u32)`, then `count` anchors of
///   [`ANCHOR_BYTES`], chain `i`'s at index `i`; and
/// * the snapshot `runs` (disjoint, address-sorted, the last-writer-wins
///   state of every record with commit timestamp `<= watermark`), already
///   encoded back to back as entries.
///
/// The checksum covers `payload || len || watermark` via
/// [`record_checksum`] (the watermark rides in the timestamp seat), so a
/// torn checkpoint — anchor table included — is rejected exactly like a
/// torn transaction record.
pub(crate) fn encode_checkpoint(
    watermark: u64,
    anchors: &[Option<Anchor>],
    runs: &[u8],
) -> Vec<u8> {
    let len = 4 + anchors.len() * ANCHOR_BYTES + runs.len();
    let mut out = Vec::with_capacity(CKPT_HDR + len);
    out.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    out.extend_from_slice(&watermark.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // the checksum, once the payload is in
    out.extend_from_slice(&(anchors.len() as u32).to_le_bytes());
    for anchor in anchors {
        let a = anchor.unwrap_or(Anchor { at: Cursor { block: 0, pos: 0 }, ts: 0, checksum: 0 });
        for word in [a.at.block as u64, a.at.pos as u64, a.ts, a.checksum] {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    out.extend_from_slice(runs);
    let sum = record_checksum(watermark, &out[CKPT_HDR..]);
    out[CKPT_HDR - 8..CKPT_HDR].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes one [`ANCHOR_BYTES`] entry of the anchor table; `None` for an
/// empty one. Positions are taken as stored: recovery validates them.
fn decode_anchor(entry: &[u8]) -> Option<Anchor> {
    let mut f = Fields::new(entry);
    let at = Cursor { block: f.u64()? as usize, pos: f.u64()? as usize };
    let anchor = Anchor { at, ts: f.u64()?, checksum: f.u64()? };
    (at.block != 0).then_some(anchor)
}

/// Reads the checkpoint record stored in the block chain at `head`.
///
/// Returns `None` for an empty head, a bad magic, an implausible length
/// (over [`MAX_CKPT_PAYLOAD`] or more than the source holds), an
/// unreadable chain, a checksum mismatch or an anchor table the payload
/// cannot hold — the torn-checkpoint cases, where recovery must fall back
/// to a full log replay.
pub(crate) fn read_checkpoint<S: ByteSource>(
    src: &S,
    head: usize,
    block_bytes: usize,
) -> Option<Checkpoint> {
    let mut reader = StreamReader::at(src, Cursor { block: head, pos: BLOCK_HDR }, block_bytes)?;
    let mut hdr = [0u8; CKPT_HDR];
    if !reader.read(&mut hdr) {
        return None;
    }
    let mut f = Fields::new(&hdr);
    if f.u64()? != CKPT_MAGIC {
        return None;
    }
    let (watermark, len, cksum) = (f.u64()?, f.u32()? as usize, f.u64()?);
    if len > MAX_CKPT_PAYLOAD {
        return None;
    }
    let mut buf = Vec::new();
    let record = reader.read_payload(&hdr, len, watermark, cksum, &mut buf)?;
    let mut f = Fields::new(&record[CKPT_HDR..]);
    let count = f.u32()? as usize;
    let table = f.bytes(count.checked_mul(ANCHOR_BYTES)?)?;
    let anchors = table.chunks_exact(ANCHOR_BYTES).map(decode_anchor).collect();
    Some(Checkpoint { watermark, anchors, runs: f.rest().to_vec() })
}

/// The device a log chain lives on, as the record protocol sees it: the
/// stores, flushes, fences and crash sites of one issuing thread, plus the
/// pool's log-block allocator. It abstracts over the
/// single-threaded [`PmemPool`] and a per-thread [`DeviceHandle`] of a
/// [`SharedPmemPool`], so [`LogArea`], the commit engine and the
/// reclamation steps are written once and shared by the sequential and
/// the concurrent runtimes.
pub trait LogStore {
    /// Stores `data` at `addr` in the volatile image.
    fn store(&mut self, addr: usize, data: &[u8]);
    /// Reads a `u64` at `addr` without charging cost (pointer chasing).
    fn load_u64(&self, addr: usize) -> u64;
    /// Allocates one log block of `block_bytes` (reusing freed blocks where
    /// available).
    ///
    /// # Panics
    ///
    /// Implementations panic if the pool heap is exhausted.
    fn take_block(&mut self, block_bytes: usize) -> usize;
    /// Issues one vectored flush covering the dirty `(addr, len)` ranges.
    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]);
    /// Fences this thread's outstanding flushes.
    fn sfence(&mut self) -> FenceReport;
    /// Executes a labeled crash site.
    fn crash_point(&self, site: &'static str);
}

/// Batch size for log-block allocation (amortizes the bump-pointer persist
/// over many blocks).
const BLOCK_BATCH: usize = 16;

/// Allocates one log block: reuses `free`, or takes a batch from the pool
/// through `alloc_direct(bytes, align)` and keeps the rest on `free`.
fn take_block(
    free: &mut Vec<usize>,
    block_bytes: usize,
    alloc_direct: impl FnOnce(usize, usize) -> Result<usize, PmemError>,
) -> usize {
    if let Some(b) = free.pop() {
        return b;
    }
    let base = alloc_direct(block_bytes * BLOCK_BATCH, 64)
        .expect("pool exhausted while allocating log blocks");
    for i in (1..BLOCK_BATCH).rev() {
        free.push(base + i * block_bytes);
    }
    base
}

/// [`LogStore`] over the single-threaded pool plus its volatile free list.
#[derive(Debug)]
pub struct PoolStore<'a> {
    /// The pool log blocks live in.
    pub pool: &'a mut PmemPool,
    /// Volatile free-block list.
    pub free: &'a mut Vec<usize>,
}

impl<'a> PoolStore<'a> {
    /// Wraps a pool and its free list.
    pub fn new(pool: &'a mut PmemPool, free: &'a mut Vec<usize>) -> Self {
        Self { pool, free }
    }
}

impl LogStore for PoolStore<'_> {
    fn store(&mut self, addr: usize, data: &[u8]) {
        self.pool.device_mut().write(addr, data);
    }

    fn load_u64(&self, addr: usize) -> u64 {
        self.pool.device().peek_u64(addr)
    }

    fn take_block(&mut self, block_bytes: usize) -> usize {
        take_block(self.free, block_bytes, |bytes, align| self.pool.alloc_direct(bytes, align))
    }

    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]) {
        self.pool.device_mut().clwb_ranges(ranges);
    }

    fn sfence(&mut self) -> FenceReport {
        self.pool.device_mut().sfence()
    }

    fn crash_point(&self, site: &'static str) {
        self.pool.device().crash_point(site);
    }
}

/// [`LogStore`] over one thread's [`DeviceHandle`] of a shared pool.
///
/// The free list is the shared runtime's, behind its mutex: it is locked
/// only for the moment a block is actually taken, so appends that stay
/// inside a block touch no lock beyond the device's internal sharding.
#[derive(Debug)]
pub struct SharedStore<'a> {
    /// The issuing thread's device handle.
    pub handle: &'a DeviceHandle,
    /// The shared pool blocks are allocated from.
    pub pool: &'a SharedPmemPool,
    /// Free-block list, shared across threads.
    pub free: &'a Mutex<Vec<usize>>,
}

impl LogStore for SharedStore<'_> {
    fn store(&mut self, addr: usize, data: &[u8]) {
        self.handle.write(addr, data);
    }

    fn load_u64(&self, addr: usize) -> u64 {
        self.handle.peek_u64(addr)
    }

    fn take_block(&mut self, block_bytes: usize) -> usize {
        let mut free = self.free.lock().expect("free lock");
        take_block(&mut free, block_bytes, |bytes, align| self.pool.alloc_direct(bytes, align))
    }

    fn clwb_ranges(&mut self, ranges: &[(usize, usize)]) {
        self.handle.clwb_ranges(ranges);
    }

    fn sfence(&mut self) -> FenceReport {
        self.handle.sfence()
    }

    fn crash_point(&self, site: &'static str) {
        self.handle.crash_point(site);
    }
}

/// Writer over a (growable) block chain on a live pool.
///
/// Appends records byte-contiguously, allocating and linking new blocks on
/// demand; records the dirty ranges the caller must flush at commit.
#[derive(Debug)]
pub struct LogArea {
    head: usize,
    tail: Cursor,
    block_bytes: usize,
    blocks: Vec<usize>,
    /// Mutation generation: bumped on every append / in-place patch. The
    /// pair `(head, generation)` is the chain's change watermark —
    /// reclamation caches parsed records per chain and skips re-parsing
    /// (and, when nothing was dropped last time, rewriting) chains whose
    /// watermark has not moved.
    generation: u64,
}

impl LogArea {
    /// Creates a chain with one block taken from the store. The block
    /// header and the stream terminator are initialized (volatile; the
    /// first commit persists them).
    pub fn create<S: LogStore>(
        store: &mut S,
        block_bytes: usize,
        dirty: &mut Vec<(usize, usize)>,
    ) -> Self {
        assert!(block_bytes > BLOCK_HDR + REC_HDR, "block size too small");
        let b = store.take_block(block_bytes);
        store.store(b, &0u64.to_le_bytes());
        store.store(b + 8, &0u64.to_le_bytes());
        // Zero terminator so parsing stops immediately.
        store.store(b + BLOCK_HDR, &[0u8; 4]);
        dirty.push((b, BLOCK_HDR + 4));
        Self {
            head: b,
            tail: Cursor { block: b, pos: BLOCK_HDR },
            block_bytes,
            blocks: vec![b],
            generation: 0,
        }
    }

    /// First block of the chain.
    pub fn head(&self) -> usize {
        self.head
    }

    /// Mutation generation (see the field docs): `(head(), generation())`
    /// is the chain's change watermark.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current append position.
    pub fn tail(&self) -> Cursor {
        self.tail
    }

    /// Number of blocks in the chain.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The chain's blocks, head first.
    pub(crate) fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// Total PM bytes occupied by the chain.
    pub fn footprint(&self) -> usize {
        self.blocks.len() * self.block_bytes
    }

    /// Consumes the area, returning its blocks (for the free list).
    pub fn into_blocks(self) -> Vec<usize> {
        self.blocks
    }

    /// Appends `bytes` at the tail, spilling into new blocks as needed.
    /// Dirty ranges (including touched block pointers) are pushed to
    /// `dirty`.
    pub fn append<S: LogStore>(
        &mut self,
        store: &mut S,
        bytes: &[u8],
        dirty: &mut Vec<(usize, usize)>,
    ) {
        self.generation += 1;
        let mut off = 0;
        while off < bytes.len() {
            if self.tail.pos >= self.block_bytes {
                self.spill(store, dirty);
            }
            let n = (self.block_bytes - self.tail.pos).min(bytes.len() - off);
            let addr = self.tail.block + self.tail.pos;
            store.store(addr, &bytes[off..off + n]);
            dirty.push((addr, n));
            self.tail.pos += n;
            off += n;
        }
    }

    fn spill<S: LogStore>(&mut self, store: &mut S, dirty: &mut Vec<(usize, usize)>) {
        let prev = self.tail.block;
        let nb = store.take_block(self.block_bytes);
        store.store(nb, &0u64.to_le_bytes());
        store.store(nb + 8, &(prev as u64).to_le_bytes());
        store.store(nb + BLOCK_HDR, &[0u8; 4]);
        store.store(prev, &(nb as u64).to_le_bytes());
        dirty.push((nb, BLOCK_HDR + 4));
        dirty.push((prev, 8));
        self.blocks.push(nb);
        self.tail = Cursor { block: nb, pos: BLOCK_HDR };
    }

    /// Writes `bytes` at `cursor` (an earlier position in this chain),
    /// following existing forward pointers. Returns the number of bytes
    /// written (less than `bytes.len()` only if the chain ends — callers
    /// patching record headers must never hit that).
    pub fn write_at<S: LogStore>(
        &mut self,
        store: &mut S,
        mut cursor: Cursor,
        bytes: &[u8],
        dirty: &mut Vec<(usize, usize)>,
    ) -> usize {
        self.generation += 1;
        let mut off = 0;
        while off < bytes.len() {
            if cursor.pos >= self.block_bytes {
                let next = store.load_u64(cursor.block) as usize;
                if next == 0 {
                    break;
                }
                cursor = Cursor { block: next, pos: BLOCK_HDR };
            }
            let n = (self.block_bytes - cursor.pos).min(bytes.len() - off);
            let addr = cursor.block + cursor.pos;
            store.store(addr, &bytes[off..off + n]);
            dirty.push((addr, n));
            cursor.pos += n;
            off += n;
        }
        off
    }

    /// Writes the 4-byte zero terminator at the tail **without** advancing
    /// it (the next record's header overwrites it in place). Bytes that
    /// would fall past the last block are dropped — parsing stops at the
    /// chain end anyway.
    pub fn write_terminator<S: LogStore>(
        &mut self,
        store: &mut S,
        dirty: &mut Vec<(usize, usize)>,
    ) {
        self.write_at(store, self.tail, &[0u8; 4], dirty);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use specpmt_pmem::{PmemConfig, PmemDevice};

    const BB: usize = 128;

    /// The bytes of `S`, never lent: every read through it copies.
    pub(crate) struct CopyOnly<'a, S>(pub &'a S);

    impl<S: ByteSource> ByteSource for CopyOnly<'_, S> {
        fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
            self.0.read_at(addr, buf)
        }

        fn source_len(&self) -> usize {
            self.0.source_len()
        }
    }

    fn pool() -> PmemPool {
        PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20).untimed()))
    }

    fn append_record(
        area: &mut LogArea,
        pool: &mut PmemPool,
        free: &mut Vec<usize>,
        rec: &LogRecord,
    ) {
        let mut dirty = Vec::new();
        let mut store = PoolStore::new(pool, free);
        area.append(&mut store, &encode_record(rec), &mut dirty);
        area.write_terminator(&mut store, &mut dirty);
    }

    fn rec(ts: u64, addr: usize, value: &[u8]) -> LogRecord {
        LogRecord { ts, entries: vec![LogEntry { addr, value: value.to_vec() }] }
    }

    #[test]
    fn roundtrip_single_record() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let r = rec(5, 0x40, &[1, 2, 3]);
        append_record(&mut area, &mut pool, &mut free, &r);
        let parsed = parse_chain(pool.device(), area.head(), BB);
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn roundtrip_multiple_records_preserve_order() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let recs: Vec<_> = (1..=5).map(|i| rec(i, 64 * i as usize, &[i as u8; 7])).collect();
        for r in &recs {
            append_record(&mut area, &mut pool, &mut free, r);
        }
        let parsed = parse_chain(pool.device(), area.head(), BB);
        assert_eq!(parsed, recs);
    }

    #[test]
    fn record_spills_across_blocks() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        // Payload much larger than a block.
        let big = rec(1, 0x100, &vec![0xAB; 3 * BB]);
        append_record(&mut area, &mut pool, &mut free, &big);
        assert!(area.block_count() >= 3);
        let parsed = parse_chain(pool.device(), area.head(), BB);
        assert_eq!(parsed, vec![big]);
    }

    #[test]
    fn empty_chain_parses_empty() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        assert!(parse_chain(pool.device(), area.head(), BB).is_empty());
    }

    #[test]
    fn corrupt_checksum_stops_parse() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let r1 = rec(1, 0x40, &[1; 4]);
        let r2 = rec(2, 0x48, &[2; 4]);
        append_record(&mut area, &mut pool, &mut free, &r1);
        let after_r1 = area.tail();
        append_record(&mut area, &mut pool, &mut free, &r2);
        // Corrupt one payload byte of r2 (header is REC_HDR after cursor).
        let addr = after_r1.block + after_r1.pos + REC_HDR + 2;
        pool.device_mut().write(addr, &[0xFF]);
        let parsed = parse_chain(pool.device(), area.head(), BB);
        assert_eq!(parsed, vec![r1]);
    }

    #[test]
    fn zero_head_or_oversized_head_is_empty() {
        let p = pool();
        assert!(parse_chain(p.device(), 0, BB).is_empty());
        assert!(parse_chain(p.device(), usize::MAX / 2, BB).is_empty());
    }

    #[test]
    fn cyclic_forward_pointer_terminates() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        // A record that exactly fills the rest of the block so the parser
        // must follow the forward pointer for the next header.
        let fill = BB - BLOCK_HDR - REC_HDR - ENTRY_HDR;
        let r = rec(1, 0x40, &vec![7u8; fill]);
        append_record(&mut area, &mut pool, &mut free, &r);
        // Point the block at itself.
        let head = area.head();
        pool.device_mut().write_u64(head, head as u64);
        let parsed = parse_chain(pool.device(), head, BB);
        // Terminates (no hang); the self-loop yields garbage that fails
        // checksum or len checks quickly.
        assert!(parsed.len() < 10_000);
    }

    #[test]
    fn write_at_patches_earlier_bytes_across_blocks() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let start = area.tail();
        area.append(&mut PoolStore::new(&mut pool, &mut free), &vec![0u8; 2 * BB], &mut dirty);
        let patch = vec![0xEE; 200];
        let n = area.write_at(&mut PoolStore::new(&mut pool, &mut free), start, &patch, &mut dirty);
        assert_eq!(n, 200);
        // Verify via a reader.
        let mut r =
            StreamReader::at(pool.device(), Cursor { block: area.head(), pos: BLOCK_HDR }, BB)
                .expect("valid head");
        let mut buf = vec![0u8; 200];
        assert!(r.read(&mut buf));
        assert_eq!(buf, patch);
    }

    #[test]
    fn take_block_batches_and_reuses() {
        let mut pool = pool();
        let mut free = Vec::new();
        let b1 = PoolStore::new(&mut pool, &mut free).take_block(BB);
        assert!(!free.is_empty());
        free.push(b1);
        let b2 = PoolStore::new(&mut pool, &mut free).take_block(BB);
        assert_eq!(b1, b2);
    }

    /// A checkpoint payload holding `runs`, encoded as entries.
    fn ckpt_payload(runs: &[LogEntry]) -> Vec<u8> {
        let mut payload = Vec::new();
        for e in runs {
            push_entry(&mut payload, e.addr, &e.value);
        }
        payload
    }

    #[test]
    fn checkpoint_roundtrips_across_blocks() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let runs = vec![
            LogEntry { addr: 0x100, value: vec![7u8; 3 * BB] },
            LogEntry { addr: 0x500, value: vec![9u8; 5] },
        ];
        let anchors = [
            Some(Anchor { at: Cursor { block: 0x4000, pos: BB }, ts: 41, checksum: 0xfeed }),
            None,
            Some(Anchor { at: Cursor { block: 0x8000, pos: BLOCK_HDR }, ts: 40, checksum: 1 }),
        ];
        area.append(
            &mut PoolStore::new(&mut pool, &mut free),
            &encode_checkpoint(42, &anchors, &ckpt_payload(&runs)),
            &mut dirty,
        );
        let ckpt = read_checkpoint(pool.device(), area.head(), BB).expect("checkpoint parses");
        assert_eq!(ckpt.watermark, 42);
        assert_eq!(ckpt.anchors, anchors);
        assert_eq!(ckpt.runs, ckpt_payload(&runs));
        assert_eq!(Entries::new(&ckpt.runs).into_owned(), runs);
    }

    #[test]
    fn torn_checkpoint_is_rejected() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let runs = [LogEntry { addr: 0x40, value: vec![1, 2, 3, 4] }];
        let anchors = [Some(Anchor { at: Cursor { block: BB, pos: 20 }, ts: 7, checksum: 3 })];
        area.append(
            &mut PoolStore::new(&mut pool, &mut free),
            &encode_checkpoint(7, &anchors, &ckpt_payload(&runs)),
            &mut dirty,
        );
        assert!(read_checkpoint(pool.device(), area.head(), BB).is_some(), "intact as written");
        // Corrupt one byte of the anchor table, then of the runs: the
        // checksum must reject the record either way.
        let table = area.head() + BLOCK_HDR + CKPT_HDR;
        for addr in [table + 4 + 9, table + 4 + ANCHOR_BYTES + ENTRY_HDR + 1] {
            let before = pool.device().peek(addr, 1)[0];
            pool.device_mut().write(addr, &[before ^ 0x10]);
            assert!(read_checkpoint(pool.device(), area.head(), BB).is_none(), "{addr:#x}");
            pool.device_mut().write(addr, &[before]);
        }
        // A wrong magic (e.g. a transaction record in the slot) is rejected.
        let mut area2 = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        append_record(&mut area2, &mut pool, &mut free, &rec(1, 0x40, &[1; 4]));
        assert!(read_checkpoint(pool.device(), area2.head(), BB).is_none());
        // Empty head.
        assert!(read_checkpoint(pool.device(), 0, BB).is_none());
    }

    /// A sealed checkpoint whose anchor count claims more entries than its
    /// payload holds — or a count whose table size wraps — is rejected
    /// whole, not read short.
    #[test]
    fn an_anchor_table_the_payload_cannot_hold_is_rejected() {
        for count in [2u32, u32::MAX] {
            let mut payload = count.to_le_bytes().to_vec();
            payload.extend_from_slice(&[0u8; ANCHOR_BYTES]);
            let mut frame = CKPT_MAGIC.to_le_bytes().to_vec();
            frame.extend_from_slice(&9u64.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&record_checksum(9, &payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            let mut pool = pool();
            let (mut free, mut dirty) = (Vec::new(), Vec::new());
            let mut store = PoolStore::new(&mut pool, &mut free);
            let mut area = LogArea::create(&mut store, BB, &mut dirty);
            area.append(&mut store, &frame, &mut dirty);
            assert_eq!(read_checkpoint(pool.device(), area.head(), BB), None, "count {count}");
        }
    }

    /// The stream position of each record — the bytes of the records
    /// before it — names where a reader finds it, including a record that
    /// starts exactly at a block boundary; past the last block there is
    /// none.
    #[test]
    fn stream_cursor_places_every_record_of_a_chain() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        // The first record fills its block's stream exactly (112 bytes).
        let fill = BB - BLOCK_HDR - REC_HDR - ENTRY_HDR;
        let recs: Vec<_> = [fill, 3, 150, 1, 40]
            .iter()
            .enumerate()
            .map(|(i, &len)| rec(i as u64 + 1, 0x40, &vec![i as u8; len]))
            .collect();
        for r in &recs {
            append_record(&mut area, &mut pool, &mut free, r);
        }
        let mut offset = 0;
        for r in &recs {
            let at = stream_cursor(area.blocks(), BB, offset).expect("inside the chain");
            let mut reader = RecordReader::resume(pool.device(), at, BB);
            assert_eq!(reader.next().map(RecordRef::to_record).as_ref(), Some(r), "{offset}");
            offset += REC_HDR + r.payload_len();
        }
        assert_eq!(stream_cursor(area.blocks(), BB, 0).map(|c| c.pos), Some(BLOCK_HDR));
        assert_eq!(
            stream_cursor(area.blocks(), BB, fill + REC_HDR + ENTRY_HDR).map(|c| c.pos),
            Some(BLOCK_HDR)
        );
        let end = area.block_count() * (BB - BLOCK_HDR);
        assert_eq!(stream_cursor(area.blocks(), BB, end), None);
        assert_eq!(stream_cursor(area.blocks(), BLOCK_HDR, 0), None, "a block with no stream");
    }

    /// A reader resumed inside a block header or past the block end reads
    /// nothing: a garbage position never reads the forward pointer as a
    /// record.
    #[test]
    fn a_position_outside_the_block_body_reads_nothing() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        append_record(&mut area, &mut pool, &mut free, &rec(1, 0x40, &[1; 4]));
        let head = area.head();
        for pos in [0, BLOCK_HDR - 1, BB + 1, usize::MAX] {
            let mut reader = RecordReader::resume(pool.device(), Cursor { block: head, pos }, BB);
            assert!(reader.next().is_none(), "pos {pos}");
        }
        assert!(RecordReader::resume(pool.device(), Cursor { block: head, pos: BLOCK_HDR }, BB)
            .next()
            .is_some());
    }

    #[test]
    fn entry_parsing_handles_multiple_entries() {
        let r = LogRecord {
            ts: 9,
            entries: vec![
                LogEntry { addr: 8, value: vec![1] },
                LogEntry { addr: 16, value: vec![2, 3] },
            ],
        };
        let enc = encode_record(&r);
        let payload = &enc[REC_HDR..];
        assert_eq!(Entries::new(payload).into_owned(), r.entries);
    }

    /// A record inside one block is borrowed from a source that lends; one
    /// that crosses a block boundary, or comes from a source that does
    /// not lend, is copied — and both read back the same.
    #[test]
    fn records_inside_a_block_are_lent_and_others_copied() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        // 40 bytes at block offset 16; 248 bytes from offset 56 across two
        // boundaries to offset 80 of the third block; 36 bytes after it.
        let recs = [rec(1, 0x40, &[1; 8]), rec(2, 0x80, &[2; 216]), rec(3, 0xC0, &[3; 4])];
        for r in &recs {
            append_record(&mut area, &mut pool, &mut free, r);
        }
        let dev = pool.device();
        let image = dev.peek(0, dev.size()).as_ptr_range();
        let mut reader = RecordReader::new(dev, area.head(), BB);
        for (r, lent) in recs.iter().zip([true, false, true]) {
            let got = reader.next().expect("committed");
            assert_eq!(got.to_record(), *r);
            assert_eq!(image.contains(&got.bytes().as_ptr()), lent, "record {}", r.ts);
        }
        assert!(reader.next().is_none());
        assert_eq!(parse_chain(&CopyOnly(dev), area.head(), BB), recs);
    }

    /// A header whose length the source could not hold is rejected before
    /// the length sizes anything.
    #[test]
    fn a_length_larger_than_the_source_is_rejected_unread() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let size = pool.device().size();
        let hdr = encode_header_parts(1, size, 0);
        pool.device_mut().write(area.head() + BLOCK_HDR, &hdr);
        let mut reader = RecordReader::new(pool.device(), area.head(), BB);
        assert!(reader.next().is_none());
        assert_eq!(reader.buf.capacity(), 0, "nothing was sized by the length");
    }

    /// The record checksum, pinned: an accidental change to the hash, or
    /// to what it covers, fails here first.
    #[test]
    fn record_checksum_known_answers() {
        let payload: Vec<u8> = (0u32..255).map(|i| (i * 37 + 11) as u8).collect();
        let ts = 0x0123_4567_89ab_cdef;
        let want = [
            (0, 0x23de_7c3d_fe48_8031),
            (1, 0x5669_697d_e116_76ab),
            (7, 0x9b5a_b6bc_3071_7f9d),
            (8, 0x84cc_5c15_7bd4_d55d),
            (9, 0x1c79_1f7e_12e6_2236),
            (64, 0xbc06_7803_0e74_645a),
            (255, 0xf1f2_32dc_6fb1_4070),
        ];
        for (len, sum) in want {
            assert_eq!(record_checksum(ts, &payload[..len]), sum, "{len} bytes");
        }
    }

    /// Every change confined to one byte, and to any eight consecutive
    /// bytes, of a payload of 0..=256 bytes at each of the eight source
    /// alignments changes the record checksum.
    #[test]
    fn every_single_byte_and_word_change_is_detected() {
        let mut rng = specpmt_pmem::SplitMix64::new(0xb17e);
        let backing: Vec<u8> = (0..256 + 8).map(|_| rng.next_u8()).collect();
        for len in 0..=256 {
            for align in 0..8 {
                let payload = &backing[align..align + len];
                let want = record_checksum(9, payload);
                let mut changed = payload.to_vec();
                for at in 0..len {
                    changed[at] ^= rng.next_u8() | 1;
                    assert_ne!(record_checksum(9, &changed), want, "byte {at} len {len}");
                    changed[at] = payload[at];
                }
                for at in 0..len {
                    let word = at..(at + 8).min(len);
                    word.clone().for_each(|i| changed[i] ^= rng.next_u8());
                    changed[at] = payload[at] ^ (rng.next_u8() | 1);
                    assert_ne!(record_checksum(9, &changed), want, "word at {at} len {len}");
                    changed[word.clone()].copy_from_slice(&payload[word]);
                }
            }
        }
    }

    /// Px86 persists or tears a store in 8-byte units. For 10,000 seeded
    /// records at random positions in a chain of small blocks, a commit
    /// torn in any non-empty subset of the address-aligned units the record
    /// covers — those units holding the bytes they held before — is
    /// rejected by the reader, while the whole record reads back.
    #[test]
    fn records_torn_at_any_subset_of_eight_byte_units_are_rejected() {
        const BLOCKS: usize = 3;
        let mut rng = specpmt_pmem::SplitMix64::new(0x7042);
        for trial in 0..10_000 {
            let value: Vec<u8> = (0..rng.range_usize(1, 150)).map(|_| rng.next_u8()).collect();
            let record = encode_record(&rec(rng.next_u64(), rng.range_usize(0, 1 << 20), &value));
            let start = Cursor { block: BB, pos: rng.range_usize(BLOCK_HDR, BB - 1) };
            // The image addresses the record's bytes land at.
            let mut addrs = Vec::with_capacity(record.len());
            let mut cur = start;
            while addrs.len() < record.len() {
                if cur.pos == BB {
                    cur = Cursor { block: cur.block + BB, pos: BLOCK_HDR };
                }
                addrs.push(cur.block + cur.pos);
                cur.pos += 1;
            }
            // Before the commit: whatever the blocks held, different from
            // the record at every byte it covers.
            let mut before =
                CrashImage::new((0..(BLOCKS + 1) * BB).map(|_| rng.next_u8()).collect());
            for b in 1..=BLOCKS {
                let next = if b < BLOCKS { (b + 1) * BB } else { 0 };
                before.write_u64(b * BB, next as u64);
            }
            let mut committed = before.clone();
            for (&addr, &byte) in addrs.iter().zip(&record) {
                before.write_bytes(addr, &[byte ^ (rng.next_u8() | 1)]);
                committed.write_bytes(addr, &[byte]);
            }
            let mut whole = RecordReader::resume(&committed, start, BB);
            assert_eq!(whole.next().map(|r| r.bytes().to_vec()), Some(record.clone()));

            let mut units: Vec<usize> = addrs.iter().map(|a| a / 8).collect();
            units.dedup();
            let mut torn_units: Vec<usize> =
                units.iter().copied().filter(|_| rng.next_bool()).collect();
            if torn_units.is_empty() {
                torn_units.push(units[rng.range_usize(0, units.len() - 1)]);
            }
            let mut torn = committed.clone();
            for &addr in addrs.iter().filter(|a| torn_units.contains(&(*a / 8))) {
                torn.write_bytes(addr, before.read_bytes(addr, 1));
            }
            let mut reader = RecordReader::resume(&torn, start, BB);
            assert!(
                reader.next().is_none(),
                "trial {trial}: record at {start:?} torn in units {torn_units:?} was accepted"
            );
        }
    }
}
