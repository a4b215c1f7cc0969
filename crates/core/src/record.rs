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

use std::sync::Mutex;

use specpmt_pmem::{
    CrashControl, CrashImage, DeviceHandle, FenceReport, PmemDevice, PmemError, PmemPool,
    SharedPmemPool,
};

use crate::checksum::Fnv1a;

/// Bytes reserved at the start of each log block (forward + backward
/// pointers).
pub const BLOCK_HDR: usize = 16;

/// Record header size: `len (u32) | ts (u64) | checksum (u64)`.
pub const REC_HDR: usize = 20;

/// Entry header size: `addr (u64) | len (u32)`.
pub const ENTRY_HDR: usize = 12;

/// Upper bound on a single record's payload; larger lengths are treated as
/// corruption during parsing.
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
    /// unspecified) if out of bounds.
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool;
    /// Source size in bytes.
    fn source_len(&self) -> usize;
}

impl ByteSource for CrashImage {
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
        let bytes = self.as_bytes();
        if !in_bounds(addr, buf.len(), bytes.len()) {
            return false;
        }
        buf.copy_from_slice(&bytes[addr..addr + buf.len()]);
        true
    }

    fn source_len(&self) -> usize {
        self.len()
    }
}

impl ByteSource for PmemDevice {
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
        if !in_bounds(addr, buf.len(), self.size()) {
            return false;
        }
        // `peek` returns a borrowed slice of the device image: a single
        // copy into the caller's buffer, no intermediate allocation.
        buf.copy_from_slice(self.peek(addr, buf.len()));
        true
    }

    fn source_len(&self) -> usize {
        self.size()
    }
}

impl ByteSource for DeviceHandle {
    fn read_at(&self, addr: usize, buf: &mut [u8]) -> bool {
        if !in_bounds(addr, buf.len(), self.size()) {
            return false;
        }
        // `peek_into` copies straight from the (sharded) device image into
        // the caller's buffer — the earlier `peek(..) -> Vec` round-trip
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

/// Computes the record checksum over `payload || len || ts`.
///
/// The variable-length payload comes *first* so the commit path can fold
/// entry bytes into a streaming [`Fnv1a`] as they are staged and only
/// append the fixed 12-byte `len || ts` suffix at seal time: FNV-1a is
/// strictly sequential, so whatever is hashed first must be known first —
/// and at staging time the payload bytes are known while the final length
/// and commit timestamp are not. Runs without any temporary buffer.
pub fn record_checksum(ts: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(payload);
    record_checksum_finish(h, payload.len(), ts)
}

/// Finalizes a streaming payload hash into the record checksum by folding
/// in the `len || ts` suffix. `payload_hash` must have been fed exactly
/// the record's payload bytes in order.
pub fn record_checksum_finish(mut payload_hash: Fnv1a, payload_len: usize, ts: u64) -> u64 {
    payload_hash.update(&(payload_len as u32).to_le_bytes());
    payload_hash.update(&ts.to_le_bytes());
    payload_hash.finish()
}

/// Encodes a record header from precomputed parts — the seal fast path,
/// where the checksum was accumulated incrementally during staging.
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

/// Decodes a record header into `(payload length, timestamp, checksum)`.
pub(crate) fn decode_header(hdr: &[u8; REC_HDR]) -> (usize, u64, u64) {
    (
        u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes")) as usize,
        u64::from_le_bytes(hdr[4..12].try_into().expect("8 bytes")),
        u64::from_le_bytes(hdr[12..20].try_into().expect("8 bytes")),
    )
}

/// Decodes the entry `bytes` starts with into `(addr, value length)`; its
/// value follows the [`ENTRY_HDR`]-byte header. `None` where `bytes` does
/// not hold a whole entry — the end of a payload.
///
/// Returns positions rather than borrows, so compaction can decode an
/// entry and then move it within the buffer it was decoded from.
pub(crate) fn decode_entry(bytes: &[u8]) -> Option<(usize, usize)> {
    let hdr = bytes.get(..ENTRY_HDR)?;
    let addr = u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes")) as usize;
    let len = u32::from_le_bytes(hdr[8..].try_into().expect("4 bytes")) as usize;
    (len <= bytes.len() - ENTRY_HDR).then_some((addr, len))
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

impl<'a, S: ByteSource> StreamReader<'a, S> {
    /// A reader positioned at `cur`, or `None` when `cur` does not name a
    /// block of `src` (empty head, garbage pointer, degenerate block size).
    fn at(src: &'a S, cur: Cursor, block_bytes: usize) -> Option<Self> {
        if cur.block == 0
            || block_bytes <= BLOCK_HDR
            || !in_bounds(cur.block, block_bytes, src.source_len())
        {
            return None;
        }
        let max_blocks = src.source_len() / block_bytes + 2;
        Some(Self { src, cur, block_bytes, hops_left: max_blocks })
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

    /// Reads a payload into `buf` and checks it against the checksum its
    /// header carried — the one place a stored checksum is verified, for
    /// transaction records and checkpoints alike.
    fn read_payload(&mut self, buf: &mut [u8], ts: u64, cksum: u64) -> bool {
        self.read(buf) && record_checksum(ts, buf) == cksum
    }
}

/// A committed record as it is stored in the chain — header, then payload
/// — borrowed from the reader's buffer or from a cache of encoded records.
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
        let hdr: &[u8; REC_HDR] = bytes.get(..REC_HDR)?.try_into().expect("REC_HDR bytes");
        let (len, ts, _) = decode_header(hdr);
        let (rec, rest) = bytes.split_at(REC_HDR + len);
        bytes = rest;
        Some(RecordRef { ts, bytes: rec })
    })
}

/// The one parser of transaction records: streams the committed records of
/// a chain through a single reused buffer (no allocation per record).
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
    /// The current record, header then payload.
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

    /// Start of the first record not yet returned: once [`Self::next`] has
    /// returned `None`, where the chain's committed records end.
    pub(crate) fn cursor(&self) -> Cursor {
        self.next
    }

    /// The next committed record, valid until the next call (it borrows
    /// the reader's buffer, which is why this is not an `Iterator`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RecordRef<'_>> {
        // Taken, and put back only when a whole record was read.
        let mut stream = self.stream.take()?;
        let mut hdr = [0u8; REC_HDR];
        if !stream.read(&mut hdr) {
            return None;
        }
        let (len, ts, cksum) = decode_header(&hdr);
        if len == 0 || len > MAX_RECORD_PAYLOAD {
            return None;
        }
        self.buf.clear();
        self.buf.resize(REC_HDR + len, 0);
        self.buf[..REC_HDR].copy_from_slice(&hdr);
        if !stream.read_payload(&mut self.buf[REC_HDR..], ts, cksum) {
            return None;
        }
        self.next = stream.cur;
        self.stream = Some(stream);
        Some(RecordRef { ts, bytes: &self.buf })
    }
}

/// Reads all committed records of the chain starting at `head` into one
/// buffer, encoded back to back as the chain stores them — what
/// [`encoded_records`] splits again. One allocation per chain, however many
/// records and entries it holds.
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

/// Magic opening a checkpoint record ("SPCKPT00").
pub const CKPT_MAGIC: u64 = 0x5350_434b_5054_3030;

/// Checkpoint record header size:
/// `magic (u64) | watermark (u64) | len (u32) | checksum (u64)`.
pub const CKPT_HDR: usize = 28;

/// Upper bound on a checkpoint's payload (a checkpoint snapshots live
/// data, which can legitimately dwarf any single transaction record).
pub const MAX_CKPT_PAYLOAD: usize = 1 << 28;

/// Encodes a checkpoint record around `payload` — its snapshot runs
/// (disjoint, address-sorted, the last-writer-wins state of every record
/// with commit timestamp `<= watermark`), already encoded back to back as
/// entries: `magic | watermark | len | checksum | payload`. The checksum
/// covers `payload || len || watermark` via [`record_checksum`] (the
/// watermark rides in the timestamp seat), so a torn checkpoint is
/// rejected exactly like a torn transaction record.
pub(crate) fn encode_checkpoint(watermark: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CKPT_HDR + payload.len());
    out.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    out.extend_from_slice(&watermark.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_checksum(watermark, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads the checkpoint record stored in the block chain at `head` as
/// `(watermark, payload)`; [`Entries`] decodes the payload's runs.
///
/// Returns `None` for an empty head, a bad magic, an implausible length,
/// an unreadable chain, or a checksum mismatch — the torn-checkpoint
/// cases, where recovery must fall back to a full log replay.
pub(crate) fn read_checkpoint<S: ByteSource>(
    src: &S,
    head: usize,
    block_bytes: usize,
) -> Option<(u64, Vec<u8>)> {
    let mut reader = StreamReader::at(src, Cursor { block: head, pos: BLOCK_HDR }, block_bytes)?;
    let mut hdr = [0u8; CKPT_HDR];
    if !reader.read(&mut hdr) {
        return None;
    }
    if u64::from_le_bytes(hdr[0..8].try_into().expect("8 bytes")) != CKPT_MAGIC {
        return None;
    }
    let watermark = u64::from_le_bytes(hdr[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(hdr[16..20].try_into().expect("4 bytes")) as usize;
    if len > MAX_CKPT_PAYLOAD {
        return None;
    }
    let cksum = u64::from_le_bytes(hdr[20..28].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    reader.read_payload(&mut payload, watermark, cksum).then_some((watermark, payload))
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
mod tests {
    use super::*;
    use specpmt_pmem::{PmemConfig, PmemDevice};

    const BB: usize = 128;

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
        area.append(
            &mut PoolStore::new(&mut pool, &mut free),
            &encode_checkpoint(42, &ckpt_payload(&runs)),
            &mut dirty,
        );
        let (watermark, payload) =
            read_checkpoint(pool.device(), area.head(), BB).expect("checkpoint parses");
        assert_eq!(watermark, 42);
        assert_eq!(payload, ckpt_payload(&runs));
        assert_eq!(Entries::new(&payload).into_owned(), runs);
    }

    #[test]
    fn torn_checkpoint_is_rejected() {
        let mut pool = pool();
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        let runs = [LogEntry { addr: 0x40, value: vec![1, 2, 3, 4] }];
        area.append(
            &mut PoolStore::new(&mut pool, &mut free),
            &encode_checkpoint(7, &ckpt_payload(&runs)),
            &mut dirty,
        );
        assert!(read_checkpoint(pool.device(), area.head(), BB).is_some(), "intact as written");
        // Corrupt one payload byte: the checksum must reject the record.
        let addr = area.head() + BLOCK_HDR + CKPT_HDR + ENTRY_HDR + 1;
        pool.device_mut().write(addr, &[0xFF]);
        assert!(read_checkpoint(pool.device(), area.head(), BB).is_none());
        // A wrong magic (e.g. a transaction record in the slot) is rejected.
        let mut area2 = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        append_record(&mut area2, &mut pool, &mut free, &rec(1, 0x40, &[1; 4]));
        assert!(read_checkpoint(pool.device(), area2.head(), BB).is_none());
        // Empty head.
        assert!(read_checkpoint(pool.device(), 0, BB).is_none());
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
}
