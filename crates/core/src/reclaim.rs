//! Log reclamation support: the byte-exact, word-keyed freshness index and
//! the incremental cycle state both runtimes share.
//!
//! The paper's background reclamator uses a volatile hash table, keyed by
//! datum address, to decide whether a log entry is *stale* (every byte it
//! covers is also covered by a younger committed record) and can be
//! dropped. The table is volatile on purpose: it is rebuilt from the log if
//! a crash interrupts reclamation, so it needs no crash consistency of its
//! own.
//!
//! Freshness must consider **committed records of all threads** — an entry
//! may only be dropped when a younger committed record covers its bytes,
//! never because of an in-flight transaction (the same requirement that
//! motivates Fig. 11's epoch-overlap rule in the hardware design).
//!
//! # Incremental cycles
//!
//! A naive cycle re-parses every chain from PM and rebuilds the index from
//! scratch — O(total log) even when nothing happened since the last cycle.
//! [`ReclaimState`] makes a cycle's parse and index work proportional to
//! the *records appended since the last cycle*:
//!
//! * each chain carries a **change watermark** `(head, generation)`
//!   ([`crate::record::LogArea::generation`]); a chain whose watermark has
//!   not moved since the last cycle is not read at all;
//! * a chain whose generation moved but whose `head` did not is read from
//!   the **suffix cursor** — where the previous parse stopped — and only
//!   those records are parsed, cached and folded into the index. This is
//!   sound because a chain is **append-only between splices**: a commit
//!   reserves its header at the tail and later patches that header and its
//!   own entries, an abort seals a compensating record the same way, and
//!   group commit only defers the fence — all of them write at or after
//!   the first unsealed record, which is exactly where a parse stops. Only
//!   a splice installs a different chain, and a splice goes through
//!   `ReclaimState::spliced`, which re-bases the cursor on the new
//!   chain's tail (a `head` the cache does not know forces a full parse);
//! * the per-chain cache is one flat buffer of *encoded* records, so
//!   compaction is an in-place retain and a record that keeps all its
//!   entries goes back to PM byte for byte — header, checksum and all —
//!   without being decoded, cloned, re-encoded or re-hashed;
//! * the [`FreshnessIndex`] **persists across cycles** and is only *fed*
//!   the newly parsed records. This is sound because the index fold is
//!   monotone ([`FreshnessIndex::insert`]): entries for records that a
//!   rewrite has since dropped may linger, but a dropped entry is by
//!   definition covered by a younger retained one, so no freshness verdict
//!   ever depends on vanished data;
//! * when **no** chain changed, the whole cycle is a no-op: the index is
//!   unchanged, so every chain that the previous cycle left fully fresh is
//!   still fully fresh — skipping is always the safe side (a skipped
//!   compaction only delays garbage collection, never corrupts recovery);
//! * a chain whose compaction drops nothing is **not rewritten** (no new
//!   blocks, no splice fences).
//!
//! What a cycle still pays per *live* entry is one index probe (staleness
//! is global, so an old entry must be re-checked against younger records of
//! every chain) and, when anything was dropped, the copy of the kept
//! records into the new chain.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use specpmt_telemetry::{Phase, Telemetry};

use crate::record::{
    decode_entry, decode_header, encode_header, encoded_records, ByteSource, Cursor, LogArea,
    LogStore, RecordReader, ENTRY_HDR, REC_HDR,
};

/// Bytes per index word.
const WORD: usize = 8;

/// Multiply-shift hash of a word number. The product's high half is its
/// well-mixed half, so it is folded onto the low bits the table buckets by
/// (strided keys would otherwise share their low zero bits). Collisions
/// cost time, never verdicts: `inspect` feeds the index addresses from
/// arbitrary crash images, and a crafted image can only slow its own
/// inspection.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("word numbers hash through write_usize");
    }

    fn write_usize(&mut self, n: usize) {
        let h = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The freshness state of one aligned 8-byte word: which bytes a commit
/// wrote (`ts == 0` is a legal timestamp, so absence needs its own bit)
/// and their youngest timestamp — until they carry different ones: from
/// then on the word is `mixed`, and [`FreshnessIndex`]'s side map holds
/// the eight.
#[derive(Debug, Clone, Copy, Default)]
struct Word {
    ts: u64,
    present: u8,
    mixed: bool,
}

/// Splits `[addr, addr + len)` — wrapping, since `inspect` indexes crash
/// images whose entries can carry any address — into per-word pieces
/// `(word number, first byte in word, bytes)`.
fn word_pieces(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let (mut at, mut left) = (addr, len);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let first = at % WORD;
        let n = (WORD - first).min(left);
        let piece = (at / WORD, first, n);
        at = at.wrapping_add(n);
        left -= n;
        Some(piece)
    })
}

/// Bit mask of bytes `first..first + n` of a word.
fn byte_mask(first: usize, n: usize) -> u8 {
    (((1u16 << n) - 1) << first) as u8
}

/// Volatile index mapping each logged byte address to the youngest commit
/// timestamp that wrote it. Verdicts are byte-exact; storage is one
/// 16-byte hash value per aligned 8-byte word, so an aligned 8-byte datum
/// is one probe. Only the rare word whose bytes carry different timestamps
/// keeps eight, in a side map.
#[derive(Debug, Clone, Default)]
pub struct FreshnessIndex {
    words: HashMap<usize, Word, BuildHasherDefault<WordHasher>>,
    /// Per-byte timestamps of the `mixed` words (0 for an absent byte).
    mixed: HashMap<usize, [u64; WORD], BuildHasherDefault<WordHasher>>,
    /// Distinct bytes tracked (set `present` bits across all words).
    bytes: usize,
}

impl FreshnessIndex {
    /// Folds one entry — `len` bytes at `addr`, committed at `ts` — into
    /// the index. The fold is monotone (each byte keeps its *youngest*
    /// covering timestamp), so inserting an entry twice is idempotent.
    /// This is what makes incremental maintenance safe: the index may
    /// retain entries for records that were since dropped, but a dropped
    /// entry is by definition covered by a younger *retained* one, so
    /// freshness decisions never rely on vanished data.
    pub fn insert(&mut self, ts: u64, addr: usize, len: usize) {
        for (word, first, n) in word_pieces(addr, len) {
            let w = self.words.entry(word).or_default();
            let mask = byte_mask(first, n);
            self.bytes += (mask & !w.present).count_ones() as usize;
            // One timestamp survives if `ts` is it, or a younger (or the
            // first) `ts` covers every written byte, or an older adds none.
            let uniform = !w.mixed
                && (ts == w.ts
                    || (ts >= w.ts && w.present & !mask == 0)
                    || (ts <= w.ts && mask & !w.present == 0));
            if uniform {
                w.ts = w.ts.max(ts);
                w.present |= mask;
                continue;
            }
            let per_byte = self.mixed.entry(word).or_insert_with(|| {
                std::array::from_fn(|i| if w.present >> i & 1 == 1 { w.ts } else { 0 })
            });
            for slot in &mut per_byte[first..first + n] {
                *slot = (*slot).max(ts);
            }
            w.present |= mask;
            w.mixed = true;
        }
    }

    /// Youngest commit timestamp covering `addr`, if any.
    pub fn newest_ts(&self, addr: usize) -> Option<u64> {
        let (word, i) = (addr / WORD, addr % WORD);
        let w = self.words.get(&word)?;
        (w.present & byte_mask(i, 1) != 0)
            .then(|| if w.mixed { self.mixed[&word][i] } else { w.ts })
    }

    /// Whether the entry of `len` bytes at `addr`, committed at `ts`, is
    /// fresh: at least one of its bytes has no younger committed record.
    /// (An empty entry has no such byte and is never fresh.)
    pub fn is_fresh(&self, ts: u64, addr: usize, len: usize) -> bool {
        word_pieces(addr, len).any(|(word, first, n)| match self.words.get(&word) {
            None => true,
            Some(w) => {
                let mask = byte_mask(first, n);
                let any_older = |m: &[u64; WORD]| m[first..first + n].iter().any(|&t| t <= ts);
                w.present & mask != mask
                    || if w.mixed { any_older(&self.mixed[&word]) } else { w.ts <= ts }
            }
        })
    }

    /// Number of distinct bytes tracked.
    pub fn tracked_bytes(&self) -> usize {
        self.bytes
    }

    /// Compacts a buffer of back-to-back encoded records in place: stale
    /// entries are cut out, a record left with none is cut out whole, a
    /// record that lost some gets a fresh header, and a record that lost
    /// none is moved down untouched — header, checksum and all. Returns
    /// `(entries kept, entries dropped)`; with nothing dropped the buffer
    /// is unchanged.
    fn compact_encoded(&self, buf: &mut Vec<u8>) -> (u64, u64) {
        let (mut kept, mut dropped) = (0u64, 0u64);
        // Read and write positions; everything below `w` is compacted.
        let (mut r, mut w) = (0usize, 0usize);
        while r < buf.len() {
            // The header is copied out first: kept entries land at
            // `w + REC_HDR`, which may already overlap its old place.
            let Some(&hdr) = buf[r..].first_chunk::<REC_HDR>() else { break };
            let Some((len, ts, _)) = decode_header(&hdr) else { break };
            let end = r + REC_HDR + len;
            let (mut pr, mut pw) = (r + REC_HDR, w + REC_HDR);
            let mut lost = false;
            while let Some((addr, vlen)) = decode_entry(&buf[pr..end]) {
                let entry = ENTRY_HDR + vlen;
                if self.is_fresh(ts, addr, vlen) {
                    buf.copy_within(pr..pr + entry, pw);
                    pw += entry;
                    kept += 1;
                } else {
                    lost = true;
                    dropped += 1;
                }
                pr += entry;
            }
            if !lost {
                // Verbatim, including any bytes past the last whole entry.
                buf.copy_within(pr..end, pw);
                pw += end - pr;
                buf[w..w + REC_HDR].copy_from_slice(&hdr);
                w = pw;
            } else if pw > w + REC_HDR {
                let hdr = encode_header(ts, &buf[w + REC_HDR..pw]);
                buf[w..w + REC_HDR].copy_from_slice(&hdr);
                w = pw;
            }
            r = end;
        }
        buf.truncate(w);
        (kept, dropped)
    }
}

/// Observability counters for the incremental reclamator. All counters
/// are cumulative over the runtime's lifetime except
/// [`ReclaimStats::last_cycle_ns`].
///
/// `records_kept` and `records_dropped` count log **entries** (one per
/// datum a transaction wrote), not records (one per transaction): a record
/// can lose some entries and keep others. The field names stay: the
/// judged benchmark reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Reclamation cycles run (including no-op cycles).
    pub cycles: u64,
    /// Cycles where no chain's watermark had moved: the whole cycle was a
    /// scan-free, rewrite-free no-op.
    pub noop_cycles: u64,
    /// Chains read from PM (watermark moved since the last cycle) — from
    /// the suffix cursor, or from `head` after a splice the cache missed.
    pub chains_scanned: u64,
    /// Chain scans skipped because the `(head, generation)` watermark was
    /// unchanged — the cached records were reused.
    pub chains_skipped: u64,
    /// Chains rewritten (compaction dropped at least one entry).
    pub chains_rewritten: u64,
    /// Chain rewrites skipped because compaction dropped nothing — no new
    /// blocks were written and no splice fences were issued.
    pub rewrites_skipped: u64,
    /// **Entries** carried over into a rewritten chain, summed over the
    /// compaction passes that rewrote (a pass that drops nothing rewrites
    /// nothing and counts nothing here).
    pub records_kept: u64,
    /// **Entries** dropped as stale across all compaction passes.
    pub records_dropped: u64,
    /// Log bytes (record headers + payload) reclaimed by compaction.
    pub bytes_reclaimed: u64,
    /// Simulated duration of the most recent cycle, in nanoseconds.
    pub last_cycle_ns: u64,
}

impl ReclaimStats {
    /// Difference `self - earlier`, for measuring a phase. Cumulative
    /// counters use saturating subtraction (crossed snapshots clamp to 0
    /// instead of wrapping); the gauge [`ReclaimStats::last_cycle_ns`] is
    /// carried over from `self` unchanged.
    #[must_use]
    pub fn delta_since(&self, earlier: &ReclaimStats) -> ReclaimStats {
        ReclaimStats {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            noop_cycles: self.noop_cycles.saturating_sub(earlier.noop_cycles),
            chains_scanned: self.chains_scanned.saturating_sub(earlier.chains_scanned),
            chains_skipped: self.chains_skipped.saturating_sub(earlier.chains_skipped),
            chains_rewritten: self.chains_rewritten.saturating_sub(earlier.chains_rewritten),
            rewrites_skipped: self.rewrites_skipped.saturating_sub(earlier.rewrites_skipped),
            records_kept: self.records_kept.saturating_sub(earlier.records_kept),
            records_dropped: self.records_dropped.saturating_sub(earlier.records_dropped),
            bytes_reclaimed: self.bytes_reclaimed.saturating_sub(earlier.bytes_reclaimed),
            last_cycle_ns: self.last_cycle_ns,
        }
    }
}

/// Per-chain scan cache: the committed records of the chain as of the
/// watermark, and where the next scan picks up. Volatile, like the index —
/// rebuilt after a crash.
#[derive(Debug, Default)]
struct ChainCache {
    /// The chain's `(head, generation)` when it was last scanned, and
    /// where that scan stopped: the position just past the last committed
    /// record, from which the next scan reads the suffix. `None` forces a
    /// parse from `head`.
    scanned: Option<((usize, u64), Cursor)>,
    /// The chain's committed records, encoded back to back exactly as the
    /// chain stores them.
    encoded: Vec<u8>,
}

/// Volatile state carried across reclamation cycles: the persistent
/// freshness index, per-chain record caches with change watermarks and
/// suffix cursors, and the observability counters. See the module docs for
/// why reusing all of this across cycles is sound.
#[derive(Debug, Default)]
pub struct ReclaimState {
    index: FreshnessIndex,
    chains: Vec<ChainCache>,
    /// Cycle counters, surfaced through the runtimes' observability APIs.
    pub stats: ReclaimStats,
    /// The open cycle's start on the simulated and the host clock.
    cycle_start: Option<(u64, Instant)>,
}

/// The steps of a reclamation cycle both runtimes share. A cycle scans
/// every chain (`ReclaimState::scan_chain`), rewrites the ones whose
/// compaction drops something (`ReclaimState::rewrite_chain`) and, once
/// the caller has persisted a rewrite and swapped the chain's head pointer
/// to it — which is where a background reclamator and a fencing daemon
/// differ — records the splice (`ReclaimState::spliced`).
impl ReclaimState {
    /// Opens a cycle over `chains` chains at simulated time `sim_now`.
    pub(crate) fn begin_cycle(&mut self, chains: usize, sim_now: u64) {
        if self.chains.len() < chains {
            self.chains.resize_with(chains, ChainCache::default);
        }
        self.stats.cycles += 1;
        // Host wall-clock for the telemetry histogram; cycles are rare, so
        // an unconditional `Instant::now()` is well within budget.
        self.cycle_start = Some((sim_now, Instant::now()));
    }

    /// Reads what chain `tid` gained since its `(head, generation)`
    /// watermark was cached — the suffix behind the cursor, or the whole
    /// chain when `head` is not the cached one — appending the records to
    /// the cache and folding them into the persistent freshness index (the
    /// index is volatile and rebuilt from the log after a crash; it needs
    /// no crash consistency of its own). Returns whether the watermark had
    /// moved; when no chain's had in a cycle, the index is exactly what the
    /// previous cycle left, every chain it left fully fresh still is, and
    /// the cycle can end as a no-op.
    pub(crate) fn scan_chain<B: ByteSource>(
        &mut self,
        src: &B,
        tid: usize,
        area: &LogArea,
        block_bytes: usize,
    ) -> bool {
        let mark = (area.head(), area.generation());
        let chain = &mut self.chains[tid];
        let mut reader = match chain.scanned {
            Some((cached, _)) if cached == mark => return false,
            Some(((head, _), cursor)) if head == mark.0 => {
                RecordReader::resume(src, cursor, block_bytes)
            }
            _ => {
                chain.encoded.clear();
                RecordReader::new(src, mark.0, block_bytes)
            }
        };
        while let Some(rec) = reader.next() {
            for e in rec.entries() {
                self.index.insert(rec.ts, e.addr, e.value.len());
            }
            chain.encoded.extend_from_slice(rec.bytes());
        }
        chain.scanned = Some((mark, reader.cursor()));
        self.stats.chains_scanned += 1;
        true
    }

    /// Compacts chain `tid`'s cached records against the index (freshness
    /// uses committed records of *all* threads). If that drops at least
    /// one entry, writes the kept records plus a terminator into a fresh
    /// chain from `store`, pushes the ranges to persist onto `dirty`, and
    /// returns the new area and the number of entries dropped. `None`
    /// means the chain is fully fresh: no new blocks, no splice.
    pub(crate) fn rewrite_chain<S: LogStore>(
        &mut self,
        store: &mut S,
        tid: usize,
        block_bytes: usize,
        dirty: &mut Vec<(usize, usize)>,
    ) -> Option<(LogArea, u64)> {
        let chain = &mut self.chains[tid];
        let before = chain.encoded.len();
        let (kept, dropped) = self.index.compact_encoded(&mut chain.encoded);
        if dropped == 0 {
            self.stats.rewrites_skipped += 1;
            return None;
        }
        // The cache now describes the new chain; until `spliced` says the
        // head pointer names it, a scan must not trust the cache.
        chain.scanned = None;
        self.stats.records_dropped += dropped;
        self.stats.records_kept += kept;
        self.stats.bytes_reclaimed += (before - chain.encoded.len()) as u64;
        let mut area = LogArea::create(store, block_bytes, dirty);
        for rec in encoded_records(&chain.encoded) {
            area.append(store, rec.bytes(), dirty);
        }
        area.write_terminator(store, dirty);
        Some((area, dropped))
    }

    /// Chain `tid`'s head pointer now names the rewritten `area`, whose
    /// records are what [`Self::rewrite_chain`] left in the cache: the
    /// next scan reads only what is appended behind its tail.
    pub(crate) fn spliced(&mut self, tid: usize, area: &LogArea) {
        self.stats.chains_rewritten += 1;
        self.chains[tid].scanned = Some(((area.head(), area.generation()), area.tail()));
    }

    /// Closes the open cycle at simulated time `sim_now` on `tid`'s
    /// telemetry shard; returns the cycle's simulated duration.
    pub(crate) fn end_cycle(&mut self, sim_now: u64, tel: &Telemetry, tid: usize) -> u64 {
        let (sim0, host0) = self.cycle_start.take().expect("end of a cycle never begun");
        self.stats.last_cycle_ns = sim_now - sim0;
        let host_ns = u64::try_from(host0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tel.registry.record(tid, Phase::ReclaimCycle, host_ns);
        self.stats.last_cycle_ns
    }

    /// Drops all cached state (index, caches and watermarks), e.g. after
    /// [`switch-out`](crate::runtime::SpecSpmt::switch_out) truncates the
    /// log. Counters are preserved.
    pub fn reset(&mut self) {
        self.index = FreshnessIndex::default();
        self.chains.clear();
    }

    /// The persistent freshness index.
    pub fn index(&self) -> &FreshnessIndex {
        &self.index
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::{
        encode_record, parse_chain, LogEntry, LogRecord, PoolStore, RecordRef, BLOCK_HDR,
    };
    use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool, SplitMix64};

    impl ReclaimState {
        /// Chain `tid`'s cached records, decoded.
        pub(crate) fn cached_chain(&self, tid: usize) -> Vec<LogRecord> {
            encoded_records(&self.chains[tid].encoded).map(RecordRef::to_record).collect()
        }

        /// Chain `tid`'s cached records as the cache holds them.
        pub(crate) fn cached_bytes(&self, tid: usize) -> &[u8] {
            &self.chains[tid].encoded
        }
    }

    /// An index fed every entry of `records`.
    fn index_of<'a>(records: impl IntoIterator<Item = &'a LogRecord>) -> FreshnessIndex {
        let mut idx = FreshnessIndex::default();
        for rec in records {
            for e in &rec.entries {
                idx.insert(rec.ts, e.addr, e.value.len());
            }
        }
        idx
    }

    /// `rec` cut down to the entries `idx` calls fresh, if any is.
    fn fresh_part(idx: &FreshnessIndex, rec: &LogRecord) -> Option<LogRecord> {
        let fresh = |e: &&LogEntry| idx.is_fresh(rec.ts, e.addr, e.value.len());
        let entries: Vec<LogEntry> = rec.entries.iter().filter(fresh).cloned().collect();
        (!entries.is_empty()).then_some(LogRecord { ts: rec.ts, entries })
    }

    /// What a cycle must leave of `chains` (every chain's committed
    /// records), decided the slow way: an index built from scratch over
    /// exactly these records, each record cloned down to its fresh entries.
    pub(crate) fn reference_compaction(chains: &[Vec<LogRecord>]) -> Vec<Vec<LogRecord>> {
        let index = index_of(chains.iter().flatten());
        chains
            .iter()
            .map(|recs| recs.iter().filter_map(|r| fresh_part(&index, r)).collect())
            .collect()
    }

    /// `records` as a chain stores them.
    pub(crate) fn encode_all(records: &[LogRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_record).collect()
    }

    fn rec(ts: u64, addr: usize, value: &[u8]) -> LogRecord {
        LogRecord { ts, entries: vec![LogEntry { addr, value: value.to_vec() }] }
    }

    #[test]
    fn younger_record_stales_older() {
        let idx = index_of([&rec(1, 0, &[1, 1]), &rec(2, 0, &[2, 2])]);
        assert!(!idx.is_fresh(1, 0, 2));
        assert!(idx.is_fresh(2, 0, 2));
    }

    #[test]
    fn partial_overlap_keeps_older_entry() {
        // ts 1 covers [0, 4); ts 2 only covers [0, 2): ts 1 still owns bytes 2-3.
        let idx = index_of([&rec(1, 0, &[1; 4]), &rec(2, 0, &[2; 2])]);
        assert!(idx.is_fresh(1, 0, 4));
    }

    #[test]
    fn cross_thread_coverage_counts() {
        // Records from different threads are just records with a global ts.
        let idx = index_of([&rec(3, 64, &[1; 8]), &rec(9, 64, &[2; 8])]);
        assert!(!idx.is_fresh(3, 64, 8));
    }

    #[test]
    fn multi_entry_record_partially_compacts() {
        let r1 = LogRecord {
            ts: 1,
            entries: vec![
                LogEntry { addr: 0, value: vec![1] },
                LogEntry { addr: 8, value: vec![1] },
            ],
        };
        let idx = index_of([&r1, &rec(2, 0, &[2])]);
        let kept = fresh_part(&idx, &r1).unwrap();
        assert_eq!(kept.entries, r1.entries[1..]);
    }

    #[test]
    fn newest_ts_lookup() {
        let idx = index_of([&rec(7, 100, &[1])]);
        assert_eq!(idx.newest_ts(100), Some(7));
        assert_eq!(idx.newest_ts(101), None);
        assert_eq!(idx.tracked_bytes(), 1);
    }

    /// The index's point: a tracked word is one 16-byte hash value, not
    /// eight timestamps.
    #[test]
    fn a_word_is_sixteen_bytes() {
        assert!(std::mem::size_of::<Word>() <= 16);
    }

    #[test]
    fn timestamp_zero_is_tracked_not_absent() {
        let idx = index_of([&rec(0, 16, &[1; 8])]);
        assert_eq!(idx.newest_ts(16), Some(0));
        assert_eq!(idx.newest_ts(24), None);
        assert!(idx.is_fresh(0, 16, 8), "nothing younger than itself");
        assert!(idx.is_fresh(0, 20, 8), "bytes 24..28 are untracked");
        assert!(!idx.is_fresh(0, 16, 0), "an empty entry owns no byte");
    }

    /// In-place compaction of encoded records agrees with filtering owned
    /// records entry by entry through `is_fresh`, byte for byte, whether a
    /// record survives whole (moved verbatim), in part (re-headed) or not
    /// at all.
    #[test]
    fn compact_encoded_matches_per_entry_is_fresh() {
        for seed in 0u64..64 {
            let mut rng = SplitMix64::new(seed ^ 0xE1C0DE);
            let records: Vec<LogRecord> = (0..rng.range_usize(1, 24))
                .map(|i| LogRecord {
                    ts: 1 + i as u64,
                    entries: (0..rng.range_usize(1, 4))
                        .map(|_| {
                            let len = rng.range_usize(0, 20);
                            let addr = rng.range_usize(0, 96);
                            LogEntry { addr, value: (0..len).map(|_| rng.next_u8()).collect() }
                        })
                        .collect(),
                })
                .collect();
            let idx = index_of(&records);
            let want: Vec<LogRecord> = records.iter().filter_map(|r| fresh_part(&idx, r)).collect();
            let entries = |recs: &[LogRecord]| recs.iter().map(|r| r.entries.len() as u64).sum();
            let (want_kept, all): (u64, u64) = (entries(&want), entries(&records));
            let mut buf = encode_all(&records);
            let (kept, dropped) = idx.compact_encoded(&mut buf);
            assert_eq!((kept, dropped), (want_kept, all - want_kept), "seed={seed}");
            assert_eq!(buf, encode_all(&want), "seed={seed}");
        }
    }

    /// `ReclaimState` over one hand-built chain: an unchanged watermark is
    /// not read, a moved one reads only the suffix, a rewrite leaves the
    /// cache describing the new chain, and `reset` forgets everything.
    #[test]
    fn scan_reads_only_the_suffix_and_rewrite_rebases_the_cursor() {
        const BB: usize = 128;
        let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20).untimed()));
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area = LogArea::create(&mut PoolStore::new(&mut pool, &mut free), BB, &mut dirty);
        fn append(area: &mut LogArea, pool: &mut PmemPool, free: &mut Vec<usize>, r: &LogRecord) {
            let mut store = PoolStore::new(pool, free);
            area.append(&mut store, &encode_record(r), &mut Vec::new());
            area.write_terminator(&mut store, &mut Vec::new());
        }
        let mut st = ReclaimState::default();
        st.begin_cycle(1, 0);

        // Three records, the third spilling over a block boundary.
        let first = [rec(1, 0, &[1; 8]), rec(2, 8, &[2; 8]), rec(3, 64, &[3; 90])];
        for r in &first {
            append(&mut area, &mut pool, &mut free, r);
        }
        assert!(st.scan_chain(pool.device(), 0, &area, BB));
        assert_eq!(st.cached_chain(0), first);
        assert!(!st.scan_chain(pool.device(), 0, &area, BB), "unchanged watermark");

        // Corrupt an already-scanned record in PM: a suffix scan never
        // re-reads the prefix, so the cache must keep the original.
        let hdr_of_first = area.head() + BLOCK_HDR;
        let saved = pool.device().peek(hdr_of_first, 4).to_vec();
        pool.device_mut().write(hdr_of_first, &[0; 4]);
        let later = [rec(4, 0, &[4; 8]), rec(5, 200, &[5; 3])];
        for r in &later {
            append(&mut area, &mut pool, &mut free, r);
        }
        assert!(st.scan_chain(pool.device(), 0, &area, BB));
        pool.device_mut().write(hdr_of_first, &saved);
        let all: Vec<LogRecord> = first.iter().chain(&later).cloned().collect();
        assert_eq!(st.cached_chain(0), all);
        assert_eq!(st.cached_chain(0), parse_chain(pool.device(), area.head(), BB));

        // ts 4 stales ts 1: the rewrite drops one entry and one record.
        let want = reference_compaction(std::slice::from_ref(&all)).remove(0);
        assert_eq!(want.len(), 4);
        let (new_area, dropped) = st
            .rewrite_chain(&mut PoolStore::new(&mut pool, &mut free), 0, BB, &mut dirty)
            .expect("one stale entry");
        assert_eq!(dropped, 1);
        assert_eq!(st.stats.records_kept, 4);
        assert_eq!(st.stats.bytes_reclaimed, (REC_HDR + ENTRY_HDR + 8) as u64);
        st.spliced(0, &new_area);
        area = new_area;
        assert_eq!(parse_chain(pool.device(), area.head(), BB), want);
        assert_eq!(st.cached_bytes(0), encode_all(&want));
        assert!(!st.scan_chain(pool.device(), 0, &area, BB), "spliced chain is current");

        // The cursor was re-based on the new chain's tail.
        let newest = rec(6, 8, &[6; 8]);
        append(&mut area, &mut pool, &mut free, &newest);
        assert!(st.scan_chain(pool.device(), 0, &area, BB));
        assert_eq!(st.cached_chain(0), parse_chain(pool.device(), area.head(), BB));
        assert_eq!(st.cached_chain(0).last(), Some(&newest));

        // ts 6 stales ts 2; after that rewrite the chain is fully fresh:
        // nothing dropped, nothing rewritten, the cache still current.
        let (new_area, dropped) = st
            .rewrite_chain(&mut PoolStore::new(&mut pool, &mut free), 0, BB, &mut dirty)
            .expect("one stale entry");
        assert_eq!(dropped, 1);
        st.spliced(0, &new_area);
        area = new_area;
        assert!(st
            .rewrite_chain(&mut PoolStore::new(&mut pool, &mut free), 0, BB, &mut dirty)
            .is_none());
        assert_eq!(st.stats.rewrites_skipped, 1);
        assert!(!st.scan_chain(pool.device(), 0, &area, BB));
        assert_eq!(st.cached_chain(0), parse_chain(pool.device(), area.head(), BB));

        st.reset();
        assert_eq!(st.index().tracked_bytes(), 0);
        st.begin_cycle(1, 0);
        assert!(st.scan_chain(pool.device(), 0, &area, BB), "reset forgets the watermark");
        assert_eq!(st.cached_chain(0), parse_chain(pool.device(), area.head(), BB));
    }
}
