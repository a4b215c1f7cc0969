//! Post-crash recovery for software SpecPMT.
//!
//! What recovery must do is simple (Section 3.1): walk every thread's log
//! chain from its persistent head pointer, keep only checksum-valid
//! (= committed) records, then replay all entries across threads in commit
//! timestamp order. Replaying effectively:
//!
//! * **redoes** committed transactions whose in-place data writes never
//!   reached PM (the speculative log holds the committed values), and
//! * **undoes** interrupted transactions whose in-place writes *did* reach
//!   PM (the freshest committed record for each byte is replayed last).
//!
//! Unreclaimed stale records may replay too; they are overwritten by
//! fresher records later in the order, which is harmless. Reading an image
//! without repairing it — chains and flight recorder — is [`crate::inspect`].
//!
//! [`recover_image`] is that paragraph as code and is **the reference**:
//! tests, `specpmt-check`'s smoke workloads (on every enumerated crash
//! image) and `benchmark/` compare against it, and nothing in production calls it. Every
//! runtime's `recover` runs the engine, [`recover_image_opts`].
//!
//! Both read chains through the one streaming parser
//! ([`crate::record`]'s `RecordReader`), one chain after another on the
//! calling thread, and replay borrowed entries: nothing is allocated per
//! record or entry. The reference copies every chain into a buffer of
//! records encoded back to back. The engine reads records lent by the
//! image — each chain from its checkpoint anchor on where the anchor
//! holds — counts every record it reads, and copies into its one replay
//! buffer only the records that replay. Only [`committed_records`] — the
//! API for tools and tests — materialises owned [`LogRecord`]s.
//!
//! # The engine
//!
//! [`recover_image_opts`] produces a **bit-identical** image to the
//! reference, with less work, via three levers:
//!
//! * **Timestamp merge with a deterministic tie-break** — a chain's
//!   records are already timestamp-sorted (a chain's timestamps are issued
//!   in append order from the global counter), so a k-way merge on the
//!   key `(ts, chain index)` reproduces the reference order exactly: the
//!   reference concatenates chains in ascending `tid` order and stable-
//!   sorts by `ts`, which leaves equal timestamps in ascending chain
//!   order. See [`committed_records`] for the tie-break contract.
//! * **Last-writer-wins replay** — the merged sequence is applied in
//!   *reverse* with a byte-claim bitmap (`fold_last_writer_wins`, a
//!   bitmap word per step): a byte is written by the last record that
//!   touches it and every superseded (stale) store is skipped instead of
//!   copied. Same final image, bytes written once.
//! * **A checkpoint** (written by `SpecSpmtShared::write_checkpoint`
//!   through the same fold, head persisted in the layout descriptor)
//!   bounds how much log must replay at all: it snapshots the
//!   last-writer-wins state of every record with `ts <= watermark`, so
//!   recovery replays the checkpoint's runs plus only the records above
//!   the watermark. A torn or unparsable checkpoint silently degrades to
//!   the full replay — the checkpoint is purely redundant state.
//! * **The seek** — the checkpoint bounds the parse too, not just the
//!   replay. Its frame carries one *anchor* per chain (`Anchor`: where
//!   the chain's last record at or below the watermark started, with that
//!   record's timestamp and checksum). For each anchored chain, `seek`
//!   walks forward pointers from the chain's *live* head to the anchor's
//!   block (block hops only, within the reader's cycle guard), checks
//!   through the one reader that the record there carries the anchor's
//!   timestamp and checksum, and resumes just past it: the records before
//!   it are never read. Everything else — an anchor whose block a
//!   reclamation splice took off the chain (its bytes still intact),
//!   bytes that no longer match, an anchor out of bounds or absent —
//!   reads that chain from its head, dropping the records at or below the
//!   watermark as they come. The runtime keeps an anchored block that a
//!   splice took off its chain off the free list while the anchor is
//!   durable (`SpecSpmtShared::write_checkpoint`), so a block found on the
//!   live chain never left it.
//!   The log itself is untouched, so the full replay
//!   ([`RecoveryOptions::without_checkpoint`]) and the reference still
//!   read all of it.
//!
//! Chains verify independently, so [`RecoveryReport::sim_ns`] models a
//! parse [`RecoveryOptions::parse_threads`] wide. The host parse is
//! serial: a threaded one was measured at three image sizes and never
//! reached the 1.5× that would have kept it (EXPERIMENTS.md).

use specpmt_pmem::{CrashImage, PmemConfig};

use crate::layout::PoolLayout;
use crate::record::{
    encoded_records, in_bounds, max_hops, parse_chain, read_chain_encoded, read_checkpoint, Anchor,
    Cursor, Entries, EntryRef, LogRecord, RecordReader, RecordRef, BLOCK_HDR,
};

/// Parses every thread's committed records from a crash image.
///
/// The pool's [`PoolLayout`] determines how many chains exist and where
/// their heads live.
/// Returns records sorted by commit timestamp (ascending). An image
/// without SpecPMT metadata yields no records.
///
/// # Tie-break contract
///
/// Records with **equal timestamps** (impossible from one live runtime,
/// whose timestamps come from a global atomic counter — but possible
/// across independently-written pools or hand-built images) are ordered
/// by **ascending chain index, then chain position**: chains are scanned
/// in `tid` order and the sort is stable. The k-way merge in
/// [`recover_image_opts`] reproduces this order bit-identically by
/// merging on the key `(ts, chain index)` — within one chain equal
/// timestamps keep append order. Recovery's final image depends on this
/// order, so it is a compatibility contract, not an implementation
/// detail.
pub fn committed_records(image: &CrashImage) -> Vec<LogRecord> {
    let Some(layout) = PoolLayout::read(image) else {
        return Vec::new();
    };
    let mut records = Vec::new();
    for tid in 0..layout.threads() {
        let head = layout.head(image, tid);
        if head != 0 {
            records.extend(parse_chain(image, head, layout.block_bytes()));
        }
    }
    records.sort_by_key(|r| r.ts);
    records
}

/// Repairs `image` in place by replaying all committed records in
/// timestamp order — **the reference**, not a production path: the
/// executable statement of what recovery means, which
/// [`recover_image_opts`] must (and, on every enumerated crash image, is
/// tested to) reproduce bit for bit. Called by tests, by `specpmt-check`'s
/// `crashsmoke::recover_and_check_equivalence` and by `benchmark/` only.
///
/// Same order as [`committed_records`] (chains in `tid` order, stable sort
/// by timestamp), over the records as the chains store them: nothing is
/// allocated per record or entry.
pub fn recover_image(image: &mut CrashImage) {
    let Some(layout) = PoolLayout::read(image) else {
        return;
    };
    let chains: Vec<Vec<u8>> = (0..layout.threads())
        .map(|tid| read_chain_encoded(image, layout.head(image, tid), layout.block_bytes()))
        .collect();
    let mut records: Vec<RecordRef> = chains.iter().flat_map(|c| encoded_records(c)).collect();
    records.sort_by_key(|r| r.ts);
    for rec in &records {
        for e in rec.entries() {
            if in_bounds(e.addr, e.value.len(), image.len()) {
                image.write_bytes(e.addr, e.value);
            }
        }
    }
}

/// Tuning for [`recover_image_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Width of the *modelled* parse phase (clamped to `1..=chains`): the
    /// busiest of that many round-robin workers is what
    /// [`RecoveryReport::sim_ns`] charges
    /// ([`RecoveryReport::parse_makespan_bytes`]). A parameter of the cost
    /// model and nothing else — the host reads the chains one after
    /// another on the calling thread whatever it says, and the image and
    /// every other report field do not depend on it.
    pub parse_threads: usize,
    /// Honour a persisted checkpoint record (skip records at or below its
    /// watermark). Off forces the full replay even when a checkpoint
    /// exists — the bench uses that to measure the bound.
    pub use_checkpoint: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self { parse_threads: 1, use_checkpoint: true }
    }
}

impl RecoveryOptions {
    /// Options with a `parse_threads`-wide modelled parse and the
    /// checkpoint honoured.
    #[must_use]
    pub fn parallel(parse_threads: usize) -> Self {
        Self { parse_threads, use_checkpoint: true }
    }

    /// Disables the checkpoint (full replay).
    #[must_use]
    pub fn without_checkpoint(mut self) -> Self {
        self.use_checkpoint = false;
        self
    }
}

/// What a [`recover_image_opts`] run did — the raw material of
/// `benchmark/`'s `recovery` workload and the source of the deterministic
/// time-to-recover goldens in `tests/recovery.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chain slots the layout exposed (the count the pool was formatted
    /// with).
    pub chains: usize,
    /// Chains that actually held committed records.
    pub chains_nonempty: usize,
    /// Modelled parse width (after clamping).
    pub parse_threads: usize,
    /// Committed records read across all chains: every record after a
    /// chain's anchor, the anchor itself, and every record of a chain read
    /// from its head.
    pub records_parsed: usize,
    /// Records replayed (above the checkpoint watermark, or all of them).
    pub records_replayed: usize,
    /// Records read but not replayed because a checkpoint already covers
    /// them: each seeked chain's anchor, and the records at or below the
    /// watermark of a chain read from its head.
    pub records_skipped_checkpoint: usize,
    /// Log bytes parsed (record headers + payloads), summed over chains.
    pub bytes_parsed: u64,
    /// Largest per-worker share of `bytes_parsed` under the round-robin
    /// chain partition — the parse phase's critical path. Equal-sized
    /// chains give `bytes_parsed / parse_threads`, i.e. linear speedup.
    pub parse_makespan_bytes: u64,
    /// Bytes actually stored into the image (each byte exactly once).
    pub bytes_replayed: u64,
    /// Entry bytes skipped as stale (superseded by a later writer).
    pub bytes_skipped_stale: u64,
    /// A checkpoint was parsed and honoured.
    pub checkpoint_used: bool,
    /// The honoured checkpoint's watermark (0 when none).
    pub checkpoint_watermark: u64,
    /// Runs the honoured checkpoint contributed.
    pub checkpoint_entries: usize,
    /// Chains read from their checkpoint anchor instead of their head.
    pub chains_seeked: usize,
    /// Forward pointers followed to look for anchors on the live chains,
    /// found or not.
    pub seek_hops: u64,
}

/// Deterministic cost model for the simulated time-to-recover, charging
/// what recovery reads: fixed restart overhead, parse cost on the
/// critical path (the slowest modelled worker), a dependent line read per
/// forward pointer the anchor seek follows, a per-record merge-and-apply
/// step for every record that enters the replay, a much cheaper
/// timestamp-compare visit for records read but not replayed, and
/// per-byte store cost. The constants are calibrated to the same order of
/// magnitude as the simulated device (≈1 ns/byte streaming reads, its
/// default PM line read per pointer hop, ≈100 ns of heap work per record) —
/// their exact values matter less than their determinism:
/// `tests/recovery.rs` pins the results as exact goldens and `benchmark/`
/// reports them as the bit-identical `sim_ns_per_op`.
const SIM_FIXED_NS: u64 = 2_000;
const SIM_PARSE_NS_PER_BYTE: u64 = 2;
/// A dependent line read: the device's default, not a copy of it.
const SIM_SEEK_NS_PER_HOP: u64 = PmemConfig::DEFAULT_LINE_READ_NS;
const SIM_MERGE_NS_PER_RECORD: u64 = 120;
const SIM_SKIP_NS_PER_RECORD: u64 = 10;
const SIM_REPLAY_NS_PER_BYTE: u64 = 4;

impl RecoveryReport {
    /// Simulated time-to-recover in nanoseconds under the model above.
    /// The modelled parse width shows up through [`Self::parse_makespan_bytes`];
    /// the checkpoint bound shows up twice: the parse term covers only the
    /// records read from each chain's anchor on, at the price of the seek's
    /// [`Self::seek_hops`], and the merge term moves from every parsed
    /// record to only [`Self::records_replayed`] (records read but not
    /// replayed pay just the watermark compare). The seek is charged
    /// serially, whatever the modelled width.
    pub fn sim_ns(&self) -> u64 {
        SIM_FIXED_NS
            + self.parse_makespan_bytes * SIM_PARSE_NS_PER_BYTE
            + self.seek_hops * SIM_SEEK_NS_PER_HOP
            + (self.records_skipped_checkpoint as u64) * SIM_SKIP_NS_PER_RECORD
            + self.replay_sim_ns()
    }

    /// The replay portion of [`Self::sim_ns`] (merge + byte stores) —
    /// the part a checkpoint bounds: with one, it depends only on the
    /// data written since the watermark, not on total log size.
    pub fn replay_sim_ns(&self) -> u64 {
        (self.records_replayed as u64) * SIM_MERGE_NS_PER_RECORD
            + self.bytes_replayed * SIM_REPLAY_NS_PER_BYTE
    }
}

/// What parsing chains of `chain_bytes` costs `workers` wide: the byte
/// total of the busiest worker under the deterministic round-robin
/// partition (worker `w` owns chains `w, w + workers, ...`).
fn parse_makespan(chain_bytes: &[u64], workers: usize) -> u64 {
    let mut per_worker = vec![0u64; workers];
    for (idx, bytes) in chain_bytes.iter().enumerate() {
        per_worker[idx % workers] += bytes;
    }
    per_worker.into_iter().max().unwrap_or(0)
}

/// K-way merge of per-chain record lists on the key `(ts, chain index)` —
/// bit-identical to [`committed_records`]' concatenate-then-stable-sort
/// order (see the tie-break contract there). `replay` holds the chains'
/// records encoded back to back; chain `i` ends at `ends[i]`.
fn merge_chains<'a>(replay: &'a [u8], ends: &[usize]) -> impl Iterator<Item = RecordRef<'a>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let starts = std::iter::once(0).chain(ends.iter().copied());
    let mut iters: Vec<_> =
        starts.zip(ends).map(|(start, &end)| encoded_records(&replay[start..end])).collect();
    // The head record of every chain that has one, keyed `(ts, chain)`.
    let mut heads: Vec<Option<RecordRef>> = iters.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<_> = heads
        .iter()
        .enumerate()
        .filter_map(|(idx, rec)| rec.map(|r| Reverse((r.ts, idx))))
        .collect();
    std::iter::from_fn(move || {
        let Reverse((_, idx)) = heap.pop()?;
        let rec = std::mem::replace(&mut heads[idx], iters[idx].next());
        if let Some(next) = heads[idx] {
            heap.push(Reverse((next.ts, idx)));
        }
        rec
    })
}

/// Repairs `image` in place — the one production replay: same result as
/// [`recover_image`], computed with a `(ts, chain)` merge, a
/// checkpoint-bounded record set read from each chain's anchor where it
/// holds, and last-writer-wins byte resolution. Returns the work report.
pub fn recover_image_opts(image: &mut CrashImage, opts: &RecoveryOptions) -> RecoveryReport {
    let mut report =
        RecoveryReport { parse_threads: opts.parse_threads.max(1), ..RecoveryReport::default() };
    let Some(layout) = PoolLayout::read(image) else {
        return report;
    };
    report.chains = layout.threads();

    // Checkpoint first: a torn/unparsable record degrades to full replay.
    let ckpt = if opts.use_checkpoint {
        read_checkpoint(image, layout.ckpt_head(image), layout.block_bytes())
    } else {
        None
    };

    // Every chain read one after another on this thread by one reader (a
    // record it must copy reuses one buffer), its records otherwise lent by
    // the image. A chain whose anchor holds is read from just past it —
    // everything before it is at or below the watermark, folded into the
    // checkpoint — and any other from its head. Every record read is
    // counted (the width only prices the parse), and only those that
    // replay — above the watermark, or all of them without a checkpoint —
    // are copied into the replay buffer, each chain's ending at its entry
    // of `ends`.
    let watermark = ckpt.as_ref().map(|c| c.watermark);
    let block_bytes = layout.block_bytes();
    let mut replay: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(layout.threads());
    let mut chain_bytes: Vec<u64> = Vec::with_capacity(layout.threads());
    let mut reader = RecordReader::new(&*image, 0, block_bytes);
    for tid in 0..layout.threads() {
        let head = layout.head(image, tid);
        let anchor = ckpt.as_ref().and_then(|c| c.anchors.get(tid).copied().flatten());
        let seeked = anchor
            .and_then(|a| seek(&mut reader, image, head, block_bytes, a, &mut report.seek_hops));
        let mut bytes = 0u64;
        match seeked {
            Some(anchor_bytes) => {
                report.chains_seeked += 1;
                report.records_parsed += 1;
                report.records_skipped_checkpoint += 1;
                bytes += anchor_bytes;
            }
            None => reader.restart(image, Cursor { block: head, pos: BLOCK_HDR }, block_bytes),
        }
        while let Some(rec) = reader.next() {
            report.records_parsed += 1;
            bytes += rec.bytes().len() as u64;
            if watermark.is_some_and(|mark| rec.ts <= mark) {
                report.records_skipped_checkpoint += 1;
            } else {
                replay.extend_from_slice(rec.bytes());
            }
        }
        chain_bytes.push(bytes);
        ends.push(replay.len());
    }
    report.parse_threads = opts.parse_threads.clamp(1, layout.threads().max(1));
    report.chains_nonempty = chain_bytes.iter().filter(|&&bytes| bytes > 0).count();
    report.bytes_parsed = chain_bytes.iter().sum();
    report.parse_makespan_bytes = parse_makespan(&chain_bytes, report.parse_threads);
    report.records_replayed = report.records_parsed - report.records_skipped_checkpoint;

    // Forward replay order: checkpoint runs (anything else supersedes
    // them), then the replayed records merged on `(ts, chain)`. Dropping
    // the records at or below the watermark `W` before the merge cannot
    // reorder the rest: on the heap of chain heads, a head with `ts <= W`
    // is smaller than every replayed record (all have `ts > W`), so it pops
    // as soon as it becomes a head. Whenever a replayed record pops, every
    // chain's head is therefore its next replayed record — the same heads,
    // under the same key, as in the merge of the replayed records alone.
    let mut forward: Vec<EntryRef> = Vec::new();
    if let Some(c) = &ckpt {
        report.checkpoint_used = true;
        report.checkpoint_watermark = c.watermark;
        forward.extend(Entries::new(&c.runs));
        report.checkpoint_entries = forward.len();
    }
    forward.extend(merge_chains(&replay, &ends).flat_map(|rec| rec.entries()));

    (report.bytes_replayed, report.bytes_skipped_stale) =
        fold_last_writer_wins(&forward, image.len(), |addr, bytes| image.write_bytes(addr, bytes));
    report
}

/// The seek: moves `reader` just past the record `anchor` names on the
/// chain at `head` and returns that record's length, or `None` when the
/// anchor does not hold there. It holds when
///
/// 1. `anchor.at.block` is on the *live* chain — found by following
///    forward pointers from `head`, block hops only, within the reader's
///    own cycle guard ([`max_hops`]) — and not merely a block a
///    reclamation splice took off it, which still holds the anchored
///    bytes (the runtime never hands such a block to a chain again while
///    its anchor is durable, so one on the live chain never left it); and
/// 2. the record the reader finds at `anchor.at` carries the anchor's
///    timestamp and checksum.
///
/// Then the record is the one the checkpoint saw: timestamps are unique,
/// and a chain's records are in timestamp order, so every record before it
/// on the chain is at or below the watermark and folded into the
/// checkpoint. Each pointer followed is added to `hops`.
fn seek<'a>(
    reader: &mut RecordReader<'a, CrashImage>,
    image: &'a CrashImage,
    head: usize,
    block_bytes: usize,
    anchor: Anchor,
    hops: &mut u64,
) -> Option<u64> {
    let mut block = head;
    for _ in 0..max_hops(image.len(), block_bytes) {
        if block == 0 || !in_bounds(block, block_bytes, image.len()) {
            return None;
        }
        let at = anchor.at();
        if block == at.block {
            reader.restart(image, at, block_bytes);
            let rec = reader.next()?;
            return (rec.anchor(at) == anchor).then_some(rec.bytes().len() as u64);
        }
        block = image.read_u64(block) as usize;
        *hops += 1;
    }
    None
}

/// The one last-writer-wins resolution, shared by replay and by
/// `SpecSpmtShared::write_checkpoint`: walks `forward` (entries in replay
/// order, oldest first) in reverse, claims their bytes in a bitmap, and
/// hands `emit` every run of bytes no later entry wrote — each byte at
/// most once, runs disjoint, ascending within an entry and in no address
/// order across entries. The reference replay drops any entry that does
/// not fit the `size`-byte image, so the same bounds check is applied
/// *before* claiming.
///
/// The bitmap covers the 64-byte lines the claimable entries span, found
/// in a first pass over them, not the whole pool: a replay of a short tail
/// into a large image allocates for what the tail wrote.
///
/// An entry is claimed a bitmap word (64 bytes) per step: a word whose
/// bytes are all unclaimed extends the current run, one whose bytes are
/// all claimed ends it, and only a word mixing both is walked bit by bit —
/// the runs emitted are exactly those of a per-byte walk.
///
/// Returns `(bytes emitted, entry bytes skipped as stale)`.
pub(crate) fn fold_last_writer_wins<'a>(
    forward: &[EntryRef<'a>],
    size: usize,
    mut emit: impl FnMut(usize, &'a [u8]),
) -> (u64, u64) {
    let claimable =
        |e: &&EntryRef<'a>| !e.value.is_empty() && in_bounds(e.addr, e.value.len(), size);
    // The span's first byte and the byte past its end.
    let (start, stop) = forward
        .iter()
        .filter(claimable)
        .fold((usize::MAX, 0), |(s, t), e| (s.min(e.addr), t.max(e.addr + e.value.len())));
    let first_word = start / 64;
    let (mut emitted, mut stale) = (0u64, 0u64);
    let mut claimed = vec![0u64; stop.div_ceil(64).saturating_sub(first_word)];
    for e in forward.iter().rev().filter(claimable) {
        let end = e.addr + e.value.len();
        // Start address of the run of unclaimed bytes being gathered.
        let mut run: Option<usize> = None;
        let mut close = |run: &mut Option<usize>, at: usize| {
            if let Some(start) = run.take() {
                emitted += (at - start) as u64;
                emit(start, &e.value[start - e.addr..at - e.addr]);
            }
        };
        let mut at = e.addr;
        while at < end {
            let (word, lo) = (at / 64, at % 64);
            let n = (64 - lo).min(end - at);
            let mask = (u64::MAX >> (64 - n)) << lo;
            let bits = &mut claimed[word - first_word];
            let fresh = mask & !*bits;
            *bits |= mask;
            stale += u64::from((mask ^ fresh).count_ones());
            if fresh == mask {
                run.get_or_insert(at);
            } else if fresh == 0 {
                close(&mut run, at);
            } else {
                for bit in lo..lo + n {
                    if fresh >> bit & 1 == 1 {
                        run.get_or_insert(word * 64 + bit);
                    } else {
                        close(&mut run, word * 64 + bit);
                    }
                }
            }
            at += n;
        }
        close(&mut run, end);
    }
    (emitted, stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;

    #[test]
    fn non_specpmt_image_is_untouched() {
        let mut img = CrashImage::new(vec![0xCD; 4096]);
        let before = img.clone();
        recover_image(&mut img);
        assert_eq!(img, before);
        let mut img2 = before.clone();
        let report = recover_image_opts(&mut img2, &RecoveryOptions::parallel(4));
        assert_eq!(img2, before);
        assert_eq!(report, RecoveryReport { parse_threads: 4, ..RecoveryReport::default() });
    }

    #[test]
    fn empty_pool_image_recovers_to_itself() {
        let pool = specpmt_pmem::PmemPool::create(specpmt_pmem::PmemDevice::new(
            specpmt_pmem::PmemConfig::new(1 << 16),
        ));
        let mut img = pool.device().capture(specpmt_pmem::CrashPolicy::AllSurvive);
        let before = img.clone();
        recover_image(&mut img);
        assert_eq!(img, before);
        let mut img2 = before.clone();
        recover_image_opts(&mut img2, &RecoveryOptions::default());
        assert_eq!(img2, before);
    }

    /// The reference and the engine replay the chains as stored; the owned
    /// parse of [`committed_records`], replayed entry by entry, is what
    /// they must reproduce — image and byte counts alike. The full replay
    /// reads every record; the checkpointed one reads each chain from its
    /// anchor — the chain's last record at or below the watermark — on.
    #[test]
    fn both_paths_agree_with_a_replay_of_the_owned_records() {
        use crate::record::REC_HDR;
        let (shared, mark) = crate::concurrent::tests::overlapping_three_chain_history(25);
        let img = shared.device().capture(specpmt_pmem::CrashPolicy::AllLost);
        let records = committed_records(&img);
        let mut want = img.clone();
        for e in records.iter().flat_map(|r| &r.entries) {
            want.write_bytes(e.addr, &e.value);
        }
        assert!(want != img, "recovery has something to repair");

        let mut reference = img.clone();
        recover_image(&mut reference);
        assert!(reference == want, "the reference");
        let layout = PoolLayout::read(&img).expect("formatted");
        let from_anchors: Vec<LogRecord> = (0..layout.threads())
            .flat_map(|tid| {
                let chain = parse_chain(&img, layout.head(&img, tid), layout.block_bytes());
                let anchor = chain.iter().rposition(|r| r.ts <= mark).expect("an anchor");
                chain[anchor..].to_vec()
            })
            .collect();
        let bytes_of = |recs: &[LogRecord]| -> u64 {
            recs.iter().map(|r| (REC_HDR + r.payload_len()) as u64).sum()
        };
        let above = records.iter().filter(|r| r.ts > mark).count();
        for opts in [
            RecoveryOptions::default(),
            RecoveryOptions::parallel(2),
            RecoveryOptions::default().without_checkpoint(),
        ] {
            let mut got = img.clone();
            let report = recover_image_opts(&mut got, &opts);
            assert!(got == want, "{opts:?}");
            assert_eq!(report.checkpoint_used, opts.use_checkpoint);
            let read: &[LogRecord] = if opts.use_checkpoint { &from_anchors } else { &records };
            assert_eq!(report.records_parsed, read.len(), "{opts:?}");
            assert_eq!(report.bytes_parsed, bytes_of(read), "{opts:?}");
            assert_eq!(
                report.records_replayed,
                if opts.use_checkpoint { above } else { records.len() }
            );
            assert_eq!(report.records_replayed + report.records_skipped_checkpoint, read.len());
            assert_eq!(report.chains_seeked, if opts.use_checkpoint { 3 } else { 0 });
        }
    }

    /// The per-byte walk [`fold_last_writer_wins`] replaced, kept as its
    /// specification: claim byte by byte, emit each run of unclaimed bytes
    /// as it ends.
    fn per_byte_fold<'a>(
        forward: &[EntryRef<'a>],
        size: usize,
        mut emit: impl FnMut(usize, &'a [u8]),
    ) -> (u64, u64) {
        let (mut emitted, mut stale) = (0u64, 0u64);
        let mut emit = |addr: usize, bytes: &'a [u8]| {
            emitted += bytes.len() as u64;
            emit(addr, bytes);
        };
        let mut claimed = vec![0u64; size.div_ceil(64)];
        for e in forward.iter().rev() {
            if e.value.is_empty() || !in_bounds(e.addr, e.value.len(), size) {
                continue;
            }
            let mut run_start: Option<usize> = None;
            for i in 0..e.value.len() {
                let (word, bit) = ((e.addr + i) / 64, (e.addr + i) % 64);
                if claimed[word] & (1 << bit) == 0 {
                    claimed[word] |= 1 << bit;
                    run_start.get_or_insert(i);
                    continue;
                }
                stale += 1;
                if let Some(s) = run_start.take() {
                    emit(e.addr + s, &e.value[s..i]);
                }
            }
            if let Some(s) = run_start {
                emit(e.addr + s, &e.value[s..]);
            }
        }
        (emitted, stale)
    }

    /// On seeded entry sets — unaligned, word-straddling, whole-word,
    /// nested in or equal to or covering an earlier entry, zero-length and
    /// out of bounds — the word-at-a-time fold emits the per-byte fold's
    /// runs, in its order, and the same counts: at the bottom of a small
    /// pool, and at an unaligned base far into a large one, where the claim
    /// bitmap covers only the lines the entries span.
    #[test]
    fn word_fold_emits_exactly_the_per_byte_folds_runs() {
        const SPAN: usize = 1000;
        for (base, size) in [(0, SPAN), ((1 << 20) + 37, (1 << 20) + 37 + SPAN)] {
            for seed in 0..400u64 {
                let mut rng = specpmt_pmem::SplitMix64::new(seed ^ 0xf01d);
                let mut spans: Vec<(usize, usize)> = Vec::new();
                for _ in 0..rng.range_usize(1, 40) {
                    let earlier = spans.get(rng.range_usize(0, spans.len())).copied();
                    let span = match (rng.below(8), earlier) {
                        (0, _) => (64 * rng.range_usize(0, 14), 64 * rng.range_usize(1, 2)),
                        (1, Some((a, l))) => (a, l),
                        (2, Some((a, l))) => {
                            let at = rng.range_usize(0, l);
                            (a.saturating_add(at), rng.range_usize(0, l - at))
                        }
                        (3, Some((a, l))) => {
                            let pad = rng.range_usize(1, 70);
                            (a.saturating_sub(pad), l + 2 * pad)
                        }
                        (4, _) => (rng.range_usize(0, SPAN), 0),
                        (5, _) => [(SPAN - 3, 10), (usize::MAX - 2, 8)][rng.range_usize(0, 1)],
                        _ => (rng.range_usize(0, SPAN - 1), rng.range_usize(1, 150)),
                    };
                    spans.push(span);
                }
                let values: Vec<Vec<u8>> = spans
                    .iter()
                    .map(|&(_, len)| (0..len).map(|_| rng.next_u8()).collect())
                    .collect();
                let forward: Vec<EntryRef> = spans
                    .iter()
                    .zip(&values)
                    .map(|(&(addr, _), value)| EntryRef { addr: addr.saturating_add(base), value })
                    .collect();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let got_counts = fold_last_writer_wins(&forward, size, |a, b| got.push((a, b)));
                let want_counts = per_byte_fold(&forward, size, |a, b| want.push((a, b)));
                assert_eq!(got, want, "base {base} seed {seed}: {spans:?}");
                assert_eq!(got_counts, want_counts, "base {base} seed {seed}: {spans:?}");
            }
        }
    }

    /// Seeded mutations of a crash image — bit flips in chain heads,
    /// forward pointers, record lengths, timestamps, checksums and
    /// payloads and the checkpoint header and anchor table, and truncation
    /// — read the same through a source that lends and one that never
    /// does, and recover to the reference's image without panicking. The
    /// engine's full replay must equal the reference every time; with the
    /// checkpoint honoured it must whenever the checkpoint is rejected (a
    /// record torn below the watermark may differ, since the checkpoint
    /// still holds what the reference loses behind it, and a chain read
    /// from its anchor never reads that record at all). The engine's parse
    /// accounting is checked against a model built on the full parse of
    /// each chain, exactly wherever every anchor is reached.
    #[test]
    fn lending_and_copying_readers_agree_on_garbage() {
        use crate::record::tests::CopyOnly;
        use crate::record::{Anchor, ByteSource, CheckpointHeader, RecordHeader, REC_HDR};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// A chain's records as read through `src`, and where reading stopped.
        fn chain<S: ByteSource>(src: &S, head: usize, bb: usize) -> (Vec<Vec<u8>>, Cursor) {
            let mut reader = RecordReader::new(src, head, bb);
            let mut records = Vec::new();
            while let Some(rec) = reader.next() {
                records.push(rec.bytes().to_vec());
            }
            (records, reader.cursor())
        }

        let (shared, _) = crate::concurrent::tests::overlapping_three_chain_history(20);
        let base = shared.device().capture(specpmt_pmem::CrashPolicy::AllLost);
        let layout = PoolLayout::read(&base).expect("formatted");
        let bb = layout.block_bytes();

        // Every byte a mutation may hit, with what it holds.
        let mut targets: Vec<(&str, usize)> = Vec::new();
        let ckpt = layout.ckpt_head(&base);
        let table = 4 + layout.threads() * Anchor::LEN;
        targets.extend(
            (0..CheckpointHeader::LEN + table)
                .map(|off| ("checkpoint header or anchor", ckpt + BLOCK_HDR + off)),
        );
        for tid in 0..layout.threads() {
            targets.extend((0..8).map(|off| ("head", layout.head_addr(tid) + off)));
            let mut block = layout.head(&base, tid);
            while block != 0 {
                targets.extend((0..8).map(|off| ("forward pointer", block + off)));
                block = base.read_u64(block) as usize;
            }
            // Image address of byte `off` of the record starting at `at`.
            let addr_of = |at: Cursor, off: usize| {
                let (mut block, mut pos) = (at.block, at.pos + off);
                while pos >= bb {
                    (block, pos) = (base.read_u64(block) as usize, pos - bb + BLOCK_HDR);
                }
                block + pos
            };
            let mut reader = RecordReader::new(&base, layout.head(&base, tid), bb);
            loop {
                let at = reader.cursor();
                let Some(len) = reader.next().map(|rec| rec.payload().len()) else { break };
                let fields = RecordHeader::FIELDS.iter().map(|f| (f.name, f.offset, f.width));
                for (what, from, n) in fields.chain([("payload", REC_HDR, len)]) {
                    targets.extend((from..from + n).map(|off| (what, addr_of(at, off))));
                }
            }
        }
        let extent = targets.iter().map(|&(_, a)| a).max().expect("targets") + bb;

        let mut seeked_and_modelled = 0;
        for seed in 0..2_000u64 {
            let mut rng = specpmt_pmem::SplitMix64::new(seed);
            let mut img = base.clone();
            let mut what = Vec::new();
            if rng.below(8) == 0 {
                let len = rng.range_usize(0, extent);
                img = CrashImage::new(base.as_bytes()[..len].to_vec());
                what.push(format!("truncated to {len}"));
            } else {
                for _ in 0..rng.range_usize(1, 3) {
                    let (kind, addr) = targets[rng.range_usize(0, targets.len() - 1)];
                    let bit = rng.below(8);
                    img.as_bytes_mut()[addr] ^= 1 << bit;
                    what.push(format!("{kind} byte {addr:#x} bit {bit}"));
                }
            }
            let checked = catch_unwind(AssertUnwindSafe(|| {
                if let Some(layout) = PoolLayout::read(&img) {
                    let bb = layout.block_bytes();
                    for tid in 0..layout.threads() {
                        let head = layout.head(&img, tid);
                        let copied = chain(&CopyOnly(&img), head, bb);
                        assert_eq!(chain(&img, head, bb), copied, "chain {tid}");
                    }
                    let ckpt = layout.ckpt_head(&img);
                    assert_eq!(
                        read_checkpoint(&img, ckpt, layout.block_bytes()),
                        read_checkpoint(&CopyOnly(&img), ckpt, layout.block_bytes()),
                    );
                }
                let mut reference = img.clone();
                recover_image(&mut reference);
                let mut full = img.clone();
                let full_report =
                    recover_image_opts(&mut full, &RecoveryOptions::default().without_checkpoint());
                assert!(full == reference, "the full replay differs from the reference");
                let mut engine = img.clone();
                let report = recover_image_opts(&mut engine, &RecoveryOptions::default());
                assert!(
                    report.checkpoint_used || engine == reference,
                    "no checkpoint, yet differs"
                );
                // The seek's accounting, modelled on the full parse of each
                // chain: one whose full parse reaches its anchor's record
                // (same timestamp and checksum) is read from that record on
                // — it, then what the full parse reads after it — and any
                // other as the full parse reads it. Where every anchor is
                // reached, the engine replays exactly the records the full
                // parse holds above the watermark. A record torn below an
                // anchor leaves it unreached, and a seek past the tear reads
                // records the full parse never sees: there, the reached
                // chains must still seek.
                assert_eq!(
                    report.records_replayed + report.records_skipped_checkpoint,
                    report.records_parsed
                );
                let Some(layout) = PoolLayout::read(&img) else {
                    return false;
                };
                let bb = layout.block_bytes();
                let ckpt = read_checkpoint(&img, layout.ckpt_head(&img), bb);
                assert_eq!(report.checkpoint_used, ckpt.is_some());
                let (watermark, anchors) =
                    ckpt.map_or((0, Vec::new()), |c| (c.watermark, c.anchors));
                let word = |rec: &[u8], at: usize| {
                    u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"))
                };
                let (mut reached, mut all_reached) = (0, true);
                let (mut parsed, mut bytes, mut replayed, mut nonempty) = (0, 0, 0, 0);
                let (mut full_parsed, mut full_bytes) = (0, 0);
                for tid in 0..layout.threads() {
                    let (records, _) = chain(&img, layout.head(&img, tid), bb);
                    full_parsed += records.len();
                    full_bytes += records.iter().map(|r| r.len() as u64).sum::<u64>();
                    let anchor = anchors.get(tid).copied().flatten();
                    let from = anchor.and_then(|a| {
                        records.iter().position(|r| (word(r, 4), word(r, 12)) == (a.ts, a.checksum))
                    });
                    all_reached &= anchor.is_none() || from.is_some();
                    reached += usize::from(from.is_some());
                    let read = &records[from.unwrap_or(0)..];
                    parsed += read.len();
                    bytes += read.iter().map(|r| r.len() as u64).sum::<u64>();
                    nonempty += usize::from(!read.is_empty());
                    replayed += records
                        .iter()
                        .filter(|r| !report.checkpoint_used || word(r, 4) > watermark)
                        .count();
                }
                assert_eq!(
                    (full_report.records_parsed, full_report.bytes_parsed),
                    (full_parsed, full_bytes)
                );
                if !all_reached {
                    assert!(report.chains_seeked >= reached, "a reached anchor was not seeked");
                    return false;
                }
                assert_eq!(
                    (
                        report.chains_seeked,
                        report.records_parsed,
                        report.bytes_parsed,
                        report.records_replayed,
                        report.chains_nonempty
                    ),
                    (reached, parsed, bytes, replayed, nonempty)
                );
                report.chains_seeked > 0
            }));
            match checked {
                Ok(seeked_exactly) => seeked_and_modelled += usize::from(seeked_exactly),
                Err(panic) => {
                    let msg = panic.downcast_ref::<String>().map(String::as_str);
                    let msg = msg.or_else(|| panic.downcast_ref::<&str>().copied()).unwrap_or("");
                    panic!("seed {seed}, mutation [{}]: {msg}", what.join("; "));
                }
            }
        }
        // The exact model covered a seeked recovery on a third of them.
        assert!(seeked_and_modelled > 600, "{seeked_and_modelled} of 2000");
    }

    #[test]
    fn sim_model_rewards_parallel_parse_and_checkpoint_bound() {
        let full = RecoveryReport {
            chains: 8,
            parse_threads: 1,
            records_parsed: 1000,
            records_replayed: 1000,
            bytes_parsed: 80_000,
            parse_makespan_bytes: 80_000,
            bytes_replayed: 40_000,
            ..RecoveryReport::default()
        };
        let parallel = RecoveryReport { parse_threads: 8, parse_makespan_bytes: 10_000, ..full };
        assert!(parallel.sim_ns() < full.sim_ns());
        let ckpt = RecoveryReport {
            records_replayed: 50,
            records_skipped_checkpoint: 950,
            checkpoint_used: true,
            ..full
        };
        // Same parse and byte-store work, but 950 records downgrade from
        // the merge-and-apply charge to the watermark-compare charge.
        assert!(ckpt.sim_ns() < full.sim_ns());
        assert!(ckpt.replay_sim_ns() < full.replay_sim_ns());
        // The replay portion ignores log size entirely: doubling parse
        // work moves sim_ns but not replay_sim_ns.
        let bigger_log =
            RecoveryReport { bytes_parsed: 160_000, parse_makespan_bytes: 160_000, ..ckpt };
        assert_eq!(bigger_log.replay_sim_ns(), ckpt.replay_sim_ns());
        // The seek reads 8 anchors and the tail instead of every record,
        // paying a line read per forward pointer it follows: cheaper than
        // parsing what it skips, and the hops are charged whatever the
        // modelled width.
        let seeked = RecoveryReport {
            records_parsed: 58,
            records_skipped_checkpoint: 8,
            bytes_parsed: 4_640,
            parse_makespan_bytes: 4_640,
            chains_seeked: 8,
            seek_hops: 40,
            ..ckpt
        };
        let hops_ns = seeked.sim_ns() - RecoveryReport { seek_hops: 0, ..seeked }.sim_ns();
        assert_eq!(hops_ns, 40 * PmemConfig::default().line_read_ns);
        assert!(seeked.sim_ns() < ckpt.sim_ns());
        assert_eq!(seeked.replay_sim_ns(), ckpt.replay_sim_ns());
    }
}
