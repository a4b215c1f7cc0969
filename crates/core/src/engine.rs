//! The SpecPMT record protocol (paper §4), written once over [`LogStore`].
//!
//! A writing transaction *reserves* its record at the first write (it
//! notes the chain tail; nothing is stored), *stages* each update into its
//! [`WriteSet`] — the record's only copy until commit — and at commit
//! *seals* the record with `(len, ts, checksum)`, *appends* header,
//! payload and terminator at the tail in one store run, and *drains* the
//! lines that run dirtied with one vectored flush and one fence.
//! [`crate::SpecSpmt`], [`crate::TxHandle`] and the SPHT comparator all
//! run [`TxLog`], so they issue the same device operations in the same
//! order. What differs between them — where a write's data goes,
//! timestamp source, chain ownership and locking, group commit, flight
//! recorder, statistics — stays with them and comes in as values.

use specpmt_pmem::{coalesce_lines, FenceReport, Site};
use specpmt_telemetry::{Phase, Telemetry};

use crate::record::{entry_pieces, Cursor, LogArea, LogStore, RecordHeader};
use crate::writeset::WriteSet;

/// Where one runtime's commits are observed: its commit crash sites and
/// the telemetry shard of the committing thread. A site is `None` where
/// the inventory has none for this runtime.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// Header computed, nothing stored yet.
    pub seal: Option<Site>,
    /// Record and terminator stored, unflushed.
    pub append: Option<Site>,
    /// Flushes issued, fence pending.
    pub flush: Option<Site>,
    /// Fence completed.
    pub fence: Option<Site>,
    /// The registry the commit's phase spans are recorded in.
    pub tel: &'a Telemetry,
    /// The committing thread's telemetry shard.
    pub tid: usize,
}

/// Executes `site`, if there is one.
fn crash_point<S: LogStore>(store: &S, site: Option<Site>) {
    if let Some(site) = site {
        store.crash_point(site);
    }
}

/// One fence's outcome on `tid`'s books: its WPQ stall, when it completed
/// a flush and stalled. The fence itself is counted by the device.
pub(crate) fn record_drain(tel: &Telemetry, tid: usize, fr: FenceReport) {
    if fr.flushes > 0 && fr.stall_ns > 0 {
        tel.registry.record(tid, Phase::WpqDrain, fr.stall_ns);
    }
}

/// The log side of one open transaction. Everything here is cleared —
/// never freed — between transactions, so a warmed-up owner commits
/// without heap allocation.
#[derive(Debug)]
pub struct TxLog {
    /// SpecSPMT-DP: data lines are flushed too, with a second fence.
    data_persistence: bool,
    /// The chain tail the open transaction's record will be appended at.
    /// `None` until the first write reserves it: a transaction that never
    /// writes never touches the log, and only a reserved record pins the
    /// chain against reclamation.
    tx_start: Option<Cursor>,
    /// The open record's payload (paper §4: only the last update of a
    /// datum in a transaction needs a log entry), see [`crate::writeset`].
    ws: WriteSet,
    /// Dirty `(addr, len)` log ranges of the sealed record, one per block
    /// its store run touched plus a spill's link; coalesced into one
    /// vectored flush at commit.
    dirty: Vec<(usize, usize)>,
    /// DP only: the `(addr, len)` data ranges stored, coalesced into the
    /// second vectored flush at commit.
    data: Vec<(usize, usize)>,
}

impl TxLog {
    /// An idle log; `data_persistence` selects SpecSPMT-DP's second
    /// flush and fence of the data lines.
    pub fn new(data_persistence: bool) -> Self {
        Self {
            data_persistence,
            tx_start: None,
            ws: WriteSet::new(),
            dirty: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Starts a transaction. Volatile only: the log is not touched until
    /// the seal.
    pub fn begin(&mut self) {
        self.ws.begin();
        self.dirty.clear();
        self.data.clear();
    }

    /// Whether the open transaction has written (reserved its record).
    pub fn reserved(&self) -> bool {
        self.tx_start.is_some()
    }

    /// Reserves the record at the chain tail — the first write's job. It
    /// only notes where the seal will append: the owner keeps the chain
    /// from moving until then (the shared runtime marks it `open`).
    pub fn reserve(&mut self, area: &LogArea) {
        self.tx_start = Some(area.tail());
    }

    /// Logs one durable write into the write set: the entry of the *new*
    /// value — no store, no flush, no fence. The caller stores the data
    /// itself (in place, never flushed by SpecSPMT; SPHT into its DRAM
    /// overlay) after the [reservation](Self::reserve). A write longer
    /// than [`MAX_ENTRY_LEN`](crate::record::MAX_ENTRY_LEN) is logged as
    /// consecutive entries, one per piece (`entry_pieces`), each staged as
    /// below. Returns the bytes the record grew by, summed over the pieces:
    /// - 0 when a repeated same-length update of a datum overwrites its
    ///   bytes in place, which no later entry overlaps
    ///   ([`WriteSet::patchable`]);
    /// - the value length when the write starts where the record's last
    ///   entry ends and that entry stays within `MAX_ENTRY_LEN`: the entry
    ///   grows ([`WriteSet::extend_tail`]), so a contiguous run of writes
    ///   pays one entry header;
    /// - [`ENTRY_HDR`](crate::record::ENTRY_HDR) plus the value length for
    ///   a new entry.
    pub fn stage(&mut self, addr: usize, data: &[u8]) -> usize {
        if self.data_persistence {
            self.data.push((addr, data.len()));
        }
        let before = self.ws.payload().len();
        for (addr, piece) in entry_pieces(addr, data) {
            self.stage_piece(addr, piece);
        }
        self.ws.payload().len() - before
    }

    /// [`Self::stage`] of one piece of at most `MAX_ENTRY_LEN` bytes:
    /// patch, else extend, else a new entry.
    fn stage_piece(&mut self, addr: usize, data: &[u8]) {
        if let Some(slot) = self.ws.patchable(addr, data.len()) {
            self.ws.patch(slot, data);
        } else if !self.ws.extend_tail(addr, data) {
            self.ws.stage_entry(addr, data);
        }
    }

    /// Seals the reserved record as committed at `ts` (its checksum hashed
    /// over the staged payload in one pass) and appends header, payload
    /// and terminator at the tail: the record's only log stores. Their
    /// dirty ranges are the commit's whole flush plan. Nothing is flushed
    /// yet.
    ///
    /// # Panics
    ///
    /// Panics if no record was reserved. Reserved means at least one entry
    /// header in the payload, so the sealed length is never zero (a
    /// zero-length header is the chain terminator and would orphan every
    /// younger record behind it).
    pub fn seal<S: LogStore>(&mut self, store: &mut S, area: &mut LogArea, ts: u64, p: Probe<'_>) {
        let tx_start = self.tx_start.take().expect("seal of a transaction that reserved no record");
        debug_assert_eq!(area.tail(), tx_start, "the chain moved under an open record");
        let payload = self.ws.payload();
        let seal_span = p.tel.registry.span(p.tid, Phase::Seal);
        let header = RecordHeader { len: payload.len() as u32, ts, checksum: self.ws.checksum(ts) };
        seal_span.stop();
        crash_point(store, p.seal);
        let append_span = p.tel.registry.span(p.tid, Phase::Append);
        area.append(store, &header.encode(), &mut self.dirty);
        area.append(store, payload, &mut self.dirty);
        area.write_terminator(store, &mut self.dirty);
        append_span.stop();
        crash_point(store, p.append);
    }

    /// The sealed record's dirty ranges, for a caller that folds more
    /// lines into the commit flush.
    pub(crate) fn dirty_mut(&mut self) -> &mut Vec<(usize, usize)> {
        &mut self.dirty
    }

    /// The per-commit drain: one vectored flush covering the whole record
    /// (coalesced, ascending lines — sequential and cheap) and the single
    /// commit fence; under DP a second flush+fence for the data lines.
    /// `log_fenced` runs as soon as the record's fence has completed.
    pub fn drain_solo<S: LogStore>(
        &mut self,
        store: &mut S,
        p: Probe<'_>,
        log_fenced: impl FnOnce(FenceReport),
    ) {
        let flush_span = p.tel.registry.span(p.tid, Phase::Flush);
        store.clwb_ranges(&self.dirty);
        flush_span.stop();
        let fr = Self::fence(store, p);
        self.dirty.clear();
        log_fenced(fr);
        record_drain(p.tel, p.tid, fr);
        if self.data_persistence {
            let flush_span = p.tel.registry.span(p.tid, Phase::Flush);
            store.clwb_ranges(&self.data);
            flush_span.stop();
            // DP's second drain reuses the commit flush/fence labels: it
            // stresses the same ordering invariant at the same protocol
            // step, and a per-variant label would be unreachable from the
            // default-config smoke workloads.
            let fr = Self::fence(store, p);
            self.data.clear();
            record_drain(p.tel, p.tid, fr);
        }
    }

    /// Fences the flush plan that was just issued, between the flush and
    /// fence crash sites.
    fn fence<S: LogStore>(store: &mut S, p: Probe<'_>) -> FenceReport {
        crash_point(store, p.flush);
        let fence_span = p.tel.registry.span(p.tid, Phase::Fence);
        let fr = store.sfence();
        fence_span.stop();
        crash_point(store, p.fence);
        fr
    }

    /// Hands the sealed record to a group-commit batch instead of
    /// draining it: coalesces its log lines into `log_plan`.
    pub(crate) fn group_plan(&mut self, log_plan: &mut Vec<usize>) {
        coalesce_lines(&self.dirty, log_plan);
        self.dirty.clear();
    }
}
