//! The SpecPMT record protocol (paper §4), written once over [`LogStore`].
//!
//! A writing transaction *reserves* a record header at its chain's tail,
//! *stages* each update, *seals* the record with `(len, ts, checksum)` and
//! *drains* it with one vectored flush and one fence. [`crate::SpecSpmt`]
//! and [`crate::TxHandle`] both run [`TxLog`], so they issue the same
//! device operations in the same order. What differs between them —
//! timestamp source, chain ownership and locking, group commit, flight
//! recorder, statistics — stays with them and comes in as values.

use specpmt_pmem::{coalesce_lines, FenceReport};
use specpmt_telemetry::{Metric, Phase, Telemetry};

use crate::record::{encode_header_parts, entry_header, Cursor, LogArea, LogStore, REC_HDR};
use crate::writeset::WriteSet;

/// Where one runtime's commits are observed: its crash-site labels
/// (entries of [`specpmt_pmem::sites::ALL`]) and the telemetry shard of
/// the committing thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe<'a> {
    /// Header computed, nothing stored yet (`None`: the inventory has no
    /// such site for this runtime).
    pub seal: Option<&'static str>,
    /// Header and terminator stored, unflushed.
    pub append: &'static str,
    /// Flushes issued, fence pending.
    pub flush: &'static str,
    /// Fence completed.
    pub fence: &'static str,
    pub tel: &'a Telemetry,
    pub tid: usize,
}

/// One fence's outcome on `tid`'s books: the WPQ-drain counter and stall
/// phase when it completed any flush.
pub(crate) fn record_drain(tel: &Telemetry, tid: usize, fr: FenceReport) {
    if fr.flushes > 0 {
        tel.registry.add(tid, Metric::WpqDrains, 1);
        if fr.stall_ns > 0 {
            tel.registry.record(tid, Phase::WpqDrain, fr.stall_ns);
        }
    }
}

/// Counts one device fence issued by `tid` and records what it drained.
pub(crate) fn record_fence(tel: &Telemetry, tid: usize, fr: FenceReport) {
    tel.registry.add(tid, Metric::Fences, 1);
    record_drain(tel, tid, fr);
}

/// The log side of one open transaction. Everything here is cleared —
/// never freed — between transactions, so a warmed-up owner commits
/// without heap allocation.
#[derive(Debug)]
pub(crate) struct TxLog {
    /// SpecSPMT-DP: data lines are flushed too, with a second fence.
    data_persistence: bool,
    /// Where the open transaction's record header sits in the chain.
    /// `None` until the first write reserves it: a transaction that never
    /// writes never touches the log, and only a reserved record pins the
    /// chain against reclamation.
    tx_start: Option<Cursor>,
    /// Write set (paper §4: only the last update of a datum in a
    /// transaction needs a log entry), see [`crate::writeset`].
    ws: WriteSet,
    /// Dirty `(addr, len)` log ranges of the open transaction; coalesced
    /// into one vectored flush at commit.
    dirty: Vec<(usize, usize)>,
    /// DP only: the `(addr, len)` data ranges stored, coalesced into the
    /// second vectored flush at commit.
    data: Vec<(usize, usize)>,
}

impl TxLog {
    pub(crate) fn new(data_persistence: bool) -> Self {
        Self {
            data_persistence,
            tx_start: None,
            ws: WriteSet::new(),
            dirty: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Starts a transaction. Volatile only: the log is not touched until
    /// the first write [reserves](Self::reserve) the record.
    pub(crate) fn begin(&mut self) {
        self.ws.begin();
        self.dirty.clear();
        self.data.clear();
    }

    /// Whether the open transaction has written (reserved its record).
    pub(crate) fn reserved(&self) -> bool {
        self.tx_start.is_some()
    }

    /// Reserves the record header at the chain tail (zero length marks it
    /// open/uncommitted) — the first write's job, ahead of its data store
    /// and entry stores: one device-op order for every writing
    /// transaction.
    pub(crate) fn reserve<S: LogStore>(&mut self, store: &mut S, area: &mut LogArea) {
        self.tx_start = Some(area.tail());
        area.append(store, &[0u8; REC_HDR], &mut self.dirty);
    }

    /// One durable write: the in-place data update (never flushed by
    /// SpecSPMT) and the log entry of the *new* value — no flush, no
    /// fence. Returns whether a new entry was appended: a repeated
    /// same-length update of a datum overwrites its entry in place
    /// instead of appending a stale one.
    pub(crate) fn stage<S: LogStore>(
        &mut self,
        store: &mut S,
        area: &mut LogArea,
        addr: usize,
        data: &[u8],
    ) -> bool {
        store.store(addr, data);
        if self.data_persistence {
            self.data.push((addr, data.len()));
        }
        if let Some(slot) = self.ws.lookup(addr).filter(|slot| slot.len == data.len()) {
            self.ws.patch(slot, data);
            area.write_at(store, slot.value_cursor, data, &mut self.dirty);
            return false;
        }
        area.append(store, &entry_header(addr, data.len()), &mut self.dirty);
        let value_cursor = area.tail();
        area.append(store, data, &mut self.dirty);
        self.ws.stage(addr, data, value_cursor);
        true
    }

    /// Seals the reserved record as committed at `ts`: patches in the
    /// header (the checksum was streamed while entries were staged; only
    /// the fixed `(len, ts)` suffix is folded in here) and writes the
    /// terminator after the record. Nothing is flushed yet.
    ///
    /// # Panics
    ///
    /// Panics if no record was reserved. Reserved means at least one entry
    /// header in the payload, so the sealed length is never zero (a
    /// zero-length header is the chain terminator and would orphan every
    /// younger record behind it).
    pub(crate) fn seal<S: LogStore>(
        &mut self,
        store: &mut S,
        area: &mut LogArea,
        ts: u64,
        p: Probe<'_>,
    ) {
        let tx_start = self.tx_start.take().expect("seal of a transaction that reserved no record");
        let payload_len = self.ws.payload().len();
        let seal_span = p.tel.registry.span(p.tid, Phase::Seal);
        let header = encode_header_parts(ts, payload_len, self.ws.checksum(ts));
        seal_span.stop();
        if let Some(site) = p.seal {
            store.crash_point(site);
        }
        let append_span = p.tel.registry.span(p.tid, Phase::Append);
        let wrote = area.write_at(store, tx_start, &header, &mut self.dirty);
        assert_eq!(wrote, REC_HDR, "record header must fit in the chain");
        area.write_terminator(store, &mut self.dirty);
        append_span.stop();
        p.tel.registry.add(p.tid, Metric::LogAppends, 1);
        store.crash_point(p.append);
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
    pub(crate) fn drain_solo<S: LogStore>(
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
        record_fence(p.tel, p.tid, fr);
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
            record_fence(p.tel, p.tid, fr);
        }
    }

    /// Books the flush plan that was just issued, then fences it between
    /// the flush and fence crash sites.
    fn fence<S: LogStore>(store: &mut S, p: Probe<'_>) -> FenceReport {
        p.tel.registry.add(p.tid, Metric::ClwbPlans, 1);
        store.crash_point(p.flush);
        let fence_span = p.tel.registry.span(p.tid, Phase::Fence);
        let fr = store.sfence();
        fence_span.stop();
        store.crash_point(p.fence);
        fr
    }

    /// Hands the sealed record to a group-commit batch instead of
    /// draining it: coalesces its log lines into `log_plan` and its DP
    /// data lines into `data_plan`.
    pub(crate) fn group_plan(&mut self, log_plan: &mut Vec<usize>, data_plan: &mut Vec<usize>) {
        coalesce_lines(&self.dirty, log_plan);
        coalesce_lines(&self.data, data_plan);
        self.dirty.clear();
    }
}
