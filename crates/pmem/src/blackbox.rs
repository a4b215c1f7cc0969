//! The flight recorder's write side: [`BlackBoxSink`], a PM-resident set
//! of per-thread event rings written through a [`DeviceHandle`].
//!
//! The event *format* (slot layout, checksums, decode, merge order) lives
//! in [`specpmt_telemetry::blackbox`]; this module owns the persistence
//! discipline (DESIGN.md §4.11):
//!
//! * **Writes are plain stores.** [`BlackBoxSink::record`] encodes one
//!   checksummed [`EVT_BYTES`] slot into the recording thread's ring and
//!   remembers the dirty range — it issues **no flush and no fence**.
//! * **Persistence piggybacks.** The owning runtime calls
//!   [`BlackBoxSink::take_dirty`] while assembling a flush plan it was
//!   going to issue anyway (commit flush, group-batch drain, reclamation
//!   or checkpoint persist) and folds the ranges in. The ring therefore
//!   adds **zero extra fences** to the commit path; an event is durable
//!   exactly when the next already-scheduled fence of its thread retires.
//! * **Tearing is expected.** A crash can catch any slot half-written or
//!   an overwrite half-flushed; the per-event checksum makes such slots
//!   decode as *torn* (skipped and counted) rather than poisoning the
//!   ring. Recovery never fails on black-box damage.
//!
//! Two labeled crash sites cover the new ordering surface:
//! `bbox/write` (slot stored, unflushed) and `bbox/persist` (a fence that
//! carried black-box lines retired).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use specpmt_telemetry::blackbox::{BbEvent, BbKind, EVT_BYTES, REGION_HDR};

use crate::shared::DeviceHandle;

/// Per-ring write state: the monotone sequence counter and the dirty
/// ranges not yet handed to a flush plan.
#[derive(Debug)]
struct RingState {
    seq: AtomicU32,
    /// Written-but-unscheduled `(addr, len)` slot ranges. One thread owns
    /// each ring, so this mutex is uncontended; it exists to keep the
    /// sink `Sync` without `unsafe`.
    dirty: Mutex<Vec<(usize, usize)>>,
}

/// PM-resident flight-recorder sink: one fixed-capacity event ring per
/// thread (plus one for the reclamation/checkpoint daemon), rooted in the
/// pool's layout descriptor. See the module docs for the zero-extra-fence
/// persistence rule.
#[derive(Debug)]
pub struct BlackBoxSink {
    base: usize,
    rings: usize,
    capacity: usize,
    stall_ns: u64,
    state: Vec<RingState>,
}

impl BlackBoxSink {
    /// Formats a fresh region at `base` (header persisted immediately —
    /// this is pool setup, not the commit path) and returns the sink.
    ///
    /// # Panics
    ///
    /// Panics on zero rings/capacity.
    pub fn format(
        h: &DeviceHandle,
        base: usize,
        rings: usize,
        capacity: usize,
        stall_ns: u64,
    ) -> Self {
        assert!(rings > 0 && capacity > 0, "black box needs at least one ring and one slot");
        let hdr = specpmt_telemetry::blackbox::encode_region_header(rings, capacity);
        h.write(base, &hdr);
        h.persist_range(base, REGION_HDR);
        let state = (0..rings)
            .map(|_| RingState { seq: AtomicU32::new(0), dirty: Mutex::new(Vec::new()) })
            .collect();
        Self { base, rings, capacity, stall_ns, state }
    }

    /// Pool offset of the region (what the layout descriptor roots).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Ring count (threads + 1 daemon ring).
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Events per ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total region bytes (header + rings).
    pub fn region_bytes(&self) -> usize {
        specpmt_telemetry::blackbox::region_bytes(self.rings, self.capacity)
    }

    /// Fence-stall threshold (simulated ns) above which the owning
    /// runtime records a [`BbKind::FenceStall`] event.
    pub fn stall_threshold_ns(&self) -> u64 {
        self.stall_ns
    }

    /// Records one event on `tid`'s ring (thread ids beyond the ring
    /// count share the last — daemon — ring) and returns the written
    /// slot's `(addr, len)`. The slot is stored volatile only; its range
    /// joins the ring's dirty set for the next [`Self::take_dirty`]
    /// caller to fold into an already-scheduled flush.
    #[allow(clippy::too_many_arguments)] // the argument list *is* the wire slot
    pub fn record(
        &self,
        h: &DeviceHandle,
        tid: usize,
        kind: BbKind,
        ts: u64,
        a: u64,
        b: u64,
        aux: u8,
    ) -> (usize, usize) {
        let ring = tid.min(self.rings - 1);
        let st = &self.state[ring];
        let seq = st.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq as usize) % self.capacity;
        let addr = self.base + REGION_HDR + ring * self.capacity * EVT_BYTES + slot * EVT_BYTES;
        let ev = BbEvent { ts, a, b, seq, tid: ring as u16, kind, aux };
        h.write(addr, &ev.encode());
        st.dirty.lock().unwrap_or_else(|e| e.into_inner()).push((addr, EVT_BYTES));
        h.crash_point(crate::sites::BBOX_WRITE);
        (addr, EVT_BYTES)
    }

    /// [`Self::record`] stamping the event with the handle's core-local
    /// simulated time.
    pub fn record_now(
        &self,
        h: &DeviceHandle,
        tid: usize,
        kind: BbKind,
        a: u64,
        b: u64,
        aux: u8,
    ) -> (usize, usize) {
        self.record(h, tid, kind, h.local_now_ns(), a, b, aux)
    }

    /// Drains `tid`'s pending dirty ranges into `out` (appending),
    /// returning how many ranges moved. The caller must include them in
    /// a flush+fence it is about to issue anyway, and fire the
    /// `bbox/persist` crash site after that fence when the count was
    /// non-zero.
    pub fn take_dirty(&self, tid: usize, out: &mut Vec<(usize, usize)>) -> usize {
        let ring = tid.min(self.rings - 1);
        let mut dirty = self.state[ring].dirty.lock().unwrap_or_else(|e| e.into_inner());
        let n = dirty.len();
        out.extend(dirty.drain(..));
        n
    }

    /// [`Self::take_dirty`] across every ring — what a group-commit
    /// combiner uses: its batch fence covers all stagers, so it may as
    /// well carry every thread's pending events.
    pub fn take_dirty_all(&self, out: &mut Vec<(usize, usize)>) -> usize {
        let mut n = 0;
        for st in &self.state {
            let mut dirty = st.dirty.lock().unwrap_or_else(|e| e.into_inner());
            n += dirty.len();
            out.extend(dirty.drain(..));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashControl, CrashPolicy, PmemConfig, SharedPmemDevice};
    use specpmt_telemetry::blackbox::{decode_region, region_bytes};

    fn sink_on_dev() -> (SharedPmemDevice, BlackBoxSink) {
        let dev = SharedPmemDevice::new(PmemConfig::new(64 * 1024));
        let h = dev.handle();
        let sink = BlackBoxSink::format(&h, 4096, 3, 8, 10_000);
        (dev, sink)
    }

    #[test]
    fn record_is_volatile_until_piggybacked() {
        let (dev, sink) = sink_on_dev();
        let h = dev.handle();
        sink.record(&h, 0, BbKind::TxBegin, 100, 1, 2, 0);
        // Not flushed: a lose-everything crash shows an empty ring.
        let img = dev.capture(CrashPolicy::AllLost);
        let bytes = img.read_bytes(sink.base(), sink.region_bytes());
        let dec = decode_region(bytes).expect("header persisted at format");
        assert_eq!(dec.decoded(), 0, "unflushed events must not survive AllLost");
        // Piggyback: fold the dirty ranges into a flush the caller issues.
        let mut ranges = Vec::new();
        assert_eq!(sink.take_dirty(0, &mut ranges), 1);
        h.clwb_ranges(&ranges);
        h.sfence();
        let img = dev.capture(CrashPolicy::AllLost);
        let bytes = img.read_bytes(sink.base(), sink.region_bytes());
        let dec = decode_region(bytes).expect("header parses");
        assert_eq!(dec.decoded(), 1, "fenced events survive any crash");
        assert_eq!(dec.merged()[0].ts, 100);
        // Dirty set drained exactly once.
        assert_eq!(sink.take_dirty(0, &mut Vec::new()), 0);
    }

    #[test]
    fn rings_wrap_keeping_the_newest_events() {
        let (dev, sink) = sink_on_dev();
        let h = dev.handle();
        for i in 0..11u64 {
            sink.record(&h, 1, BbKind::TxCommit, i, i, 0, 0);
        }
        let mut ranges = Vec::new();
        sink.take_dirty(1, &mut ranges);
        h.clwb_ranges(&ranges);
        h.sfence();
        let img = dev.capture(CrashPolicy::AllLost);
        let bytes = img.read_bytes(sink.base(), sink.region_bytes());
        let dec = decode_region(bytes).expect("header parses");
        // Capacity 8, 11 events: the 8 newest survive, in seq order.
        let ring = &dec.rings[1];
        assert_eq!(ring.events.len(), 8);
        assert_eq!(ring.events.first().map(|e| e.seq), Some(3));
        assert_eq!(ring.events.last().map(|e| e.seq), Some(10));
    }

    #[test]
    fn daemon_overflow_tids_share_the_last_ring() {
        let (dev, sink) = sink_on_dev();
        let h = dev.handle();
        sink.record(&h, 2, BbKind::ReclaimSplice, 1, 0, 0, 0);
        sink.record(&h, 57, BbKind::CkptSplice, 2, 0, 0, 0);
        let mut ranges = Vec::new();
        assert_eq!(sink.take_dirty(57, &mut ranges), 2, "tid 57 clamps onto ring 2");
        assert_eq!(region_bytes(3, 8), sink.region_bytes());
    }
}
