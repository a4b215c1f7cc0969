//! The flight recorder on PM (DESIGN.md §4.11): its event vocabulary
//! ([`BbKind`], [`BbEvent`]), its persisted format and [`BlackBoxSink`],
//! which writes per-thread event rings through a [`DeviceHandle`].
//! `specpmt_core::forensics` reads a crash image through [`decode_region`].
//!
//! A region opens with a [`RegionHeader`] in [`REGION_HDR`] bytes (so no
//! slot shares its line), then holds `rings` rings of `capacity`
//! [`EventSlot`]s, zero until written. Both are frames of [`crate::frame`](mod@crate::frame),
//! each sealed over the bytes before its `seal`. A slot is a plain store: the sink
//! issues **no flush and no fence** of its own. The owning runtime folds
//! the ring's dirty ranges ([`BlackBoxSink::take_dirty`]) into a flush it
//! was issuing anyway, so an event is durable when its thread's next
//! scheduled fence retires, and any slot can be torn at a crash. A slot
//! that does not verify is *skipped and counted* ([`RingDecode::torn`]):
//! forensics degrades, recovery never fails on it. Events merge across
//! rings on `(ts, tid, seq)`, so one crash image decodes to one sequence.
//! The crash sites `bbox/write` (slot stored, unflushed) and
//! `bbox/persist` (a fence that carried black-box lines retired) cover
//! this ordering.

use std::mem::offset_of;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::frame::{seal, verify};
use crate::shared::DeviceHandle;
use crate::sites::Site;

macro_rules! kinds {
    ($($(#[doc = $doc:literal])+ $variant:ident = $code:literal, $name:literal;)+) => {
        /// What a flight-recorder event records. Operand meaning (`a`, `b`,
        /// `aux`) is per-kind; `0` is reserved to mark a never-written slot.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum BbKind {
            $($(#[doc = $doc])+ $variant = $code,)+
        }

        impl BbKind {
            /// Parses a raw kind byte (`None` for 0 or out-of-range values).
            pub fn from_u8(v: u8) -> Option<Self> {
                match v {
                    $($code => Some(Self::$variant),)+
                    _ => None,
                }
            }

            /// Stable name for JSON and the human forensics table.
            pub fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)+
                }
            }
        }
    };
}

kinds! {
    /// Transaction began. `a` = begin timestamp source (device-local ns).
    TxBegin = 1, "tx_begin";
    /// Transaction commit *receipt*: staged only after the commit fence
    /// returned, so a persisted `TxCommit` implies the commit record was
    /// already durable (the forensic tail invariant). `a` = commit
    /// timestamp, `b` = code of the crash site whose fence just completed
    /// ([`Site`]), `aux` = 1 on the group path.
    TxCommit = 2, "tx_commit";
    /// Transaction aborted. `a` = retry attempt number.
    TxAbort = 3, "tx_abort";
    /// A fence/drain stalled beyond the configured threshold. `a` =
    /// stall ns, `b` = flushes the fence completed.
    FenceStall = 4, "fence_stall";
    /// Group-commit batch sealed (recorded by the combiner after the
    /// batch fence). `a` = transactions in the batch, `b` = code of the
    /// batch-fence crash site.
    BatchSeal = 5, "batch_seal";
    /// Reclamation spliced rebuilt chains in. `a` = records reclaimed,
    /// `b` = blocks freed.
    ReclaimSplice = 6, "reclaim_splice";
    /// Checkpoint head spliced. `a` = checkpoint watermark timestamp,
    /// `b` = entries folded.
    CkptSplice = 7, "ckpt_splice";
    /// KV governor shed a request. `a` = worst shard p99 ns, `b` =
    /// tenant id.
    GovShed = 8, "gov_shed";
    /// KV governor quota decision (window exhausted). `a` = window ops,
    /// `b` = tenant id.
    GovQuota = 9, "gov_quota";
    /// KV operation dispatched to a shard. `a` = key hash, `b` = shard,
    /// `aux` = op class ([`kv_op_name`]).
    KvOp = 10, "kv_op";
    /// KV operation completed. `a` = key hash, `b` = shard, `aux` = op
    /// class.
    KvOpDone = 11, "kv_op_done";
}

/// Names of the KV op-class codes carried in the `aux` byte of
/// [`BbKind::KvOp`] / [`BbKind::KvOpDone`] events, indexed by code (the
/// order of `specpmt-kv`'s `OpClass`).
const KV_OP_NAMES: [&str; 5] = ["get", "put", "delete", "cas", "scan"];

/// Names a KV op-class code from an event's `aux` byte.
pub fn kv_op_name(aux: u8) -> &'static str {
    KV_OP_NAMES.get(usize::from(aux)).copied().unwrap_or("unknown")
}

/// One flight-recorder event, stored as one checksummed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbEvent {
    /// Event timestamp (simulated device ns; commit ts for `TxCommit`).
    pub ts: u64,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Per-ring monotone sequence number.
    pub seq: u32,
    /// Recording ring (thread id; the last ring is the daemon's).
    pub tid: u16,
    /// Event kind.
    pub kind: BbKind,
    /// Third (byte) operand.
    pub aux: u8,
}

crate::frame! {
    /// One [`BbEvent`] as a ring slot stores it (`kind` 0 = never written),
    /// sealed over the bytes before `seal`.
    pub struct EventSlot {
        pub(crate) ts: u64,
        pub(crate) a: u64,
        pub(crate) b: u64,
        pub(crate) seq: u32,
        pub(crate) tid: u16,
        pub(crate) kind: u8,
        pub(crate) aux: u8,
        pub(crate) seal: u64,
    }

    /// A black-box region's header, written once at format time:
    /// [`BBOX_MAGIC`], the ring count and slots per ring, sealed over the
    /// bytes before `seal`.
    pub struct RegionHeader {
        pub(crate) magic: u64,
        pub(crate) rings: u32,
        pub(crate) capacity: u32,
        pub(crate) seal: u64,
    }
}

/// Magic stamping a black-box region header (`"SPBBOX01"`).
pub const BBOX_MAGIC: u64 = 0x5350_4242_4f58_3031;

/// Bytes reserved for the region header ahead of ring 0 (64-byte aligned
/// so ring slots never share a line with the header).
pub const REGION_HDR: usize = 64;

/// Default events per ring (one ring per thread plus one for the
/// reclamation/checkpoint daemon).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Total bytes of a black-box region holding `rings` rings of `capacity`
/// slots each (header included).
pub fn region_bytes(rings: usize, capacity: usize) -> usize {
    REGION_HDR + rings * capacity * EventSlot::LEN
}

/// Encodes `ev` into one sealed slot.
fn encode_slot(ev: &BbEvent) -> [u8; EventSlot::LEN] {
    let (ts, a, b, seq, tid, aux) = (ev.ts, ev.a, ev.b, ev.seq, ev.tid, ev.aux);
    let slot = EventSlot { ts, a, b, seq, tid, kind: ev.kind as u8, aux, seal: 0 };
    EventSlot { seal: seal(&slot.encode()[..offset_of!(EventSlot, seal)], 0, 0), ..slot }.encode()
}

/// The event a written slot holds, or `None` when it does not verify or
/// names no kind: a torn slot.
fn decode_slot(bytes: &[u8]) -> Option<BbEvent> {
    let s = EventSlot::decode(bytes)?;
    if !verify(&bytes[..offset_of!(EventSlot, seal)], 0, 0, s.seal) {
        return None;
    }
    let kind = BbKind::from_u8(s.kind)?;
    Some(BbEvent { ts: s.ts, a: s.a, b: s.b, seq: s.seq, tid: s.tid, kind, aux: s.aux })
}

/// The sealed region header persisted once at format time, padded to
/// [`REGION_HDR`].
fn region_header(rings: usize, capacity: usize) -> [u8; REGION_HDR] {
    let h =
        RegionHeader { magic: BBOX_MAGIC, rings: rings as u32, capacity: capacity as u32, seal: 0 };
    let sealed =
        RegionHeader { seal: seal(&h.encode()[..offset_of!(RegionHeader, seal)], 0, 0), ..h };
    let mut out = [0u8; REGION_HDR];
    out[..RegionHeader::LEN].copy_from_slice(&sealed.encode());
    out
}

/// One ring's decode: surviving events in sequence order plus the torn
/// and empty slot counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingDecode {
    /// Ring index (thread id; the last ring belongs to the daemon).
    pub tid: usize,
    /// Surviving events, ordered by `seq`.
    pub events: Vec<BbEvent>,
    /// Slots that do not verify (torn at the crash).
    pub torn: usize,
    /// Never-written slots.
    pub empty: usize,
}

/// A fully decoded black-box region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDecode {
    /// One decode per ring (threads + 1 daemon ring).
    pub rings: Vec<RingDecode>,
    /// Events per ring.
    pub capacity: usize,
}

impl RegionDecode {
    /// Total torn slots across all rings.
    pub fn torn(&self) -> usize {
        self.rings.iter().map(|r| r.torn).sum()
    }

    /// All surviving events merged on the deterministic total order
    /// `(ts, tid, seq)` — the forensic analogue of replay's
    /// `(ts, chain_idx, pos)` merge.
    pub fn merged(&self) -> Vec<BbEvent> {
        let mut out: Vec<BbEvent> =
            self.rings.iter().flat_map(|r| r.events.iter().copied()).collect();
        out.sort_by_key(|e| (e.ts, e.tid, e.seq));
        out
    }
}

/// Decodes the region `bytes` starts with (e.g. a crash image from the
/// region's base on). `None` when the header does not verify, names an
/// implausible geometry, or describes more rings than `bytes` holds; ring
/// damage degrades to skipped slots.
pub fn decode_region(bytes: &[u8]) -> Option<RegionDecode> {
    let h = RegionHeader::decode(bytes)?;
    if !verify(&bytes[..offset_of!(RegionHeader, seal)], 0, 0, h.seal) || h.magic != BBOX_MAGIC {
        return None;
    }
    let (rings, capacity) = (h.rings as usize, h.capacity as usize);
    if rings == 0 || rings > 8192 || capacity == 0 || capacity > 1 << 24 {
        return None;
    }
    let body = bytes.get(REGION_HDR..region_bytes(rings, capacity))?;
    let rings = body
        .chunks_exact(capacity * EventSlot::LEN)
        .enumerate()
        .map(|(tid, ring)| {
            let mut dec = RingDecode { tid, events: Vec::new(), torn: 0, empty: 0 };
            for slot in ring.chunks_exact(EventSlot::LEN) {
                if slot.iter().all(|&b| b == 0) {
                    dec.empty += 1;
                } else if let Some(ev) = decode_slot(slot) {
                    dec.events.push(ev);
                } else {
                    dec.torn += 1;
                }
            }
            dec.events.sort_by_key(|e| e.seq);
            dec
        })
        .collect();
    Some(RegionDecode { rings, capacity })
}

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
        let hdr = region_header(rings, capacity);
        h.write(base, &hdr);
        h.persist_range(base, REGION_HDR);
        let state = (0..rings)
            .map(|_| RingState { seq: AtomicU32::new(0), dirty: Mutex::new(Vec::new()) })
            .collect();
        Self { base, rings, capacity, stall_ns, state }
    }

    /// Fence-stall threshold (simulated ns) above which the owning
    /// runtime records a [`BbKind::FenceStall`] event.
    pub fn stall_threshold_ns(&self) -> u64 {
        self.stall_ns
    }

    /// Records one event on `tid`'s ring (thread ids beyond the ring
    /// count share the last — daemon — ring), stamped with the handle's
    /// core-local simulated time. The slot is stored volatile only; its
    /// range joins the ring's dirty set for the next [`Self::take_dirty`]
    /// caller to fold into an already-scheduled flush.
    pub fn record(&self, h: &DeviceHandle, tid: usize, kind: BbKind, a: u64, b: u64, aux: u8) {
        let ring = tid.min(self.rings - 1);
        let st = &self.state[ring];
        let seq = st.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq as usize) % self.capacity;
        let addr =
            self.base + REGION_HDR + ring * self.capacity * EventSlot::LEN + slot * EventSlot::LEN;
        let ev = BbEvent { ts: h.local_now_ns(), a, b, seq, tid: ring as u16, kind, aux };
        h.write(addr, &encode_slot(&ev));
        st.dirty.lock().unwrap_or_else(|e| e.into_inner()).push((addr, EventSlot::LEN));
        h.crash_point(Site::BboxWrite);
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
        sink.record(&h, 0, BbKind::TxBegin, 1, 2, 0);
        // Not flushed: a lose-everything crash shows an empty ring.
        let img = dev.capture(CrashPolicy::AllLost);
        let dec = decode_region(&img.as_bytes()[sink.base..]).expect("header persisted at format");
        assert_eq!(dec.merged().len(), 0, "unflushed events must not survive AllLost");
        // Piggyback: fold the dirty ranges into a flush the caller issues.
        let mut ranges = Vec::new();
        assert_eq!(sink.take_dirty(0, &mut ranges), 1);
        h.clwb_ranges(&ranges);
        h.sfence();
        let img = dev.capture(CrashPolicy::AllLost);
        let dec = decode_region(&img.as_bytes()[sink.base..]).expect("header parses");
        assert_eq!(dec.merged().len(), 1, "fenced events survive any crash");
        assert_eq!((dec.merged()[0].a, dec.merged()[0].b), (1, 2));
        // Dirty set drained exactly once.
        assert_eq!(sink.take_dirty(0, &mut Vec::new()), 0);
    }

    #[test]
    fn rings_wrap_keeping_the_newest_events() {
        let (dev, sink) = sink_on_dev();
        let h = dev.handle();
        for i in 0..11u64 {
            sink.record(&h, 1, BbKind::TxCommit, i, 0, 0);
        }
        let mut ranges = Vec::new();
        sink.take_dirty(1, &mut ranges);
        h.clwb_ranges(&ranges);
        h.sfence();
        let img = dev.capture(CrashPolicy::AllLost);
        let dec = decode_region(&img.as_bytes()[sink.base..]).expect("header parses");
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
        sink.record(&h, 2, BbKind::ReclaimSplice, 1, 0, 0);
        sink.record(&h, 57, BbKind::CkptSplice, 2, 0, 0);
        let mut ranges = Vec::new();
        assert_eq!(sink.take_dirty(57, &mut ranges), 2, "tid 57 clamps onto ring 2");
        assert_eq!((sink.rings, sink.capacity), (3, 8));
    }

    #[test]
    fn kind_names_align() {
        // Every byte that parses, in code order: the one list's kinds.
        let kinds: Vec<(u8, BbKind)> =
            (0..=u8::MAX).filter_map(|v| Some((v, BbKind::from_u8(v)?))).collect();
        assert_eq!(kinds.len(), 11);
        for (i, &(code, kind)) in kinds.iter().enumerate() {
            assert_eq!(usize::from(code), i + 1, "codes are 1..=len, 0 never parses");
            assert_eq!(kind as u8, code);
            assert!(!kind.name().is_empty());
            for (_, other) in &kinds[i + 1..] {
                assert_ne!(kind.name(), other.name(), "duplicate kind name");
            }
        }
        assert_eq!(kv_op_name(3), "cas");
        assert_eq!(kv_op_name(200), "unknown");
    }

    fn ev(ts: u64, tid: u16, seq: u32, kind: BbKind) -> BbEvent {
        BbEvent { ts, a: 7, b: 9, seq, tid, kind, aux: 3 }
    }

    #[test]
    fn slots_round_trip_and_torn_slots_do_not_decode() {
        let e = ev(123, 2, 5, BbKind::TxCommit);
        assert_eq!(decode_slot(&encode_slot(&e)), Some(e));
        let mut torn = encode_slot(&e);
        torn[4] ^= 0xFF; // tear the timestamp
        assert_eq!(decode_slot(&torn), None);
        // An out-of-range kind byte under a valid seal is torn too.
        let mut bogus = encode_slot(&e);
        bogus[30] = 99;
        let seal_at = offset_of!(EventSlot, seal);
        let sum = seal(&bogus[..seal_at], 0, 0);
        bogus[seal_at..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_slot(&bogus), None);
        assert_eq!(decode_slot(&bogus[..EventSlot::LEN - 1]), None, "a short slot");
    }

    #[test]
    fn region_round_trips_and_merges_deterministically() {
        let rings = 3;
        let cap = 4;
        let mut bytes = vec![0u8; region_bytes(rings, cap)];
        bytes[0..REGION_HDR].copy_from_slice(&region_header(rings, cap));
        // Two events on ring 0, one on ring 2, one torn slot on ring 1.
        let write = |bytes: &mut Vec<u8>, tid: usize, slot: usize, e: &BbEvent| {
            let off = REGION_HDR + tid * cap * EventSlot::LEN + slot * EventSlot::LEN;
            bytes[off..off + EventSlot::LEN].copy_from_slice(&encode_slot(e));
        };
        write(&mut bytes, 0, 0, &ev(10, 0, 0, BbKind::TxBegin));
        write(&mut bytes, 0, 1, &ev(20, 0, 1, BbKind::TxCommit));
        write(&mut bytes, 2, 0, &ev(15, 2, 0, BbKind::ReclaimSplice));
        write(&mut bytes, 1, 0, &ev(12, 1, 0, BbKind::TxBegin));
        let torn_off = REGION_HDR + cap * EventSlot::LEN;
        bytes[torn_off + 2] ^= 1;

        let dec = decode_region(&bytes).expect("header validates");
        assert_eq!(dec.capacity, cap);
        assert_eq!(dec.rings.len(), rings);
        assert_eq!(dec.merged().len(), 3);
        assert_eq!(dec.torn(), 1);
        assert_eq!(dec.rings[1].torn, 1);
        assert_eq!(dec.rings[0].empty, 2);
        let merged = dec.merged();
        let key: Vec<(u64, u16)> = merged.iter().map(|e| (e.ts, e.tid)).collect();
        assert_eq!(key, vec![(10, 0), (15, 2), (20, 0)], "merge is (ts, tid, seq)-ordered");
    }

    #[test]
    fn corrupt_region_header_is_rejected() {
        let mut bytes = vec![0u8; region_bytes(1, 2)];
        assert!(decode_region(&bytes).is_none(), "zero header");
        bytes[0..REGION_HDR].copy_from_slice(&region_header(1, 2));
        bytes[9] ^= 1;
        assert!(decode_region(&bytes).is_none(), "the seal rejects a torn ring count");
        // Geometry larger than the byte slice is rejected, not sliced.
        assert!(decode_region(&region_header(4, 1024)).is_none());
        assert!(decode_region(&region_header(1, 2)[..20]).is_none(), "a short header");
    }

    /// A slot and a region header, pinned byte for byte as they were
    /// encoded before they were declared as frames.
    #[test]
    fn slot_and_region_header_keep_their_known_answers() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let ev = BbEvent {
            ts: 0x1122_3344_5566_7788,
            a: 0x0102_0304_0506_0708,
            b: 0xA1A2_A3A4_A5A6_A7A8,
            seq: 0xB1B2_B3B4,
            tid: 0xC1C2,
            kind: BbKind::CkptSplice,
            aux: 0x5A,
        };
        assert_eq!(
            hex(&encode_slot(&ev)),
            "88776655443322110807060504030201a8a7a6a5a4a3a2a1b4b3b2b1c2c1075a90daadc56a444158"
        );
        assert_eq!(hex(&region_header(3, 256)), "3130584f424250530300000000010000c17f09946cea871300000000000000000000000000000000000000000000000000000000000000000000000000000000");
    }
}
