//! Thread-safe persistent-memory device and pool.
//!
//! [`crate::PmemDevice`] is `&mut self` and therefore single-threaded. The
//! concurrent SpecSPMT runtime (paper Section 4: per-thread log areas, a
//! global commit timestamp, and a *background* reclamation thread on a
//! dedicated core) needs many real OS threads issuing stores, flushes, and
//! fences against **one** device. [`SharedPmemDevice`] provides that with
//! `std::sync` primitives only:
//!
//! * the byte images (volatile + persisted) are **sharded** into fixed-size
//!   stripes, each behind its own `Mutex` — threads touching different
//!   stripes (e.g. appending to their own log-block chains) proceed in
//!   parallel;
//! * the simulated clock and all event counters are atomics;
//! * the WPQ/media timing model and the pending-flush set are small
//!   mutex-protected critical sections;
//! * fences are **per thread**: each [`DeviceHandle`] owns the flushes it
//!   issued, and its `sfence` waits only for those (as on real hardware,
//!   where `sfence` orders the issuing core's stores).
//!
//! Crash semantics match the single-threaded device: fenced (and
//! WPQ-accepted) flushes always survive, everything else survives per
//! [`CrashPolicy`]. Armed crash plans ([`CrashControl::arm`]) capture
//! the image *between* operations of whichever thread exhausts the fuel —
//! or at a labeled crash site ([`CrashControl::crash_point`]) when the
//! plan targets one; concurrently committing threads observe the capture
//! through the **crash epoch** ([`SharedPmemDevice::crash_epoch`]): a
//! transaction whose commit fence completed with no epoch change is
//! definitely in the image, one that overlapped a capture is a boundary
//! case (all-or-nothing).
//!
//! Lock ordering (deadlock freedom): the crash gate's mutex is only taken
//! while holding no other lock; shard mutexes are always taken in ascending index
//! order; the pending mutex is never held while acquiring a shard lock
//! (entries are removed under the lock and applied after release).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::alloc::{Reservation, SizeClassAllocator};
use crate::crash::{materialize, CrashControl, CrashGate, CrashImage, CrashPolicy};
use crate::geometry::{line_of, line_start, lines_touching, CACHE_LINE, PERSIST_WORD};
use crate::wpq::{PendingFlush, WpqModel};
use specpmt_telemetry::{Histogram, HistogramSnapshot};

use crate::{
    FenceReport, PmemConfig, PmemError, PmemStats, TimingMode, BUMP_OFF, POOL_HEADER_SIZE,
    POOL_MAGIC, ROOT_SLOTS,
};

/// Bytes per image shard (one mutex each). Must be a multiple of
/// [`CACHE_LINE`]. Small enough that per-thread log chains rarely share a
/// shard, large enough that a typical record touches one or two.
pub const SHARD_BYTES: usize = 4096;

#[derive(Debug)]
struct Shard {
    volatile: Vec<u8>,
    persisted: Vec<u8>,
}

#[derive(Debug, Default)]
struct AtomicStats {
    clwb_count: AtomicU64,
    sfence_count: AtomicU64,
    fence_stall_ns: AtomicU64,
    lines_persisted: AtomicU64,
    seq_line_hits: AtomicU64,
    bytes_stored: AtomicU64,
    bytes_loaded: AtomicU64,
    nt_stores: AtomicU64,
}

#[derive(Debug)]
struct DevInner {
    cfg: PmemConfig,
    size: usize,
    shards: Vec<Mutex<Shard>>,
    wpq: Mutex<WpqModel>,
    pending: Mutex<Vec<PendingFlush>>,
    clock_ns: AtomicU64,
    timing_on: AtomicBool,
    /// Fault injection (plan, fired image, site-hit counts, capture
    /// epoch): one flag load per persistence op or labeled site while
    /// nothing is armed, never the gate's lock.
    gate: CrashGate,
    next_handle: AtomicU64,
    stats: AtomicStats,
    /// WPQ-drain waits observed at fences that completed at least one
    /// flush (telemetry; lock-free log2 buckets).
    wpq_drain_ns: Histogram,
    /// The attached flight-recorder sink, if the owning runtime enabled
    /// one ([`SharedPmemDevice::attach_blackbox`]). Hanging it off the
    /// device lets every layer that can reach the pool (kv governor,
    /// reclamation daemon) record events without new plumbing.
    bbox: Mutex<Option<Arc<crate::blackbox::BlackBoxSink>>>,
}

/// Thread-safe simulated persistent-memory device (see module docs).
///
/// Cloning is cheap (an `Arc` bump); all clones view the same device.
/// Per-thread operations go through a [`DeviceHandle`]
/// (see [`SharedPmemDevice::handle`]).
#[derive(Debug, Clone)]
pub struct SharedPmemDevice {
    inner: Arc<DevInner>,
}

impl SharedPmemDevice {
    /// Creates a zero-filled shared device with the given configuration.
    pub fn new(cfg: PmemConfig) -> Self {
        let size = cfg.size;
        let shards = size.div_ceil(SHARD_BYTES);
        let shards = (0..shards)
            .map(|i| {
                let len = SHARD_BYTES.min(size - i * SHARD_BYTES);
                Mutex::new(Shard { volatile: vec![0; len], persisted: vec![0; len] })
            })
            .collect();
        let wpq = Mutex::new(WpqModel::new(&cfg));
        Self {
            inner: Arc::new(DevInner {
                cfg,
                size,
                shards,
                wpq,
                pending: Mutex::new(Vec::new()),
                clock_ns: AtomicU64::new(0),
                timing_on: AtomicBool::new(true),
                gate: CrashGate::default(),
                next_handle: AtomicU64::new(0),
                stats: AtomicStats::default(),
                wpq_drain_ns: Histogram::new(),
                bbox: Mutex::new(None),
            }),
        }
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The active configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.inner.cfg
    }

    /// Creates a per-thread operation handle.
    pub fn handle(&self) -> DeviceHandle {
        DeviceHandle {
            dev: self.clone(),
            id: self.inner.next_handle.fetch_add(1, Ordering::Relaxed),
            clock: AtomicU64::new(self.now_ns()),
            scratch: Mutex::new(Vec::new()),
            lines: Mutex::new(Vec::new()),
        }
    }

    /// Attaches (or replaces) the flight-recorder sink for this device.
    /// Called once by the runtime that formatted/reopened the black-box
    /// region; other layers reach it through [`SharedPmemDevice::blackbox`].
    pub fn attach_blackbox(&self, sink: Arc<crate::blackbox::BlackBoxSink>) {
        *self.inner.bbox.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// The attached flight-recorder sink, if any. `None` means the
    /// recorder is off — callers skip their `record` calls entirely.
    pub fn blackbox(&self) -> Option<Arc<crate::blackbox::BlackBoxSink>> {
        self.inner.bbox.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Current simulated time in nanoseconds (global across threads).
    pub fn now_ns(&self) -> u64 {
        self.inner.clock_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of the accumulated event counters.
    pub fn stats(&self) -> PmemStats {
        let s = &self.inner.stats;
        PmemStats {
            clwb_count: s.clwb_count.load(Ordering::Relaxed),
            sfence_count: s.sfence_count.load(Ordering::Relaxed),
            fence_stall_ns: s.fence_stall_ns.load(Ordering::Relaxed),
            lines_persisted: s.lines_persisted.load(Ordering::Relaxed),
            seq_line_hits: s.seq_line_hits.load(Ordering::Relaxed),
            bytes_stored: s.bytes_stored.load(Ordering::Relaxed),
            bytes_loaded: s.bytes_loaded.load(Ordering::Relaxed),
            nt_stores: s.nt_stores.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the WPQ-drain wait histogram: the nanoseconds each
    /// fence that completed at least one flush spent waiting for WPQ
    /// acceptance. Together with [`Self::wpq_depth_high_water`] this is
    /// the per-commit WPQ traffic picture the ROADMAP profiling question
    /// asks for.
    pub fn wpq_drain_histogram(&self) -> HistogramSnapshot {
        self.inner.wpq_drain_ns.snapshot()
    }

    /// Per-channel (per-DIMM) WPQ queue-depth high-water marks: the
    /// deepest each channel's queue has ever been right after accepting a
    /// flush.
    pub fn wpq_depth_high_water(&self) -> Vec<u64> {
        self.inner.wpq.lock().expect("wpq lock").depth_high_water.clone()
    }

    /// Switches timing on or off device-wide (setup phases only — callers
    /// must not race this with measured execution).
    pub fn set_timing(&self, mode: TimingMode) {
        self.inner.timing_on.store(mode == TimingMode::On, Ordering::SeqCst);
    }

    /// Current timing mode.
    pub fn timing(&self) -> TimingMode {
        if self.inner.timing_on.load(Ordering::SeqCst) {
            TimingMode::On
        } else {
            TimingMode::Off
        }
    }

    /// Raw crash-epoch counter (two increments per capture; odd while a
    /// capture is in progress). See the module docs for the bracketing
    /// protocol.
    pub fn crash_epoch(&self) -> u64 {
        self.observe().0
    }

    /// Shorthand for [`CrashControl::capture`]`(CrashPolicy::Random(seed))`.
    pub fn crash(&self, seed: u64) -> CrashImage {
        self.capture(CrashPolicy::Random(seed))
    }

    /// Copies every shard's volatile image into its persisted image — the
    /// orderly-shutdown (`wbnoinvd`) equivalent. Pending flushes are
    /// dropped (their contents are covered by the copy).
    pub fn flush_everything(&self) {
        self.inner.pending.lock().expect("pending lock").clear();
        for shard in &self.inner.shards {
            let mut s = shard.lock().expect("shard lock");
            let Shard { volatile, persisted } = &mut *s;
            persisted.copy_from_slice(volatile);
        }
    }

    // --- internals ------------------------------------------------------

    fn timing_is_on(&self) -> bool {
        self.inner.timing_on.load(Ordering::SeqCst)
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), PmemError> {
        if addr.checked_add(len).is_none_or(|end| end > self.inner.size) {
            return Err(PmemError::OutOfBounds { addr, len, size: self.inner.size });
        }
        Ok(())
    }

    fn shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.inner.shards[idx].lock().expect("shard lock")
    }

    /// Calls `f(shard_guard, offset_in_shard, range_in_buf)` for each shard
    /// stripe overlapped by `[addr, addr + len)`, in ascending order.
    fn for_stripes(
        &self,
        addr: usize,
        len: usize,
        mut f: impl FnMut(&mut Shard, usize, std::ops::Range<usize>),
    ) {
        let mut off = 0;
        while off < len {
            let a = addr + off;
            let idx = a / SHARD_BYTES;
            let in_shard = a % SHARD_BYTES;
            let n = (SHARD_BYTES - in_shard).min(len - off);
            let mut guard = self.shard(idx);
            f(&mut guard, in_shard, off..off + n);
            off += n;
        }
    }

    /// One persistence-affecting operation is about to happen. Called
    /// while holding **no** locks (a capture takes every shard lock).
    fn tick_fuel(&self) {
        self.inner.gate.tick_fuel(self.timing_is_on(), |policy| self.capture(policy));
    }

    /// WPQ + media accounting for one line write-back; returns the time the
    /// flush is accepted into the persistence domain. The caller holds the
    /// WPQ lock — the batched flush path accepts a whole commit's lines
    /// under one acquisition.
    fn wpq_accept(&self, w: &mut WpqModel, line: usize, now: u64) -> u64 {
        let (accepted_at, sequential) = w.accept(&self.inner.cfg, line, now);
        let stats = &self.inner.stats;
        stats.lines_persisted.fetch_add(1, Ordering::Relaxed);
        if sequential {
            stats.seq_line_hits.fetch_add(1, Ordering::Relaxed);
        }
        accepted_at
    }
}

impl CrashControl for SharedPmemDevice {
    fn gate(&self) -> &CrashGate {
        &self.inner.gate
    }

    fn timing_on(&self) -> bool {
        self.timing_is_on()
    }

    /// The memory image a crash at this instant could leave (same policy
    /// semantics as the single-threaded device). A real crash is one
    /// instant: the pending set and *every* shard lock are held together
    /// while the image is built, so no concurrent store or fence can land
    /// between shard copies. Without this, a commit fence racing the
    /// capture could reach a high-address shard (copied late) while its
    /// log record lives in a low-address shard (copied early) — an image
    /// no power failure can produce, which would break any cross-address
    /// ordering invariant (e.g. the flight recorder's receipt-after-fence
    /// rule). No other path holds two of these locks at once, so the
    /// ascending sweep cannot deadlock.
    fn capture(&self, policy: CrashPolicy) -> CrashImage {
        let pending = self.inner.pending.lock().expect("pending lock");
        let shards: Vec<_> =
            self.inner.shards.iter().map(|s| s.lock().expect("shard lock")).collect();
        let mut volatile = Vec::with_capacity(self.inner.size);
        let mut persisted = Vec::with_capacity(self.inner.size);
        for s in &shards {
            volatile.extend_from_slice(&s.volatile);
            persisted.extend_from_slice(&s.persisted);
        }
        materialize(persisted, &volatile, &pending, self.now_ns(), policy)
    }
}

/// Per-thread operation handle over a [`SharedPmemDevice`].
///
/// Mirrors the [`crate::PmemDevice`] API. Flush/fence state is private to
/// the handle: `sfence` orders only this handle's outstanding flushes, like
/// `sfence` on the issuing core. The handle also owns its **core clock** —
/// a private simulated timeline advanced by this handle's loads, stores,
/// flush issues, and fence stalls. Distinct handles model distinct cores:
/// their fence stalls overlap rather than serialize, while the shared WPQ
/// and media model still couple them through bandwidth. The device-global
/// clock ([`SharedPmemDevice::now_ns`]) tracks the maximum over all
/// timelines.
#[derive(Debug)]
pub struct DeviceHandle {
    dev: SharedPmemDevice,
    id: u64,
    clock: AtomicU64,
    /// Reusable flush scratch for [`Self::clwb_lines`] and
    /// [`Self::sfence`]: cleared (capacity kept) between uses, so
    /// steady-state commits allocate nothing. A handle belongs to one
    /// thread, so the mutex is uncontended — it exists only to keep the
    /// handle `Sync` without interior-mutability `unsafe`.
    scratch: Mutex<Vec<PendingFlush>>,
    /// Reusable flush-plan scratch for [`Self::clwb_ranges`]: holds the
    /// coalesced cache-line indices between uses (cleared, capacity
    /// kept), so planning a commit's flushes is allocation-free in
    /// steady state. Same single-owner-mutex pattern as `scratch`.
    lines: Mutex<Vec<usize>>,
}

impl DeviceHandle {
    /// The shared device this handle operates on.
    pub fn device(&self) -> &SharedPmemDevice {
        &self.dev
    }

    /// This handle's core-local simulated time in nanoseconds.
    pub fn local_now_ns(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the core-local clock by `ns` and folds it into the
    /// device-global clock (which tracks the max over all timelines).
    fn local_charge(&self, ns: u64) -> u64 {
        let t = self.clock.fetch_add(ns, Ordering::Relaxed) + ns;
        self.dev.inner.clock_ns.fetch_max(t, Ordering::Relaxed);
        t
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.dev.size()
    }

    /// Stores `data` at `addr` in the volatile image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&self, addr: usize, data: &[u8]) {
        self.try_write(addr, data).expect("shared pmem write out of bounds");
    }

    /// Checked variant of [`Self::write`].
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn try_write(&self, addr: usize, data: &[u8]) -> Result<(), PmemError> {
        self.dev.check(addr, data.len())?;
        self.dev.tick_fuel();
        self.dev.for_stripes(addr, data.len(), |shard, off, range| {
            let n = range.len();
            shard.volatile[off..off + n].copy_from_slice(&data[range]);
        });
        if self.dev.timing_is_on() {
            let words = data.len().div_ceil(PERSIST_WORD) as u64;
            self.local_charge(words * self.dev.inner.cfg.store_word_ns);
            self.dev.inner.stats.bytes_stored.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Loads `buf.len()` bytes from `addr` in the volatile image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        self.dev.check(addr, buf.len()).expect("shared pmem read out of bounds");
        self.dev.for_stripes(addr, buf.len(), |shard, off, range| {
            let n = range.len();
            buf[range].copy_from_slice(&shard.volatile[off..off + n]);
        });
        if self.dev.timing_is_on() {
            let words = buf.len().div_ceil(PERSIST_WORD) as u64;
            self.local_charge(words * self.dev.inner.cfg.load_word_ns);
            self.dev.inner.stats.bytes_loaded.fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: usize, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Copies `len` bytes at `addr` out of the volatile image without
    /// charging any cost (verification / debugging). Prefer
    /// [`Self::peek_into`] on hot paths — it does not allocate.
    pub fn peek(&self, addr: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.peek_into(addr, &mut out);
        out
    }

    /// Copies `buf.len()` bytes at `addr` out of the volatile image into
    /// `buf` without charging any cost and without allocating — the
    /// zero-copy read primitive for the parse and undo hot paths.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn peek_into(&self, addr: usize, buf: &mut [u8]) {
        self.dev.check(addr, buf.len()).expect("peek out of bounds");
        self.dev.for_stripes(addr, buf.len(), |shard, off, range| {
            let n = range.len();
            buf[range].copy_from_slice(&shard.volatile[off..off + n]);
        });
    }

    /// Reads a `u64` from the volatile image without charging any cost.
    pub fn peek_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.peek_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Issues a `clwb` for the cache line containing `addr`. The line is
    /// persistent only once accepted by the WPQ; [`Self::sfence`] waits for
    /// that.
    pub fn clwb(&self, addr: usize) {
        self.clwb_lines(&[line_of(addr)]);
    }

    /// Vectored `clwb`: issues a write-back for every cache-line *index*
    /// in `lines` (each element is `addr / CACHE_LINE`; the slice must be
    /// sorted ascending and deduplicated — commit planners produce exactly
    /// that). Semantically identical to calling [`Self::clwb`] once per
    /// line between the same pair of fences, but the whole batch acquires
    /// each overlapped image shard once, the WPQ lock once, and the
    /// pending lock once — instead of once *per line* — which is where the
    /// per-commit shard-mutex traffic of the range-at-a-time path went.
    ///
    /// Crash semantics are unchanged: every line still burns one unit of
    /// crash fuel (fuel is burned for the whole batch up front, while no
    /// lock is held, so an armed capture can fire between any two lines of
    /// the batch — the same nondeterminism interleaved flushes have), each
    /// line snapshot joins the pending set individually, and nothing
    /// crosses a fence (the batch is issued entirely between two fences of
    /// this handle).
    ///
    /// # Panics
    ///
    /// Panics if a line is out of bounds or the slice is not sorted and
    /// deduplicated.
    pub fn clwb_lines(&self, lines: &[usize]) {
        if lines.is_empty() {
            return;
        }
        let mut scratch = self.scratch.lock().expect("scratch lock");
        if !self.issue_batch(lines, &mut scratch) {
            return;
        }
        self.local_charge(lines.len() as u64 * self.dev.inner.cfg.clwb_issue_ns);
        self.dev.inner.stats.clwb_count.fetch_add(lines.len() as u64, Ordering::Relaxed);
        self.dev.inner.pending.lock().expect("pending lock").extend(scratch.drain(..));
    }

    /// Front half of a vectored flush, shared by [`Self::clwb_lines`] and
    /// [`Self::drain_lines`]: validates the batch, burns one unit of crash
    /// fuel per line (up front, while no lock is held — fuel capture
    /// acquires every shard lock), snapshots every line into `scratch`,
    /// and accepts the batch into the WPQ under one lock acquisition, each
    /// line at the simulated instant its serial `clwb` would have issued.
    /// The caller charges the issue time and decides where the snapshots
    /// go. With timing off the lines persist at once, `scratch` is left
    /// empty and `false` is returned.
    fn issue_batch(&self, lines: &[usize], scratch: &mut Vec<PendingFlush>) -> bool {
        assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "vectored flush requires a sorted, deduplicated batch"
        );
        let last = *lines.last().expect("non-empty batch");
        assert!(line_start(last) < self.dev.size(), "vectored flush out of bounds");
        for _ in lines {
            self.dev.tick_fuel();
        }
        scratch.clear();
        // Snapshot shard group by shard group: lines are sorted, so lines
        // of the same shard are adjacent and the guard is taken once.
        let mut i = 0;
        while i < lines.len() {
            let shard_idx = line_start(lines[i]) / SHARD_BYTES;
            let guard = self.dev.shard(shard_idx);
            while i < lines.len() && line_start(lines[i]) / SHARD_BYTES == shard_idx {
                let off = line_start(lines[i]) % SHARD_BYTES;
                let mut snapshot = [0u8; CACHE_LINE];
                snapshot.copy_from_slice(&guard.volatile[off..off + CACHE_LINE]);
                scratch.push(PendingFlush {
                    owner: self.id,
                    line: lines[i],
                    accepted_at: 0,
                    snapshot,
                });
                i += 1;
            }
        }
        if !self.dev.timing_is_on() {
            for p in scratch.iter() {
                self.apply_persisted(p.line, &p.snapshot);
            }
            scratch.clear();
            return false;
        }
        let issue_ns = self.dev.inner.cfg.clwb_issue_ns;
        let t0 = self.local_now_ns();
        let mut w = self.dev.inner.wpq.lock().expect("wpq lock");
        for (k, p) in scratch.iter_mut().enumerate() {
            let now = t0 + (k as u64 + 1) * issue_ns;
            p.accepted_at = self.dev.wpq_accept(&mut w, p.line, now);
        }
        true
    }

    fn apply_persisted(&self, line: usize, snapshot: &[u8]) {
        let start = line_start(line);
        self.dev.for_stripes(start, CACHE_LINE, |shard, off, range| {
            let n = range.len();
            shard.persisted[off..off + n].copy_from_slice(&snapshot[range]);
        });
    }

    /// Issues `clwb` for every cache line touched by `[addr, addr + len)`.
    pub fn clwb_range(&self, addr: usize, len: usize) {
        for line in lines_touching(addr, len) {
            self.clwb(line_start(line));
        }
    }

    /// Flush-plans and issues a whole commit's dirty `(addr, len)` ranges
    /// in one vectored batch: coalesces them into the sorted, deduplicated
    /// cache-line set ([`crate::geometry::coalesce_lines`]) in a reusable
    /// scratch buffer, then hands the plan to [`Self::clwb_lines`]. The
    /// line set — and hence what persists across any crash — is exactly
    /// what a [`Self::clwb_range`] loop over the same ranges would flush;
    /// only the lock-acquisition count changes. Zero-length ranges are
    /// skipped; steady state allocates nothing.
    pub fn clwb_ranges(&self, ranges: &[(usize, usize)]) {
        let mut lines = self.lines.lock().expect("lines lock");
        crate::geometry::coalesce_lines(ranges, &mut lines);
        self.clwb_lines(&lines);
    }

    /// Fused batched drain: [`Self::clwb_lines`] plus [`Self::sfence`] for
    /// one sorted, deduplicated line batch, in a single call that never
    /// touches the device-global pending set. This is the group-commit
    /// combiner's primitive: one WPQ lock round accepts the whole batch,
    /// the fence stall is computed directly from the batch's acceptance
    /// times, and the persisted image is updated immediately — no
    /// `pending` push + retain scan whose cost grows with every
    /// concurrently unfenced flush in the system.
    ///
    /// Simulated time and crash fuel match the unfused pair exactly: one
    /// persistence op per line plus one for the fence, `clwb_issue_ns` per
    /// line plus `sfence_base_ns` on this handle's clock, and the same
    /// per-line WPQ acceptance instants. The only semantic difference is
    /// crash nondeterminism *inside* the call: lines are never in the
    /// pending set, so a capture that fires mid-batch sees them as
    /// volatile-vs-persisted diffs (surviving per policy) rather than as
    /// accepted in-flight flushes — both are valid pre-fence outcomes, and
    /// the post-fence durability guarantee is identical.
    ///
    /// The fence covers exactly the batch passed in: the handle must have
    /// no unfenced [`Self::clwb`]-family flushes outstanding when calling
    /// this (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if a line is out of bounds or the slice is not sorted and
    /// deduplicated.
    pub fn drain_lines(&self, lines: &[usize]) -> FenceReport {
        debug_assert!(
            self.dev.inner.pending.lock().expect("pending lock").iter().all(|p| p.owner != self.id),
            "drain_lines with unfenced flushes outstanding on this handle"
        );
        if lines.is_empty() {
            return FenceReport::default();
        }
        // One more unit of crash fuel for the fence — the same budget as
        // clwb_lines + sfence.
        self.dev.tick_fuel();
        let mut scratch = self.scratch.lock().expect("scratch lock");
        if !self.issue_batch(lines, &mut scratch) {
            return FenceReport::default();
        }
        let cfg = &self.dev.inner.cfg;
        let issue_ns = cfg.clwb_issue_ns;
        let n = lines.len() as u64;
        let stats = &self.dev.inner.stats;
        stats.clwb_count.fetch_add(n, Ordering::Relaxed);
        stats.sfence_count.fetch_add(1, Ordering::Relaxed);
        let now = self.local_charge(n * issue_ns);
        let target = scratch.iter().map(|p| p.accepted_at).max().unwrap_or(0);
        let stall_ns = target.saturating_sub(now);
        if target > now {
            stats.fence_stall_ns.fetch_add(target - now, Ordering::Relaxed);
            self.clock.fetch_max(target, Ordering::Relaxed);
            self.dev.inner.clock_ns.fetch_max(target, Ordering::Relaxed);
        }
        self.local_charge(cfg.sfence_base_ns);
        self.dev.inner.wpq_drain_ns.record(stall_ns);
        for p in scratch.iter() {
            self.apply_persisted(p.line, &p.snapshot);
        }
        scratch.clear();
        FenceReport { stall_ns, flushes: n }
    }

    /// Store fence: stalls until every flush **this handle** issued is
    /// accepted into the persistence domain, then applies them to the
    /// persisted image. Returns what the fence observed (WPQ-drain stall,
    /// flushes applied); fences that completed at least one flush also
    /// feed the device-wide WPQ-drain histogram
    /// ([`SharedPmemDevice::wpq_drain_histogram`]).
    pub fn sfence(&self) -> FenceReport {
        // Timing is a device-wide switch that setup helpers on *other*
        // handles flip (pool allocation, thread registration), so it can
        // go off between this handle's `clwb` and its fence. The fence
        // must still complete those flushes — free of charge and
        // uncounted, like every timing-off operation — or a crash image
        // taken afterwards drops a record the caller was told is durable.
        let timed = self.dev.timing_is_on();
        if timed {
            self.dev.tick_fuel();
            self.dev.inner.stats.sfence_count.fetch_add(1, Ordering::Relaxed);
        }
        // Move own entries into the reusable scratch under the pending
        // lock; apply after releasing it so a shard lock is never acquired
        // while holding the pending lock. The scratch keeps its capacity,
        // so steady-state fences allocate nothing.
        let mut mine = self.scratch.lock().expect("scratch lock");
        mine.clear();
        {
            let mut pending = self.dev.inner.pending.lock().expect("pending lock");
            pending.retain(|p| {
                if p.owner == self.id {
                    mine.push(*p);
                    false
                } else {
                    true
                }
            });
        }
        let mut report = FenceReport::default();
        if timed {
            let target = mine.iter().map(|p| p.accepted_at).max().unwrap_or(0);
            let now = self.local_now_ns();
            report =
                FenceReport { stall_ns: target.saturating_sub(now), flushes: mine.len() as u64 };
            if target > now {
                self.dev.inner.stats.fence_stall_ns.fetch_add(target - now, Ordering::Relaxed);
                self.clock.fetch_max(target, Ordering::Relaxed);
                self.dev.inner.clock_ns.fetch_max(target, Ordering::Relaxed);
            }
            self.local_charge(self.dev.inner.cfg.sfence_base_ns);
            if report.flushes > 0 {
                self.dev.inner.wpq_drain_ns.record(report.stall_ns);
            }
        }
        for p in mine.iter() {
            self.apply_persisted(p.line, &p.snapshot);
        }
        mine.clear();
        report
    }

    /// Non-temporal store: write + flush in one step (still needs a fence).
    pub fn nt_store(&self, addr: usize, data: &[u8]) {
        self.write(addr, data);
        if self.dev.timing_is_on() {
            self.dev.inner.stats.nt_stores.fetch_add(1, Ordering::Relaxed);
        }
        self.clwb_range(addr, data.len());
    }

    /// Convenience: `clwb_range` followed by `sfence`.
    pub fn persist_range(&self, addr: usize, len: usize) {
        self.clwb_range(addr, len);
        self.sfence();
    }

    /// Persists the line containing `addr` from a background core: consumes
    /// WPQ/media bandwidth but does not advance the caller's clock or leave
    /// a fence obligation (see [`crate::PmemDevice::background_line_write`]).
    pub fn background_line_write(&self, addr: usize) {
        let line = line_of(addr);
        assert!(line_start(line) < self.dev.size(), "background write out of bounds");
        let mut snapshot = [0u8; CACHE_LINE];
        self.peek_into(line_start(line), &mut snapshot);
        if self.dev.timing_is_on() {
            let mut w = self.dev.inner.wpq.lock().expect("wpq lock");
            let _ = self.dev.wpq_accept(&mut w, line, self.local_now_ns());
        }
        self.apply_persisted(line, &snapshot);
    }

    /// [`Self::background_line_write`] over every line of a range.
    pub fn background_range_write(&self, addr: usize, len: usize) {
        for line in lines_touching(addr, len) {
            self.background_line_write(line_start(line));
        }
    }

    /// Advances the simulated clock by `ns` of CPU work.
    pub fn advance(&self, ns: u64) {
        if self.dev.timing_is_on() {
            self.local_charge(ns);
        }
    }

    /// Executes a labeled crash site on the shared device (see
    /// [`CrashControl::crash_point`]): one relaxed flag load when no
    /// labeled plan is armed.
    pub fn crash_point(&self, site: &'static str) {
        self.dev.crash_point(site);
    }
}

/// Thread-safe persistent pool over a [`SharedPmemDevice`] — the shared
/// counterpart of [`crate::PmemPool`], with the identical on-PM layout
/// (magic, bump pointer, root slots), so recovery code that understands one
/// understands both.
#[derive(Debug)]
pub struct SharedPmemPool {
    dev: SharedPmemDevice,
    alloc: Mutex<SizeClassAllocator>,
}

impl SharedPmemPool {
    /// Formats `dev` as a fresh pool.
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than [`POOL_HEADER_SIZE`].
    pub fn create(dev: SharedPmemDevice) -> Self {
        assert!(dev.size() >= POOL_HEADER_SIZE, "device too small for a pool");
        let prev = dev.timing();
        dev.set_timing(TimingMode::Off);
        let h = dev.handle();
        h.write_u64(0, POOL_MAGIC);
        h.write_u64(BUMP_OFF, POOL_HEADER_SIZE as u64);
        for i in 0..ROOT_SLOTS {
            h.write_u64(crate::root_off(i), 0);
        }
        h.persist_range(0, POOL_HEADER_SIZE);
        dev.set_timing(prev);
        let end = dev.size();
        Self { dev, alloc: Mutex::new(SizeClassAllocator::new(POOL_HEADER_SIZE, end)) }
    }

    /// The underlying shared device.
    pub fn device(&self) -> &SharedPmemDevice {
        &self.dev
    }

    /// Creates a per-thread device handle.
    pub fn handle(&self) -> DeviceHandle {
        self.dev.handle()
    }

    /// Reserves heap space without making the bump durable (the caller's
    /// runtime logs [`BUMP_OFF`] transactionally when the heap grew).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] when the heap is exhausted.
    pub fn reserve(&self, size: usize, align: usize) -> Result<Reservation, PmemError> {
        self.alloc.lock().expect("alloc lock").reserve(size, align)
    }

    /// Allocates and immediately persists the bump pointer (setup and
    /// runtime-internal metadata).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_direct(&self, size: usize, align: usize) -> Result<usize, PmemError> {
        // Hold the allocator lock across the bump persist so concurrent
        // allocations persist monotonically increasing bump values.
        let mut alloc = self.alloc.lock().expect("alloc lock");
        let r = alloc.reserve(size, align)?;
        if let Some(bump) = r.new_bump {
            let h = self.dev.handle();
            h.write_u64(BUMP_OFF, bump);
            h.persist_range(BUMP_OFF, 8);
        }
        Ok(r.off)
    }

    /// Returns a block to the volatile free list.
    pub fn free(&self, off: usize, size: usize, align: usize) {
        self.alloc.lock().expect("alloc lock").release(off, size, align);
    }

    /// Reads root slot `i`.
    pub fn root(&self, i: usize) -> u64 {
        self.dev.handle().peek_u64(crate::root_off(i))
    }

    /// Writes and immediately persists root slot `i`.
    pub fn set_root_direct(&self, i: usize, value: u64) {
        let h = self.dev.handle();
        h.write_u64(crate::root_off(i), value);
        h.persist_range(crate::root_off(i), 8);
    }

    /// Bytes consumed by the bump region.
    pub fn heap_used(&self) -> usize {
        self.alloc.lock().expect("alloc lock").used_until() - POOL_HEADER_SIZE
    }

    /// Total heap capacity.
    pub fn heap_capacity(&self) -> usize {
        self.dev.size() - POOL_HEADER_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashPlan;
    use std::thread;

    fn dev() -> SharedPmemDevice {
        SharedPmemDevice::new(PmemConfig::new(64 * 1024))
    }

    #[test]
    fn write_then_read_roundtrips() {
        let d = dev();
        let h = d.handle();
        h.write_u64(128, 0xDEAD_BEEF);
        assert_eq!(h.read_u64(128), 0xDEAD_BEEF);
    }

    #[test]
    fn cross_shard_write_roundtrips() {
        let d = dev();
        let h = d.handle();
        let addr = SHARD_BYTES - 3; // straddles the first shard boundary
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        h.write(addr, &data);
        let mut back = [0u8; 7];
        h.read(addr, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn fence_stalls_overlap_across_handles() {
        // Two cores flushing + fencing back-to-back: each pays its own
        // fence latency on its own timeline, so the global clock advances
        // by roughly ONE fence worth, not two -- unlike two fences on one
        // handle, which serialize.
        let d = dev();
        let serial = d.handle();
        serial.write_u64(0, 1);
        serial.clwb(0);
        serial.sfence();
        serial.write_u64(4096, 2);
        serial.clwb(4096);
        serial.sfence();
        let serial_elapsed = serial.local_now_ns();

        let d2 = dev();
        let a = d2.handle();
        let b = d2.handle();
        a.write_u64(0, 1);
        a.clwb(0);
        b.write_u64(4096, 2);
        b.clwb(4096);
        a.sfence();
        b.sfence();
        let parallel_elapsed = d2.now_ns();
        assert!(
            parallel_elapsed < serial_elapsed,
            "two cores should overlap fence stalls: parallel {parallel_elapsed} \
             vs serial {serial_elapsed}"
        );
    }

    #[test]
    fn local_clocks_fold_into_global_max() {
        let d = dev();
        let a = d.handle();
        let b = d.handle();
        a.advance(1000);
        b.advance(250);
        assert_eq!(a.local_now_ns(), 1000);
        assert_eq!(b.local_now_ns(), 250);
        assert_eq!(d.now_ns(), 1000, "global clock is the max timeline");
        // A later handle starts at the current global time.
        let c = d.handle();
        assert_eq!(c.local_now_ns(), 1000);
    }

    #[test]
    fn fenced_flush_survives_all_lost() {
        let d = dev();
        let h = d.handle();
        h.write_u64(0, 7);
        h.clwb(0);
        h.sfence();
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(0), 7);
    }

    #[test]
    fn unflushed_store_lost_in_pessimistic_crash() {
        let d = dev();
        let h = d.handle();
        h.write_u64(0, 7);
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(0), 0);
        assert_eq!(d.capture(CrashPolicy::AllSurvive).read_u64(0), 7);
    }

    #[test]
    fn sfence_orders_only_own_flushes() {
        let d = dev();
        let a = d.handle();
        let b = d.handle();
        a.write_u64(0, 1);
        a.clwb(0);
        b.write_u64(64, 2);
        b.clwb(64);
        // Only a's fence: a's line persisted; b's flush still pending (it
        // may survive via WPQ acceptance, but sfence must not consume it).
        a.sfence();
        b.write_u64(64, 3); // volatile overwrite after b's snapshot
        b.sfence();
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 1);
        assert_eq!(img.read_u64(64), 2, "b's fence persisted b's snapshot");
    }

    #[test]
    fn wpq_telemetry_tracks_drains_and_depth() {
        let d = dev();
        let h = d.handle();
        assert_eq!(d.wpq_drain_histogram().count(), 0);
        assert!(d.wpq_depth_high_water().iter().all(|&x| x == 0));
        // Fence with nothing pending: no drain observation.
        h.sfence();
        assert_eq!(d.wpq_drain_histogram().count(), 0);
        // A burst of flushes then a fence: one drain observation, and the
        // accepting channel's depth high-water is at least 1.
        for i in 0..8 {
            h.write_u64(i * 64, i as u64);
        }
        for i in 0..8 {
            h.clwb(i * 64);
        }
        let report = h.sfence();
        assert_eq!(report.flushes, 8);
        let hist = d.wpq_drain_histogram();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max, report.stall_ns);
        assert!(d.wpq_depth_high_water().iter().any(|&x| x >= 1));
        // Timing off: fences are free and unobserved.
        d.set_timing(TimingMode::Off);
        h.clwb(0);
        assert_eq!(h.sfence(), FenceReport::default());
        assert_eq!(d.wpq_drain_histogram().count(), 1);
    }

    #[test]
    fn timing_off_persists_immediately() {
        let d = dev();
        d.set_timing(TimingMode::Off);
        let h = d.handle();
        h.write_u64(0, 5);
        h.clwb(0);
        h.sfence();
        assert_eq!(d.now_ns(), 0);
        assert_eq!(d.stats().clwb_count, 0);
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(0), 5);
    }

    #[test]
    fn armed_crash_fires_and_bumps_epoch() {
        let d = dev();
        let h = d.handle();
        assert_eq!(d.crash_epoch(), 0);
        d.arm(CrashPlan::after_ops(1));
        h.write_u64(0, 1); // fuel 1 -> 0
        h.write_u64(8, 2); // fires before this op
        assert!(d.fired());
        assert_eq!(d.crash_epoch(), 2, "two increments per capture");
        assert_eq!(d.observe(), (2, true));
        let img = d.take_image().unwrap();
        assert_eq!(img.read_u64(0), 0);
        assert_eq!(h.read_u64(8), 2, "execution continues after capture");
    }

    #[test]
    fn parallel_disjoint_commits_all_survive() {
        let d = SharedPmemDevice::new(PmemConfig::new(256 * 1024));
        thread::scope(|s| {
            for t in 0..4usize {
                let h = d.handle();
                s.spawn(move || {
                    let base = t * 32 * 1024;
                    for i in 0..64usize {
                        let a = base + i * CACHE_LINE;
                        h.write_u64(a, (t * 1000 + i) as u64);
                        h.clwb(a);
                        h.sfence();
                    }
                });
            }
        });
        let img = d.capture(CrashPolicy::AllLost);
        for t in 0..4usize {
            for i in 0..64usize {
                let a = t * 32 * 1024 + i * CACHE_LINE;
                assert_eq!(img.read_u64(a), (t * 1000 + i) as u64);
            }
        }
        assert_eq!(d.stats().sfence_count, 4 * 64);
    }

    #[test]
    fn thirty_two_handles_commit_disjoint_lines() {
        // Full-machine fleet: 32 cores, each with its own handle (private
        // flush/fence state and core clock), committing disjoint lines.
        let d = SharedPmemDevice::new(PmemConfig::new(1024 * 1024));
        thread::scope(|s| {
            for t in 0..32usize {
                let h = d.handle();
                s.spawn(move || {
                    let base = t * 16 * 1024;
                    for i in 0..16usize {
                        let a = base + i * CACHE_LINE;
                        h.write_u64(a, (t * 100 + i) as u64);
                        h.clwb(a);
                        h.sfence();
                    }
                });
            }
        });
        let img = d.capture(CrashPolicy::AllLost);
        for t in 0..32usize {
            for i in 0..16usize {
                let a = t * 16 * 1024 + i * CACHE_LINE;
                assert_eq!(img.read_u64(a), (t * 100 + i) as u64, "handle {t} line {i}");
            }
        }
        assert_eq!(d.stats().sfence_count, 32 * 16);
    }

    #[test]
    fn thirty_two_core_clocks_fold_into_global_max() {
        let d = dev();
        let handles: Vec<DeviceHandle> = (0..32).map(|_| d.handle()).collect();
        for (i, h) in handles.iter().enumerate() {
            h.advance(((i + 1) * 10) as u64);
        }
        assert_eq!(d.now_ns(), 320, "global clock is the max of all 32 core timelines");
        let late = d.handle();
        assert_eq!(late.local_now_ns(), 320, "handle 33 starts at the global max");
    }

    #[test]
    fn flush_everything_syncs_images() {
        let d = dev();
        let h = d.handle();
        h.write_u64(0, 1);
        h.write_u64(SHARD_BYTES + 8, 2);
        d.flush_everything();
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), 1);
        assert_eq!(img.read_u64(SHARD_BYTES + 8), 2);
    }

    #[test]
    fn shared_pool_layout_matches_pmem_pool() {
        let pool = SharedPmemPool::create(dev());
        assert_eq!(pool.handle().peek_u64(0), POOL_MAGIC);
        let off = pool.alloc_direct(100, 8).unwrap();
        assert!(off >= POOL_HEADER_SIZE);
        let img = pool.device().capture(CrashPolicy::AllLost);
        assert!(img.read_u64(BUMP_OFF) as usize >= off + 100);
        pool.set_root_direct(3, 0x77);
        assert_eq!(pool.root(3), 0x77);
    }

    #[test]
    fn try_write_out_of_bounds_errors() {
        let d = dev();
        let h = d.handle();
        assert!(h.try_write(64 * 1024 - 4, &[0u8; 16]).is_err());
    }

    /// The dirty ranges a commit hands to [`DeviceHandle::clwb_ranges`]:
    /// unsorted, overlapping, sub-line, and spanning a shard boundary —
    /// the worst case the coalescer must normalize.
    fn messy_commit(h: &DeviceHandle) -> Vec<(usize, usize)> {
        h.write_u64(0, 1);
        h.write_u64(200, 2); // mid-line, same 4th line as 192
        h.write_u64(128, 3);
        h.write_u64(SHARD_BYTES - 8, 4); // straddles a shard boundary line pair
        h.write_u64(SHARD_BYTES + 64, 5);
        vec![
            (SHARD_BYTES - 8, 16), // crosses the shard seam
            (128, 80),             // covers lines 2 and 3
            (0, 8),
            (196, 12), // overlaps the (128, 80) range's last line
            (200, 0),  // empty range contributes nothing
            (128, 64), // exact duplicate line
            (SHARD_BYTES + 64, 8),
        ]
    }

    /// Vectored `clwb_ranges` persists exactly what flushing each range
    /// serially persists: the `AllLost` images are byte-identical.
    #[test]
    fn clwb_ranges_matches_serial_flush_image() {
        let serial = dev();
        let vectored = dev();
        let hs = serial.handle();
        let hv = vectored.handle();
        for r in messy_commit(&hs) {
            hs.clwb_range(r.0, r.1);
        }
        hs.sfence();
        let ranges = messy_commit(&hv);
        hv.clwb_ranges(&ranges);
        hv.sfence();
        let a = serial.capture(CrashPolicy::AllLost);
        let b = vectored.capture(CrashPolicy::AllLost);
        for addr in [0usize, 128, 200, SHARD_BYTES - 8, SHARD_BYTES + 64] {
            assert_eq!(a.read_u64(addr), b.read_u64(addr), "divergence at {addr:#x}");
        }
        assert_eq!(b.read_u64(0), 1);
        assert_eq!(b.read_u64(SHARD_BYTES - 8), 4);
    }

    /// Crash-epoch sweep through the coalesced flush path: arm the crash at
    /// every persistence-op budget through a vectored commit followed by a
    /// fenced marker. Whenever the marker made it to PM, the fence before
    /// it had completed, so *all* coalesced lines must be durable; before
    /// that, each word is old-or-new but never torn garbage.
    #[test]
    fn clwb_ranges_crash_sweep_preserves_fence_order() {
        const MARKER: usize = 8 * 1024;
        for fuel in 1u64..40 {
            let d = dev();
            let h = d.handle();
            d.arm(CrashPlan::after_ops(fuel));
            let ranges = messy_commit(&h);
            h.clwb_ranges(&ranges);
            h.sfence();
            h.write_u64(MARKER, 0xAB);
            h.clwb(MARKER);
            h.sfence();
            let img = match d.take_image() {
                Some(img) => img,
                None => d.capture(CrashPolicy::AllLost),
            };
            let expect = [(0usize, 1u64), (128, 3), (200, 2), (SHARD_BYTES - 8, 4)];
            if img.read_u64(MARKER) == 0xAB {
                for (addr, v) in expect {
                    assert_eq!(
                        img.read_u64(addr),
                        v,
                        "marker durable but {addr:#x} lost (fuel={fuel})"
                    );
                }
            } else {
                for (addr, v) in expect {
                    let got = img.read_u64(addr);
                    assert!(got == 0 || got == v, "torn word at {addr:#x} (fuel={fuel}): {got}");
                }
            }
        }
    }

    /// The fused drain is observationally equivalent to clwb_ranges +
    /// sfence: same persisted image, same simulated clock, same stats.
    #[test]
    fn drain_lines_matches_clwb_sfence_image_and_time() {
        let unfused = dev();
        let fused = dev();
        let hu = unfused.handle();
        let hf = fused.handle();
        let ranges = messy_commit(&hu);
        hu.clwb_ranges(&ranges);
        let ru = hu.sfence();
        let ranges = messy_commit(&hf);
        let mut lines = Vec::new();
        crate::geometry::coalesce_lines(&ranges, &mut lines);
        let rf = hf.drain_lines(&lines);
        assert_eq!(rf.flushes, ru.flushes);
        assert_eq!(rf.stall_ns, ru.stall_ns);
        assert_eq!(hf.local_now_ns(), hu.local_now_ns());
        let su = unfused.stats();
        let sf = fused.stats();
        assert_eq!(sf.clwb_count, su.clwb_count);
        assert_eq!(sf.sfence_count, su.sfence_count);
        assert_eq!(sf.lines_persisted, su.lines_persisted);
        let a = unfused.capture(CrashPolicy::AllLost);
        let b = fused.capture(CrashPolicy::AllLost);
        for addr in [0usize, 128, 200, SHARD_BYTES - 8, SHARD_BYTES + 64] {
            assert_eq!(a.read_u64(addr), b.read_u64(addr), "divergence at {addr:#x}");
        }
        assert_eq!(b.read_u64(0), 1);
        assert_eq!(b.read_u64(SHARD_BYTES - 8), 4);
    }

    /// Crash-epoch sweep through the fused drain: once a later fenced
    /// marker is durable, the drained batch must be durable in full;
    /// before that, old-or-new per word, never torn.
    #[test]
    fn drain_lines_crash_sweep_preserves_fence_order() {
        const MARKER: usize = 8 * 1024;
        for fuel in 1u64..40 {
            let d = dev();
            let h = d.handle();
            d.arm(CrashPlan::after_ops(fuel));
            let ranges = messy_commit(&h);
            let mut lines = Vec::new();
            crate::geometry::coalesce_lines(&ranges, &mut lines);
            h.drain_lines(&lines);
            h.write_u64(MARKER, 0xAB);
            h.clwb(MARKER);
            h.sfence();
            let img = match d.take_image() {
                Some(img) => img,
                None => d.capture(CrashPolicy::AllLost),
            };
            let expect = [(0usize, 1u64), (128, 3), (200, 2), (SHARD_BYTES - 8, 4)];
            if img.read_u64(MARKER) == 0xAB {
                for (addr, v) in expect {
                    assert_eq!(
                        img.read_u64(addr),
                        v,
                        "marker durable but {addr:#x} lost (fuel={fuel})"
                    );
                }
            } else {
                for (addr, v) in expect {
                    let got = img.read_u64(addr);
                    assert!(got == 0 || got == v, "torn word at {addr:#x} (fuel={fuel}): {got}");
                }
            }
        }
    }

    /// Re-arming after a fired capture works through the armed-flag fast
    /// path (the flag is cleared when fuel runs out and set again on
    /// re-arm).
    #[test]
    fn crash_rearm_after_fire_still_captures() {
        let d = dev();
        let h = d.handle();
        d.arm(CrashPlan::after_ops(1));
        h.write_u64(0, 7);
        h.persist_range(0, 8);
        assert!(d.take_image().is_some());
        d.arm(CrashPlan::after_ops(1));
        h.write_u64(8, 9);
        h.persist_range(8, 8);
        assert!(d.take_image().is_some());
    }

    const SITE: &str = "mt/commit/fence";

    #[test]
    fn crash_point_targets_exact_hit_across_threads() {
        // 4 threads each execute the same labeled site 8 times; targeting
        // hit 13 must fire exactly once, at the 13th global execution
        // (whichever thread lands it), with the epoch protocol observed.
        let d = dev();
        d.arm(CrashPlan::at_site(SITE, 13));
        thread::scope(|s| {
            for t in 0..4usize {
                let h = d.handle();
                s.spawn(move || {
                    for i in 0..8usize {
                        h.write_u64(t * 4096 + i * 64, 1);
                        h.crash_point(SITE);
                    }
                });
            }
        });
        assert!(d.fired());
        assert_eq!(d.fired_at(), Some((SITE, 13)));
        assert_eq!(d.crash_epoch(), 2, "two increments per capture");
        // Hits stop counting once the plan fires.
        let total: u64 = d.site_hits().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn observe_plan_counts_all_hits_without_firing() {
        let d = dev();
        d.arm(CrashPlan::observe());
        thread::scope(|s| {
            for _ in 0..4 {
                let h = d.handle();
                s.spawn(move || {
                    for _ in 0..8 {
                        h.crash_point(SITE);
                    }
                });
            }
        });
        assert!(!d.fired());
        assert_eq!(d.site_hits(), vec![(SITE, 32)]);
        assert_eq!(d.observe(), (0, false), "observe never bumps the epoch");
    }

    #[test]
    fn crash_point_disarmed_and_fuel_armed_is_inert() {
        let d = dev();
        let h = d.handle();
        h.crash_point(SITE);
        assert!(d.site_hits().is_empty());
        d.arm(CrashPlan::after_ops(1000));
        h.crash_point(SITE);
        assert!(d.site_hits().is_empty(), "fuel plans do not count sites");
        d.disarm();
        h.write_u64(0, 1);
        assert!(!d.fired());
        // Timing off suppresses site captures like it does fuel ones.
        d.arm(CrashPlan::at_site(SITE, 1));
        d.set_timing(TimingMode::Off);
        h.crash_point(SITE);
        assert!(!d.fired());
        d.set_timing(TimingMode::On);
        h.crash_point(SITE);
        assert!(d.fired());
    }

    /// Setup helpers flip timing device-wide; a committer caught between
    /// its `clwb` and its `sfence` must still get its flushes completed.
    #[test]
    fn timing_off_fence_still_drains_the_handles_pending_flushes() {
        let dev = SharedPmemDevice::new(PmemConfig::new(4096));
        let a = dev.handle();
        a.write_u64(128, 0xACED);
        a.clwb(128);
        dev.set_timing(TimingMode::Off);
        let fences = dev.stats().sfence_count;
        let clock = a.local_now_ns();
        a.sfence();
        dev.set_timing(TimingMode::On);
        assert_eq!(dev.capture(CrashPolicy::AllLost).read_u64(128), 0xACED);
        assert_eq!(dev.stats().sfence_count, fences, "timing-off fences are not counted");
        assert_eq!(a.local_now_ns(), clock, "timing-off fences are free");
    }
}
