//! Thread-safe persistent-memory device and pool.
//!
//! [`crate::PmemDevice`] is `&mut self` and therefore single-threaded. The
//! concurrent SpecSPMT runtime (paper Section 4: per-thread log areas, a
//! global commit timestamp, and a *background* reclamation thread on a
//! dedicated core) needs many real OS threads issuing stores, flushes, and
//! fences against **one** device. [`SharedPmemDevice`] provides that with
//! `std::sync` primitives only, and so that threads meet only where the
//! modelled hardware makes them meet:
//!
//! * a **load takes no lock**: the volatile image is one `AtomicU64` per
//!   8-byte word. Stores take a lock per fixed-size **stripe**, the `Mutex`
//!   over its persisted bytes, so threads storing to different stripes
//!   (e.g. appending to their own log-block chains) proceed in parallel;
//! * the WPQ/media timing model is one small mutex-protected critical
//!   section, taken once per flush batch (the memory controller *is*
//!   shared);
//! * everything else a core does is **per handle**: each [`DeviceHandle`]
//!   owns a cell holding its simulated timeline, its event counters, its
//!   WPQ-drain histogram and the flushes it has issued but not fenced. The
//!   handle is the cell's only writer ([`specpmt_telemetry::owned`]), so an
//!   operation updates them with plain loads and stores; the device-wide
//!   clock, counters and histogram are computed by whoever asks, over the
//!   registered cells plus what dropped handles left behind;
//! * fences are **per thread**: a handle's `sfence` waits only for its own
//!   flushes, like `sfence` on the issuing core.
//!
//! Crash semantics match the single-threaded device: fenced (and
//! WPQ-accepted) flushes always survive, everything else survives per
//! [`CrashPolicy`]. Armed crash plans ([`CrashControl::arm`]) capture
//! the image *between* operations of whichever thread exhausts the fuel —
//! or at a labeled crash site ([`CrashControl::crash_point`]) when the
//! plan targets one; concurrently committing threads observe the capture
//! through the **crash epoch** ([`CrashControl::observe`]): a
//! transaction whose commit fence completed with no epoch change is
//! definitely in the image, one that overlapped a capture is a boundary
//! case (all-or-nothing).
//!
//! Why a load needs no lock: a word is the unit the model persists or tears
//! ([`PERSIST_WORD`]; Px86), and a store writes each word whole, merging a
//! partial one under the stripe lock, so a racing load sees each word
//! before or after it, never a mix. A reader that must see another
//! thread's bytes is ordered after them by a lock it holds — the 2PL stripe
//! CAS, the chain's area mutex, or the stripe lock for line snapshots and
//! captures — so `Relaxed` suffices, and a capture is still one instant.
//!
//! Lock ordering (deadlock freedom): the crash gate's mutex is only taken
//! while holding no other lock; below it the order is **handle registry →
//! a handle's flush list (handle creation order) → image shards (ascending
//! index)**, with the WPQ mutex a leaf. A capture takes all of them in that
//! order; a flush or fence its own flush list and then one shard at a time,
//! a store one shard, a load none. Crash fuel and [`SharedPmemDevice::now_ns`]
//! are therefore only ever used while holding none of these locks.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::alloc::{Reservation, SizeClassAllocator};
use crate::crash::{materialize, CrashControl, CrashGate, CrashImage, CrashPolicy};
use crate::geometry::{line_of, line_start, lines_touching, CACHE_LINE, PERSIST_WORD};
use crate::sites::Site;
use crate::stats::OwnedStats;
use crate::wpq::{PendingFlush, WpqModel};
use specpmt_telemetry::{HistogramSnapshot, OwnedCounter, OwnedHistogram};

use crate::{
    FenceReport, PmemConfig, PmemError, PmemStats, PoolHeader, TimingMode, BUMP_OFF,
    POOL_HEADER_SIZE,
};

/// Bytes per image shard (one mutex each). Must be a multiple of
/// [`CACHE_LINE`]. Small enough that per-thread log chains rarely share a
/// shard, large enough that a typical record touches one or two.
pub const SHARD_BYTES: usize = 4096;

#[derive(Debug)]
struct Shard {
    /// Little-endian words, stored only under `persisted`'s lock.
    volatile: Box<[AtomicU64]>,
    persisted: Mutex<Vec<u8>>,
}

/// Copies `buf.len()` bytes from byte `off` of a stripe, one whole-word
/// load per word touched.
fn load_words(words: &[AtomicU64], off: usize, buf: &mut [u8]) {
    let word = |i: usize| words[i].load(Ordering::Relaxed).to_le_bytes();
    let (w, first) = (off / PERSIST_WORD, off % PERSIST_WORD);
    let head = buf.len().min((PERSIST_WORD - first) % PERSIST_WORD);
    let (head_buf, body) = buf.split_at_mut(head);
    if head != 0 {
        head_buf.copy_from_slice(&word(w)[first..first + head]);
    }
    let w = w + usize::from(first != 0);
    let whole = body.len() / PERSIST_WORD;
    let mut chunks = body.chunks_exact_mut(PERSIST_WORD);
    for (chunk, i) in (&mut chunks).zip(w..) {
        chunk.copy_from_slice(&word(i));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&word(w + whole)[..tail.len()]);
    }
}

/// Stores `run` at byte `off` of a stripe, a whole-word store per word, under
/// the caller's stripe lock: merging a partial word races no other store. The
/// merge is in a register; patching bytes in memory stalls the wide load.
fn store_words(words: &[AtomicU64], off: usize, run: &[u8]) {
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let merge = |i: usize, mask: u64, bits: u64| {
        let old = words[i].load(Ordering::Relaxed);
        words[i].store(old & !mask | bits & mask, Ordering::Relaxed);
    };
    let (w, first) = (off / PERSIST_WORD, off % PERSIST_WORD);
    if run.len() < PERSIST_WORD {
        // At most two words: lay the run over a 128-bit window from `w`.
        let bits = run.iter().rev().fold(0u128, |v, &b| v << 8 | u128::from(b)) << (8 * first);
        let mask = ((1u128 << (8 * run.len())) - 1) << (8 * first);
        merge(w, mask as u64, bits as u64);
        if mask >> 64 != 0 {
            merge(w + 1, (mask >> 64) as u64, (bits >> 64) as u64);
        }
        return;
    }
    // A partial first (last) word takes its bytes from the first (last) 8.
    let head = (PERSIST_WORD - first) % PERSIST_WORD;
    if head != 0 {
        merge(w, u64::MAX << (8 * first), le(&run[..PERSIST_WORD]) << (8 * first));
    }
    let w = w + usize::from(head != 0);
    let chunks = run[head..].chunks_exact(PERSIST_WORD);
    let tail = chunks.remainder().len();
    let whole = chunks.len();
    for (chunk, i) in chunks.zip(w..) {
        words[i].store(le(chunk), Ordering::Relaxed);
    }
    if tail != 0 {
        let shift = 8 * (PERSIST_WORD - tail);
        merge(w + whole, u64::MAX >> shift, le(&run[run.len() - PERSIST_WORD..]) >> shift);
    }
}

/// What one [`DeviceHandle`] writes and the rest of the device may read.
/// The handle is the only writer of the counters; the flush list is behind
/// a mutex only the handle and a crash capture ever take.
#[derive(Debug, Default)]
struct HandleCell {
    /// The handle's core-local timeline (simulated ns).
    clock: OwnedCounter,
    stats: OwnedStats,
    /// WPQ-drain waits of this handle's fences that completed a flush.
    wpq_drain_ns: OwnedHistogram,
    /// Flushes issued and not yet fenced, in issue order.
    unfenced: Mutex<Vec<PendingFlush>>,
}

/// The max over the cells' timelines: the device-global time.
fn latest(cells: &[Arc<HandleCell>]) -> u64 {
    cells.iter().map(|c| c.clock.get()).max().unwrap_or(0)
}

#[derive(Debug)]
struct DevInner {
    cfg: PmemConfig,
    size: usize,
    shards: Vec<Shard>,
    wpq: Mutex<WpqModel>,
    /// The handle registry: every cell in creation order. The first is the
    /// **retired** cell no handle owns: a dropped handle folds its
    /// timeline, counters, histogram and still-unfenced flushes into it
    /// (nobody will fence those, but the ones the WPQ accepted are in the
    /// persistence domain and must still show in a crash image), so every
    /// device-wide view is one fold over the cells.
    cells: Mutex<Vec<Arc<HandleCell>>>,
    timing_on: AtomicBool,
    /// Fault injection (plan, fired image, site-hit counts, capture
    /// epoch): one flag load per persistence op or labeled site while
    /// nothing is armed, never the gate's lock.
    gate: CrashGate,
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
        // A struct-literal config skips `with_size`'s rounding; a partial
        // last line would put `clwb` past the end of its shard.
        let cfg = cfg.clone().with_size(cfg.size);
        let size = cfg.size;
        let shards = size.div_ceil(SHARD_BYTES);
        let shards = (0..shards)
            .map(|i| {
                let len = SHARD_BYTES.min(size - i * SHARD_BYTES);
                // Collecting from a `Vec<u64>` reuses its one zeroed allocation.
                let words = vec![0u64; len / PERSIST_WORD].into_iter().map(AtomicU64::new);
                Shard { volatile: words.collect(), persisted: Mutex::new(vec![0; len]) }
            })
            .collect();
        let wpq = Mutex::new(WpqModel::new(&cfg));
        Self {
            inner: Arc::new(DevInner {
                cfg,
                size,
                shards,
                wpq,
                cells: Mutex::new(vec![Arc::default()]),
                timing_on: AtomicBool::new(true),
                gate: CrashGate::default(),
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

    /// Creates a per-thread operation handle and registers its cell. Its
    /// timeline starts at the current device time.
    pub fn handle(&self) -> DeviceHandle {
        let cell = Arc::new(HandleCell::default());
        let mut cells = self.cells();
        cell.clock.raise(latest(&cells));
        cells.push(Arc::clone(&cell));
        drop(cells);
        DeviceHandle { dev: self.clone(), cell, plan: RefCell::new(Vec::new()) }
    }

    /// Current simulated time in nanoseconds, global across threads: the
    /// max over every handle's timeline.
    pub fn now_ns(&self) -> u64 {
        latest(&self.cells())
    }

    /// Snapshot of the accumulated event counters, summed over handles.
    pub fn stats(&self) -> PmemStats {
        let mut total = PmemStats::default();
        for cell in self.cells().iter() {
            cell.stats.add_into(&mut total);
        }
        total
    }

    /// Snapshot of the WPQ-drain wait histogram: the nanoseconds each
    /// fence that completed at least one flush spent waiting for WPQ
    /// acceptance, merged over handles.
    pub fn wpq_drain_histogram(&self) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for cell in self.cells().iter() {
            total.merge(&cell.wpq_drain_ns.snapshot());
        }
        total
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

    /// Copies every shard's volatile image into its persisted image — the
    /// orderly-shutdown (`wbnoinvd`) equivalent. Unfenced flushes are
    /// dropped (their contents are covered by the copy).
    pub fn flush_everything(&self) {
        for cell in self.cells().iter() {
            cell.unfenced.lock().expect("flush lock").clear();
        }
        for shard in &self.inner.shards {
            load_words(&shard.volatile, 0, &mut shard.persisted.lock().expect("shard lock"));
        }
    }

    // --- internals ------------------------------------------------------

    fn cells(&self) -> MutexGuard<'_, Vec<Arc<HandleCell>>> {
        self.inner.cells.lock().expect("handle registry lock")
    }

    fn timing_is_on(&self) -> bool {
        self.inner.timing_on.load(Ordering::SeqCst)
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), PmemError> {
        if addr.checked_add(len).is_none_or(|end| end > self.inner.size) {
            return Err(PmemError::OutOfBounds { addr, len, size: self.inner.size });
        }
        Ok(())
    }

    /// Calls `f(shard, offset_in_shard, range_in_buf)`, taking no lock, for
    /// each shard stripe overlapped by `[addr, addr + len)`, in order.
    fn for_stripes(
        &self,
        addr: usize,
        len: usize,
        mut f: impl FnMut(&Shard, usize, std::ops::Range<usize>),
    ) {
        let mut off = 0;
        while off < len {
            let a = addr + off;
            let in_shard = a % SHARD_BYTES;
            let n = (SHARD_BYTES - in_shard).min(len - off);
            f(&self.inner.shards[a / SHARD_BYTES], in_shard, off..off + n);
            off += n;
        }
    }

    /// Calls `f(volatile, persisted, offset_in_shard, item)` under the shard
    /// lock for each item of a batch, where `line_of(item)` is its cache
    /// line: the lock is taken once per run of adjacent lines in the same
    /// shard, not once per line (a sorted batch takes each shard once).
    fn for_line_runs<T>(
        &self,
        items: &[T],
        line_of: impl Fn(&T) -> usize,
        mut f: impl FnMut(&[AtomicU64], &mut [u8], usize, &T),
    ) {
        let mut items = items.iter().map(|item| (line_start(line_of(item)), item)).peekable();
        while let Some(&(first, _)) = items.peek() {
            let shard_idx = first / SHARD_BYTES;
            let shard = &self.inner.shards[shard_idx];
            let mut persisted = shard.persisted.lock().expect("shard lock");
            while let Some((start, item)) = items.next_if(|(s, _)| s / SHARD_BYTES == shard_idx) {
                f(&shard.volatile, &mut persisted, start % SHARD_BYTES, item);
            }
        }
    }

    /// Copies `buf.len()` bytes at `addr` out of the volatile image: the
    /// untimed load under every read and peek, which needs no handle.
    fn peek_into(&self, addr: usize, buf: &mut [u8]) {
        self.check(addr, buf.len()).expect("shared pmem read out of bounds");
        self.for_stripes(addr, buf.len(), |shard, off, range| {
            load_words(&shard.volatile, off, &mut buf[range]);
        });
    }

    fn peek_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.peek_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Copies fenced (or timing-off) line snapshots into the persisted
    /// image.
    fn apply_persisted(&self, flushes: &[PendingFlush]) {
        self.for_line_runs(
            flushes,
            |p| p.line,
            |_, persisted, off, p| persisted[off..off + CACHE_LINE].copy_from_slice(&p.snapshot),
        );
    }

    /// One persistence-affecting operation is about to happen. Called
    /// while holding **no** locks (a capture takes the registry, every
    /// flush list and every shard lock).
    fn tick_fuel(&self) {
        self.inner.gate.tick_fuel(self.timing_is_on(), |policy| self.capture(policy));
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
    /// instant: the registry, every handle's flush list and *every* shard
    /// lock are held together while the image is built, so no concurrent
    /// store, flush or fence can land between shard copies. Without this,
    /// a commit fence racing the capture could reach a high-address shard
    /// (copied late) while its log record lives in a low-address shard
    /// (copied early) — an image no power failure can produce, which would
    /// break any cross-address ordering invariant (e.g. the flight
    /// recorder's receipt-after-fence rule). The module docs give the lock
    /// order that keeps this sweep deadlock-free.
    ///
    /// `materialize` applies the unfenced flushes, and draws its
    /// `Random(seed)` stream over them, in registry order: dropped handles'
    /// leftovers, then live handles in creation order, each handle's in
    /// issue order — with one handle, plain issue order, as on
    /// [`crate::PmemDevice`].
    fn capture(&self, policy: CrashPolicy) -> CrashImage {
        let cells = self.cells();
        let unfenced: Vec<_> =
            cells.iter().map(|c| c.unfenced.lock().expect("flush lock")).collect();
        let shards = &self.inner.shards;
        let held: Vec<_> = shards.iter().map(|s| s.persisted.lock().expect("shard lock")).collect();
        let mut volatile = vec![0; self.inner.size];
        let mut persisted = Vec::with_capacity(self.inner.size);
        for ((s, bytes), dst) in shards.iter().zip(&held).zip(volatile.chunks_mut(SHARD_BYTES)) {
            load_words(&s.volatile, 0, dst);
            persisted.extend_from_slice(bytes);
        }
        let pending = unfenced.iter().flat_map(|list| list.iter());
        materialize(persisted, &volatile, pending, latest(&cells), policy)
    }
}

/// Per-thread operation handle over a [`SharedPmemDevice`].
///
/// Mirrors the [`crate::PmemDevice`] API. Flush/fence state is private to
/// the handle: `sfence` orders only this handle's outstanding flushes, like
/// `sfence` on the issuing core. The handle also owns its **core clock** —
/// a private simulated timeline advanced by this handle's loads, stores,
/// flush issues, and fence stalls — and its own event counters. Distinct
/// handles model distinct cores: their fence stalls overlap rather than
/// serialize, while the shared WPQ and media model still couple them
/// through bandwidth. The device-global clock
/// ([`SharedPmemDevice::now_ns`]) is the maximum over all timelines.
///
/// A handle is one core: it may move to another thread (`Send`) but is not
/// `Sync`, which is what lets its bookkeeping be single-writer
/// ([`specpmt_telemetry::owned`]) instead of lock-prefixed:
///
/// ```compile_fail
/// fn shareable<T: Sync>() {}
/// shareable::<specpmt_pmem::DeviceHandle>();
/// ```
///
/// Dropping a handle folds its counters and timeline into the device's
/// retired totals: the device-wide views do not move.
#[derive(Debug)]
pub struct DeviceHandle {
    dev: SharedPmemDevice,
    cell: Arc<HandleCell>,
    /// Reusable flush-plan scratch for [`Self::clwb_ranges`] (cleared,
    /// capacity kept: planning a commit's flushes allocates nothing in
    /// steady state). A `RefCell` and not in the cell: only the owning
    /// thread plans, and crash fuel is burned between planning a batch and
    /// issuing it, when no lock may be held. It also makes the handle
    /// `!Sync`.
    plan: RefCell<Vec<usize>>,
}

impl Drop for DeviceHandle {
    /// Folds the cell into the retired one and unregisters it. The registry
    /// lock makes the dropping thread the retired cell's one writer.
    /// Poisoned locks are entered anyway: every update below leaves the
    /// registry valid, and a drop must not panic.
    fn drop(&mut self) {
        let mut cells = self.dev.inner.cells.lock().unwrap_or_else(|e| e.into_inner());
        cells.retain(|c| !Arc::ptr_eq(c, &self.cell));
        let (retired, mine) = (&cells[0], &self.cell);
        retired.clock.raise(mine.clock.get());
        retired.stats.absorb(&mine.stats);
        retired.wpq_drain_ns.absorb(&mine.wpq_drain_ns.snapshot());
        let mut orphans = retired.unfenced.lock().unwrap_or_else(|e| e.into_inner());
        orphans.append(&mut mine.unfenced.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

impl DeviceHandle {
    /// The shared device this handle operates on.
    pub fn device(&self) -> &SharedPmemDevice {
        &self.dev
    }

    /// This handle's core-local simulated time in nanoseconds.
    pub fn local_now_ns(&self) -> u64 {
        self.cell.clock.get()
    }

    /// Advances the core-local clock by `ns`; returns the new local time.
    fn local_charge(&self, ns: u64) -> u64 {
        self.cell.clock.add(ns)
    }

    /// Moves the core-local clock up to the device-global time: where a
    /// freshly created handle would start.
    fn catch_up(&self) {
        self.cell.clock.raise(self.dev.now_ns());
    }

    fn unfenced(&self) -> MutexGuard<'_, Vec<PendingFlush>> {
        self.cell.unfenced.lock().expect("flush lock")
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
            let _stores = shard.persisted.lock().expect("shard lock");
            store_words(&shard.volatile, off, &data[range]);
        });
        if self.dev.timing_is_on() {
            let words = data.len().div_ceil(PERSIST_WORD) as u64;
            self.local_charge(words * self.dev.inner.cfg.store_word_ns);
            self.cell.stats.bytes_stored.add(data.len() as u64);
        }
        Ok(())
    }

    /// Loads `buf.len()` bytes from `addr` in the volatile image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        self.dev.peek_into(addr, buf);
        if self.dev.timing_is_on() {
            let words = buf.len().div_ceil(PERSIST_WORD) as u64;
            self.local_charge(words * self.dev.inner.cfg.load_word_ns);
            self.cell.stats.bytes_loaded.add(buf.len() as u64);
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
        self.dev.peek_into(addr, buf);
    }

    /// Reads a `u64` from the volatile image without charging any cost.
    pub fn peek_u64(&self, addr: usize) -> u64 {
        self.dev.peek_u64(addr)
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
    /// each overlapped image shard once, the WPQ lock once, and this
    /// handle's flush list once — instead of once *per line* — which is
    /// where the per-commit shard-mutex traffic of the range-at-a-time path
    /// went.
    ///
    /// Crash semantics are unchanged: every line still burns one unit of
    /// crash fuel (fuel is burned for the whole batch up front, while no
    /// lock is held, so an armed capture can fire between any two lines of
    /// the batch — the same nondeterminism interleaved flushes have), each
    /// line snapshot joins the handle's unfenced flushes individually, and
    /// nothing crosses a fence (the batch is issued entirely between two
    /// fences of this handle).
    ///
    /// # Panics
    ///
    /// Panics if a line is out of bounds or the slice is not sorted and
    /// deduplicated.
    pub fn clwb_lines(&self, lines: &[usize]) {
        let Some(&last) = lines.last() else { return };
        assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "vectored flush requires a sorted, deduplicated batch"
        );
        assert!(line_start(last) < self.dev.size(), "vectored flush out of bounds");
        // Fuel first, while no lock is held: a fuel capture takes this
        // handle's flush list and every shard lock.
        for _ in lines {
            self.dev.tick_fuel();
        }
        let mut unfenced = self.unfenced();
        let first = unfenced.len();
        unfenced.reserve(lines.len());
        self.dev.for_line_runs(
            lines,
            |&line| line,
            |volatile, _, off, &line| {
                // Filled in place: moving a line just stored word by word
                // stalls on the wide loads of the move.
                unfenced.push(PendingFlush { line, accepted_at: 0, snapshot: [0; CACHE_LINE] });
                let i = unfenced.len() - 1;
                load_words(volatile, off, &mut unfenced[i].snapshot);
            },
        );
        if !self.dev.timing_is_on() {
            self.dev.apply_persisted(&unfenced[first..]);
            unfenced.truncate(first);
            return;
        }
        // The whole batch enters the WPQ under one lock acquisition, each
        // line at the simulated instant its serial `clwb` would have issued.
        let issue_ns = self.dev.inner.cfg.clwb_issue_ns;
        let t0 = self.local_now_ns();
        let mut w = self.dev.inner.wpq.lock().expect("wpq lock");
        for (k, p) in unfenced[first..].iter_mut().enumerate() {
            p.accepted_at = self.wpq_accept(&mut w, p.line, t0 + (k as u64 + 1) * issue_ns);
        }
        drop(w);
        self.local_charge(lines.len() as u64 * issue_ns);
        self.cell.stats.clwb_count.add(lines.len() as u64);
    }

    /// WPQ + media accounting for one line write-back; returns the time the
    /// flush is accepted into the persistence domain. The caller holds the
    /// WPQ lock — the batched flush path accepts a whole commit's lines
    /// under one acquisition.
    fn wpq_accept(&self, w: &mut WpqModel, line: usize, now: u64) -> u64 {
        let (accepted_at, sequential) = w.accept(&self.dev.inner.cfg, line, now);
        self.cell.stats.lines_persisted.add(1);
        if sequential {
            self.cell.stats.seq_line_hits.add(1);
        }
        accepted_at
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
        let mut plan = self.plan.borrow_mut();
        crate::geometry::coalesce_lines(ranges, &mut plan);
        self.clwb_lines(&plan);
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
        }
        let mut mine = self.unfenced();
        let mut report = FenceReport::default();
        if timed {
            let target = mine.iter().map(|p| p.accepted_at).max().unwrap_or(0);
            let stall_ns = target.saturating_sub(self.local_now_ns());
            let stats = &self.cell.stats;
            stats.sfence_count.add(1);
            stats.fence_stall_ns.add(stall_ns);
            self.local_charge(stall_ns + self.dev.inner.cfg.sfence_base_ns);
            report = FenceReport { stall_ns, flushes: mine.len() as u64 };
            if report.flushes > 0 {
                self.cell.wpq_drain_ns.record(stall_ns);
            }
        }
        self.dev.apply_persisted(&mine);
        mine.clear();
        report
    }

    /// Convenience: `clwb_range` followed by `sfence`.
    pub fn persist_range(&self, addr: usize, len: usize) {
        self.clwb_range(addr, len);
        self.sfence();
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
    pub fn crash_point(&self, site: Site) {
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
    inner: Mutex<PoolInner>,
}

/// The allocator and the handle the pool persists its own metadata (bump
/// pointer, root slots) through. Sharing the allocator's lock keeps
/// concurrent allocations persisting monotonically increasing bump values
/// and the handle single-writer.
#[derive(Debug)]
struct PoolInner {
    alloc: SizeClassAllocator,
    handle: DeviceHandle,
}

impl PoolInner {
    /// Writes and immediately persists one metadata word, on a timeline
    /// that starts at the current device time (as if a core picked the
    /// job up now).
    fn persist_u64(&self, addr: usize, value: u64) {
        self.handle.catch_up();
        self.handle.write_u64(addr, value);
        self.handle.persist_range(addr, 8);
    }
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
        let handle = dev.handle();
        handle.write(0, &PoolHeader::formatted().encode());
        handle.persist_range(0, POOL_HEADER_SIZE);
        dev.set_timing(prev);
        let alloc = SizeClassAllocator::new(POOL_HEADER_SIZE, dev.size());
        Self { dev, inner: Mutex::new(PoolInner { alloc, handle }) }
    }

    fn inner(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().expect("pool lock")
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
        self.inner().alloc.reserve(size, align)
    }

    /// Allocates and immediately persists the bump pointer (setup and
    /// runtime-internal metadata).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_direct(&self, size: usize, align: usize) -> Result<usize, PmemError> {
        let mut inner = self.inner();
        let r = inner.alloc.reserve(size, align)?;
        if let Some(bump) = r.new_bump {
            inner.persist_u64(BUMP_OFF, bump);
        }
        Ok(r.off)
    }

    /// Returns a block to the volatile free list.
    pub fn free(&self, off: usize, size: usize, align: usize) {
        self.inner().alloc.release(off, size, align);
    }

    /// Reads root slot `i`.
    pub fn root(&self, i: usize) -> u64 {
        self.dev.peek_u64(crate::root_off(i))
    }

    /// Writes and immediately persists root slot `i`.
    pub fn set_root_direct(&self, i: usize, value: u64) {
        self.inner().persist_u64(crate::root_off(i), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPlan, POOL_MAGIC};
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

    /// A struct-literal size skips `with_size`'s rounding; the last shard
    /// still ends on a cache-line boundary, so flushing it is in range.
    #[test]
    fn struct_literal_size_is_rounded_up_to_a_line() {
        let d = SharedPmemDevice::new(PmemConfig { size: 100, ..PmemConfig::default() });
        assert_eq!((d.size(), d.config().size), (128, 128));
        let h = d.handle();
        h.write_u64(64, 7);
        h.clwb(64);
        h.sfence();
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(64), 7);
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

    /// A device whose WPQ accepts nothing before a capture looks: every
    /// unfenced flush is still in flight, so a `Random` capture draws one
    /// coin per flush and the order of the draws shows in the image.
    fn slow_wpq() -> SharedPmemDevice {
        SharedPmemDevice::new(PmemConfig { wpq_accept_ns: 1 << 30, ..PmemConfig::new(64 * 1024) })
    }

    /// Line `i` holds `i + 1`, flushed but not fenced, from `flush_order`.
    fn one_handle_flushing(flush_order: [usize; 4], seed: u64) -> CrashImage {
        let d = slow_wpq();
        let h = d.handle();
        for i in 0..4 {
            h.write_u64(i * CACHE_LINE, i as u64 + 1);
        }
        for i in flush_order {
            h.clwb(i * CACHE_LINE);
        }
        d.capture(CrashPolicy::Random(seed))
    }

    #[test]
    fn random_capture_draws_over_handles_in_creation_then_issue_order() {
        // Two handles flush alternately, the younger one first.
        let interleaved = |seed| {
            let d = slow_wpq();
            let (a, b) = (d.handle(), d.handle());
            for (i, h) in [&b, &a, &b, &a].into_iter().enumerate() {
                h.write_u64(i * CACHE_LINE, i as u64 + 1);
                h.clwb(i * CACHE_LINE);
            }
            d.capture(CrashPolicy::Random(seed))
        };
        let mut differs_from_issue_order = false;
        for seed in 0..16 {
            let img = interleaved(seed);
            assert_eq!(img, interleaved(seed), "a seeded capture repeats");
            // `a` was created first and flushed lines 1 and 3; then `b`'s 0 and 2.
            assert_eq!(img, one_handle_flushing([1, 3, 0, 2], seed), "seed {seed}");
            differs_from_issue_order |= img != one_handle_flushing([0, 1, 2, 3], seed);
        }
        assert!(differs_from_issue_order, "the order must be observable for the test to mean much");
    }

    #[test]
    fn all_lost_keeps_accepted_unfenced_lines_of_every_handle() {
        let d = dev();
        let (a, b) = (d.handle(), d.handle());
        a.write_u64(0, 1);
        a.clwb(0);
        b.write_u64(CACHE_LINE, 2);
        b.clwb(CACHE_LINE);
        // Time passes on one core: the WPQ has long accepted both lines.
        a.advance(10_000);
        b.write_u64(2 * CACHE_LINE, 3);
        b.clwb(2 * CACHE_LINE); // issued on b's (earlier) timeline: accepted by now too
        a.write_u64(3 * CACHE_LINE, 4);
        a.clwb(3 * CACHE_LINE); // issued at the device's latest instant: still in flight
        let img = d.capture(CrashPolicy::AllLost);
        let got: Vec<u64> = (0..4).map(|i| img.read_u64(i * CACHE_LINE)).collect();
        assert_eq!(got, [1, 2, 3, 0]);
    }

    #[test]
    fn dropping_a_handle_moves_nothing_and_its_accepted_flush_survives() {
        let d = dev();
        let h = d.handle();
        h.write_u64(CACHE_LINE, 8);
        h.clwb(CACHE_LINE);
        h.sfence();
        h.write_u64(0, 7);
        h.clwb(0);
        h.advance(10_000); // the unfenced flush of line 0 is accepted by now
        let before = (d.stats(), d.now_ns(), d.wpq_drain_histogram());
        assert_eq!((before.0.sfence_count, before.2.count()), (1, 1));
        drop(h);
        assert_eq!((d.stats(), d.now_ns(), d.wpq_drain_histogram()), before);
        let img = d.capture(CrashPolicy::AllLost);
        assert_eq!((img.read_u64(0), img.read_u64(CACHE_LINE)), (7, 8));
        assert_eq!(d.handle().local_now_ns(), before.1, "later handles start past retired ones");
        d.flush_everything();
        d.handle().write_u64(0, 9);
        assert_eq!(d.capture(CrashPolicy::AllLost).read_u64(0), 7, "orphans go with the rest");
    }

    #[test]
    fn eight_threads_sum_to_exact_stats_and_the_max_timeline() {
        const OPS: usize = 10_000;
        let d = SharedPmemDevice::new(PmemConfig::new(8 * SHARD_BYTES));
        let handles: Vec<DeviceHandle> = thread::scope(|s| {
            let workers: Vec<_> = (0..8usize)
                .map(|t| {
                    let h = d.handle();
                    s.spawn(move || {
                        for i in 0..OPS {
                            let addr = t * SHARD_BYTES + (i / 4 % 8) * CACHE_LINE;
                            match i % 4 {
                                0 => h.write_u64(addr, i as u64),
                                1 => assert_eq!(h.read_u64(addr), i as u64 - 1),
                                2 => h.clwb(addr),
                                _ => assert_eq!(h.sfence().flushes, 1),
                            }
                        }
                        h
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        let each = (8 * OPS / 4) as u64;
        let want = PmemStats {
            clwb_count: each,
            sfence_count: each,
            lines_persisted: each,
            bytes_stored: 8 * each,
            bytes_loaded: 8 * each,
            // Timing-dependent, but still sums: compared against themselves.
            fence_stall_ns: d.stats().fence_stall_ns,
            seq_line_hits: d.stats().seq_line_hits,
        };
        assert_eq!(d.stats(), want);
        assert_eq!(d.wpq_drain_histogram().count(), each);
        assert_eq!(d.wpq_drain_histogram().sum, want.fence_stall_ns);
        let latest = handles.iter().map(DeviceHandle::local_now_ns).max().unwrap();
        assert_eq!(d.now_ns(), latest);
        // Retiring half of them changes neither view.
        let mut handles = handles;
        handles.truncate(4);
        assert_eq!((d.stats(), d.now_ns()), (want, latest));
    }

    #[test]
    fn handles_and_pools_cross_threads_by_move() {
        fn sendable<T: Send>() {}
        fn shareable<T: Sync>() {}
        sendable::<DeviceHandle>(); // `!Sync` is the `compile_fail` doctest on the type
        sendable::<SharedPmemPool>();
        shareable::<SharedPmemPool>();
        shareable::<SharedPmemDevice>();
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
    fn wpq_telemetry_tracks_drains() {
        let d = dev();
        let h = d.handle();
        assert_eq!(d.wpq_drain_histogram().count(), 0);
        // Fence with nothing pending: no drain observation.
        h.sfence();
        assert_eq!(d.wpq_drain_histogram().count(), 0);
        // A burst of flushes then a fence: one drain observation.
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
        assert_eq!(d.observe(), (0, false));
        d.arm(CrashPlan::after_ops(1));
        h.write_u64(0, 1); // fuel 1 -> 0
        h.write_u64(8, 2); // fires before this op
        assert!(d.fired());
        assert_eq!(d.observe(), (2, true), "two increments per capture");
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

    /// The byte↔word conversions at every alignment: runs stored at 32
    /// offsets straddling a stripe seam, 0..=40 bytes long, read back
    /// through `read`, `peek_into` and a capture against a byte model,
    /// with the bytes around each run intact.
    #[test]
    fn unaligned_runs_round_trip_across_a_stripe_seam() {
        let d = SharedPmemDevice::new(PmemConfig::new(2 * SHARD_BYTES));
        let h = d.handle();
        let mut model = vec![0u8; d.size()];
        let mut fill = 0u8;
        for addr in SHARD_BYTES - 16..SHARD_BYTES + 16 {
            for len in 0..=40 {
                fill = fill.wrapping_add(1);
                let data: Vec<u8> = (0..len).map(|i| fill ^ (i as u8).wrapping_mul(37)).collect();
                h.write(addr, &data);
                model[addr..addr + len].copy_from_slice(&data);
                let window = addr - 9..addr + len + 9;
                let mut got = vec![0u8; window.len()];
                h.read(window.start, &mut got);
                assert_eq!(got, model[window.clone()], "read at {addr:#x}+{len}");
                got.fill(0);
                h.peek_into(window.start, &mut got);
                assert_eq!(got, model[window.clone()], "peek_into at {addr:#x}+{len}");
                let mut exact = vec![0u8; len];
                h.read(addr, &mut exact);
                assert_eq!(exact, data, "exact read at {addr:#x}+{len}");
            }
            let img = d.capture(CrashPolicy::AllSurvive);
            assert_eq!(img.as_bytes(), &model[..], "capture after runs at {addr:#x}");
        }
    }

    /// A load racing stores sees each word whole, and a capture taken
    /// mid-traffic is one instant. One writer stores alternating byte-uniform
    /// words to the eight words of a line; the other stores 24-byte runs
    /// at 4 bytes past a word boundary, so words 0, 3, 4 and 7 are
    /// half-written at the runs' edges. Every value a word can hold is
    /// then byte-uniform (per 4-byte half, for the edge words), and a load
    /// or capture that mixed two stores within one word would show a
    /// non-uniform word or half.
    #[test]
    fn racing_loads_see_whole_words_and_captures_one_instant() {
        const ROUNDS: usize = 40_000;
        const LINE: usize = SHARD_BYTES + CACHE_LINE; // not the stripe's first line
        let d = dev();
        let legal = |v: u64, word: usize| {
            let b = v.to_le_bytes();
            let uniform = |s: &[u8]| s.iter().all(|&x| x == s[0]);
            let halves = matches!(word, 0 | 3 | 4 | 7);
            b.iter().all(|x| [0, 0xA1, 0xA2, 0xB1, 0xB2].contains(x))
                && if halves { uniform(&b[..4]) && uniform(&b[4..]) } else { uniform(&b) }
        };
        let start = std::sync::Barrier::new(3);
        thread::scope(|s| {
            let (a, b) = (d.handle(), d.handle());
            let start = &start;
            let words = s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS * 8 {
                    let fill = [0xA1u8, 0xA2][i / 8 % 2];
                    a.write_u64(LINE + i % 8 * 8, u64::from_ne_bytes([fill; 8]));
                }
            });
            let runs = s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS * 2 {
                    let fill = [0xB1u8, 0xB2][i / 2 % 2];
                    b.write(LINE + 4 + i % 2 * 32, &[fill; 24]);
                }
            });
            let r = d.handle();
            start.wait();
            let (mut loads, mut captures) = (0, 0);
            let mut line = [0u8; CACHE_LINE];
            while !(words.is_finished() && runs.is_finished()) || captures == 0 {
                for w in 0..8 {
                    let v = r.read_u64(LINE + w * 8);
                    assert!(legal(v, w), "read_u64 of word {w}: {v:#018x}");
                }
                r.peek_into(LINE, &mut line);
                for (w, chunk) in line.chunks_exact(8).enumerate() {
                    let v = u64::from_le_bytes(chunk.try_into().expect("a word"));
                    assert!(legal(v, w), "peek_into of word {w}: {v:#018x}");
                }
                loads += 1;
                if loads % 32 == 0 {
                    let img = d.capture(CrashPolicy::AllSurvive);
                    for w in 0..8 {
                        let v = img.read_u64(LINE + w * 8);
                        assert!(legal(v, w), "capture of word {w}: {v:#018x}");
                    }
                    captures += 1;
                }
            }
        });
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

    const SITE: Site = Site::MtCommitFence;

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
        assert_eq!(d.observe().0, 2, "two increments per capture");
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
