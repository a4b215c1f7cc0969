//! Concurrent SpecSPMT: real OS threads over one shared pool, plus the
//! background reclamation daemon.
//!
//! [`crate::SpecSpmt`] is one log chain driven by one thread. This module
//! is the paper's multi-threaded design, one chain per thread, on top of
//! [`specpmt_pmem::SharedPmemDevice`] (several chains stepped round-robin
//! from one thread are several [`TxHandle`]s of one runtime):
//!
//! * [`SpecSpmtShared`] owns the pool, the global commit-timestamp counter
//!   (an `AtomicU64` standing in for `rdtscp`), one log-chain slot per
//!   thread, and the shared free-block list;
//! * each application thread holds a [`TxHandle`] — its own
//!   [`specpmt_pmem::DeviceHandle`] (private flush/fence state) appending to
//!   its own log chain, so disjoint threads never contend beyond the
//!   device's internal sharding;
//! * [`ReclaimDaemon`] is a real `std::thread` (the paper's dedicated
//!   reclamation core): it periodically feeds the [`crate::FreshnessIndex`] the
//!   records **all** threads *committed* since its last cycle, compacts
//!   each chain, and splices the result in with the two-fence protocol
//!   (persist the new chain, fence; swap the 8-byte head pointer, fence);
//! * under [`ConcurrentConfig::group_commit`], the runtime runs one more
//!   thread of its own: the group-commit drain thread, which issues every
//!   batch fence ([`specpmt_txn::group`]).
//!
//! The on-PM layout (root slots, block chains, record encoding) is
//! identical to the sequential runtime, so one recovery engine
//! ([`crate::recovery::recover_image_opts`]) repairs images from either —
//! and so is the code that writes it: a [`TxHandle`] runs the same record
//! protocol (`engine::TxLog`) and the same reclamation steps
//! ([`crate::reclaim`]) as [`crate::SpecSpmt`], over a [`SharedStore`]
//! instead of a pool. This module holds only what concurrency adds: the
//! atomic timestamp, the per-chain locks, group commit, the flight
//! recorder, aborts, and the daemons.
//!
//! # Freshness across threads
//!
//! An entry may be dropped only when a *younger committed* record covers
//! every byte it logs — never because of an in-flight transaction. The
//! daemon builds its index from committed records only (an open record is
//! not in the chain until its seal, and parsing stops at the terminator),
//! and a chain with an open transaction is skipped entirely in the
//! compaction phase. A *stale* index
//! is safe: records committed after the scan are simply treated as fresh.
//!
//! # Lock ordering
//!
//! Per-thread area mutexes are leaf-ish: at most **one** area lock is held
//! at a time. The free-block lock is taken only for the moment a log block
//! changes hands, possibly under an area lock (never the reverse).
//! Device-internal locks nest below both. The checkpoint lock is taken
//! before any area lock by the checkpoint writer, and by a reclamation
//! cycle only to hand a spliced-out chain's blocks back, after it has
//! dropped that chain's lock — so a splice waits out a checkpoint being
//! written, and never the reverse.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use specpmt_pmem::blackbox::BbKind;
use specpmt_pmem::frame::Wire;
use specpmt_pmem::{
    coalesce_lines, BlackBoxSink, CrashImage, DeviceHandle, FenceReport, SharedPmemDevice,
    SharedPmemPool, Site, TimingMode, BUMP_OFF,
};
use specpmt_telemetry::{OwnedCounter, Phase, Telemetry};
use specpmt_txn::{CommitReceipt, GroupBatch, GroupCommitter};

use crate::engine::{record_drain, Probe, TxLog};
use crate::layout::PoolLayout;
use crate::reclaim::{settled_bound, ReclaimState, ReclaimStats};
use crate::record::{
    encode_checkpoint, record_checksum, stream_cursor, Anchor, Entries, EntryRef, LogArea,
    RecordReader, RunEncoder, SharedStore, MAX_ENTRY_LEN, MAX_RECORD_PAYLOAD, REC_HDR,
};
use crate::recovery::{self, RecoveryOptions, RecoveryReport};

/// Configuration for [`SpecSpmtShared`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentConfig {
    /// Log block size in bytes.
    pub block_bytes: usize,
    /// `true` selects the SpecSPMT-DP variant (data lines flushed with a
    /// second fence at commit).
    pub data_persistence: bool,
    /// Number of application threads (1..=[`PoolLayout::MAX_THREADS`]),
    /// each with its own log chain and [`TxHandle`].
    pub threads: usize,
    /// Aggregate log footprint (bytes) above which the daemon runs a
    /// reclamation cycle.
    pub reclaim_threshold_bytes: usize,
    /// Route commits through the epoch/group-commit path
    /// ([`specpmt_txn::GroupCommitter`]): committers stage their sealed
    /// lines into the open epoch's batch and the runtime's drain thread
    /// issues a single coalesced flush+fence for the whole batch. Off by
    /// default (the per-commit path is the comparison baseline).
    pub group_commit: bool,
    /// Enable the persistent flight recorder: a PM-resident black box of
    /// per-thread event rings ([`specpmt_pmem::BlackBoxSink`]) whose
    /// cache lines piggyback on flushes the commit/reclaim/checkpoint
    /// paths already issue — zero extra fences on the commit path. Off by
    /// default; decode a crash image's surviving rings with
    /// [`crate::forensics`].
    pub flight_recorder: bool,
    /// Events per flight-recorder ring (one ring per thread plus one for
    /// the daemons).
    pub bbox_capacity: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            block_bytes: 4096,
            data_persistence: false,
            threads: 1,
            reclaim_threshold_bytes: 1 << 20,
            group_commit: false,
            flight_recorder: false,
            bbox_capacity: specpmt_pmem::blackbox::DEFAULT_RING_CAPACITY,
        }
    }
}

/// Fence-stall threshold (simulated ns) above which the flight recorder
/// logs a `fence_stall` event.
pub const DEFAULT_BBOX_STALL_NS: u64 = 10_000;

impl ConcurrentConfig {
    /// Starts a builder seeded with the defaults. The builder is
    /// the one construction path for non-default configurations — prefer
    /// it over field-struct literals, which `scripts/verify.sh` rejects
    /// outside this module.
    #[must_use]
    pub fn builder() -> ConcurrentConfigBuilder {
        ConcurrentConfigBuilder { cfg: Self::default() }
    }
}

/// Builder for [`ConcurrentConfig`], started with
/// [`ConcurrentConfig::builder`]. Every field has a setter; unset fields
/// keep the defaults of [`ConcurrentConfig::default`].
///
/// ```
/// use specpmt_core::concurrent::{ConcurrentConfig, SpecSpmtShared};
///
/// let cfg = ConcurrentConfig::builder()
///     .threads(4)
///     .reclaim_threshold_bytes(256 * 1024)
///     .build();
/// let shared = SpecSpmtShared::open_or_format(4 << 20, cfg);
/// assert_eq!(shared.config().threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrentConfigBuilder {
    cfg: ConcurrentConfig,
}

impl ConcurrentConfigBuilder {
    /// Log block size in bytes (see [`ConcurrentConfig::block_bytes`]).
    #[must_use]
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.cfg.block_bytes = bytes;
        self
    }

    /// Selects (or deselects) the SpecSPMT-DP variant.
    #[must_use]
    pub fn data_persistence(mut self, on: bool) -> Self {
        self.cfg.data_persistence = on;
        self
    }

    /// Number of application threads
    /// (1..=[`PoolLayout::MAX_THREADS`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Aggregate log footprint above which a reclamation cycle runs.
    #[must_use]
    pub fn reclaim_threshold_bytes(mut self, bytes: usize) -> Self {
        self.cfg.reclaim_threshold_bytes = bytes;
        self
    }

    /// Routes commits through the epoch/group-commit path.
    #[must_use]
    pub fn group_commit(mut self, on: bool) -> Self {
        self.cfg.group_commit = on;
        self
    }

    /// Enables or disables the persistent flight recorder (see
    /// [`ConcurrentConfig::flight_recorder`]).
    #[must_use]
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.cfg.flight_recorder = on;
        self
    }

    /// Events per flight-recorder ring (see
    /// [`ConcurrentConfig::bbox_capacity`]).
    #[must_use]
    pub fn bbox_capacity(mut self, events: usize) -> Self {
        self.cfg.bbox_capacity = events;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> ConcurrentConfig {
        self.cfg
    }
}

/// Where [`SpecSpmtShared::open_or_format`] gets its backing pool.
///
/// The runtime is simulation-backed, so "path or memory" resolves to one
/// of: a fresh device of a given size, a fresh device with explicit
/// [`specpmt_pmem::PmemConfig`] timing/topology, an already-provisioned device, or an
/// existing pool (reopened in place). Each variant converts via `From`,
/// so call sites just pass the thing they have.
#[derive(Debug)]
pub enum PoolSource {
    /// Format a fresh device of this many bytes (default timing model).
    Bytes(usize),
    /// Format a fresh device with this configuration.
    Config(specpmt_pmem::PmemConfig),
    /// Build a pool on an existing device.
    Device(SharedPmemDevice),
    /// Use an existing pool as-is.
    Pool(SharedPmemPool),
}

impl From<usize> for PoolSource {
    fn from(bytes: usize) -> Self {
        PoolSource::Bytes(bytes)
    }
}

impl From<specpmt_pmem::PmemConfig> for PoolSource {
    fn from(cfg: specpmt_pmem::PmemConfig) -> Self {
        PoolSource::Config(cfg)
    }
}

impl From<SharedPmemDevice> for PoolSource {
    fn from(dev: SharedPmemDevice) -> Self {
        PoolSource::Device(dev)
    }
}

impl From<SharedPmemPool> for PoolSource {
    fn from(pool: SharedPmemPool) -> Self {
        PoolSource::Pool(pool)
    }
}

#[derive(Debug)]
struct AreaState {
    area: LogArea,
    /// A record is open on this chain (reserved at its tail, not yet
    /// appended): set when a transaction's first write reserves it,
    /// cleared when it seals. The daemon must skip the chain while set; a
    /// transaction that has only read never sets it.
    open: bool,
}

/// One thread slot: its chain, and the transaction counts of whoever
/// drives it. A slot is driven by one [`TxHandle`] at a time, which
/// is therefore the counters' only writer; [`SpecSpmtShared::stats`] sums
/// them over the slots.
#[derive(Debug)]
struct Slot {
    state: Mutex<AreaState>,
    commits: OwnedCounter,
    aborts: OwnedCounter,
}

impl Slot {
    fn new(area: LogArea) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(AreaState { area, open: false }),
            commits: OwnedCounter::default(),
            aborts: OwnedCounter::default(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, AreaState> {
        self.state.lock().expect("area lock")
    }
}

/// Counters for the concurrent runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Transactions committed (all threads).
    pub commits: u64,
    /// Transactions aborted (all threads). Each one that had written
    /// sealed a compensating restore record ([`TxHandle::abort`]).
    pub aborts: u64,
    /// Reclamation cycles the daemon (or explicit calls) completed
    /// ([`ReclaimStats::cycles`]).
    pub reclaim_cycles: u64,
    /// Log *entries* (not whole records) dropped as stale
    /// ([`ReclaimStats::records_dropped`]); the name is part of the
    /// exported schema.
    pub records_reclaimed: u64,
    /// Current aggregate log footprint in bytes.
    pub log_live_bytes: u64,
}

/// The checkpoint writer's state (see [`SpecSpmtShared::write_checkpoint`]).
///
/// A checkpoint anchor is trusted by recovery only while its block is on
/// the live chain, and that is sound only if a block that leaves a chain
/// cannot come back to one with the anchored bytes still in it: a spill
/// writes just the block header and a terminator, so an anchored record
/// further in would sit intact past the live stream's end. A splice is
/// the one way a block leaves a chain, so it hands back the blocks the
/// durable checkpoint's anchors name to `held`, not to the free list;
/// they go back only once a newer checkpoint is durable and nothing names
/// them. The pins are volatile: `open_or_format` formats the pool, so no
/// checkpoint, and no anchor, outlives the runtime that wrote it.
#[derive(Debug, Default)]
struct CkptState {
    /// The live checkpoint chain (None before the first checkpoint).
    area: Option<LogArea>,
    /// The blocks the live checkpoint's anchors name.
    anchored: Vec<usize>,
    /// Those of them a splice took off their chain.
    held: Vec<usize>,
}

/// Shared state of the concurrent SpecSPMT runtime, built by
/// [`SpecSpmtShared::open_or_format`]; hand each thread a [`TxHandle`].
#[derive(Debug)]
pub struct SpecSpmtShared {
    pool: SharedPmemPool,
    cfg: ConcurrentConfig,
    /// The persisted layout, fixed at format time.
    layout: PoolLayout,
    /// Next commit timestamp (models `rdtscp`: globally ordered).
    ts: AtomicU64,
    /// One slot per configured thread, fixed at format time; a handle
    /// clones its slot's `Arc` once at creation.
    areas: Vec<Arc<Slot>>,
    /// The live checkpoint and the blocks its anchors name; doubles as
    /// the checkpoint-writer serialization lock.
    ckpt: Mutex<CkptState>,
    checkpoints: AtomicU64,
    free_blocks: Mutex<Vec<usize>>,
    stop: AtomicBool,
    /// Incremental-reclamation state (persistent freshness index,
    /// per-chain watermarked scan caches, cycle counters). One reclamation
    /// cycle runs at a time; the mutex serializes explicit calls with the
    /// daemon.
    reclaim: Mutex<ReclaimState>,
    /// Phase histograms. Sized with one extra shard
    /// for the daemons (`tid == cfg.threads`). Off by default;
    /// see [`Telemetry`].
    tel: Telemetry,
    /// Epoch/group-commit state (used only when `cfg.group_commit`).
    gc: GroupCommitter,
    /// The PM-resident flight recorder (None unless
    /// [`ConcurrentConfig::flight_recorder`]): one event ring per thread
    /// plus one for the daemons, rooted in the layout descriptor's
    /// black-box slot and flushed only by piggybacking on fences the
    /// commit/reclaim/checkpoint paths already issue.
    bbox: Option<BlackBoxSink>,
}

impl SpecSpmtShared {
    /// One-stop construction: provisions (or adopts) the backing pool from
    /// any [`PoolSource`] — a byte size, a [`specpmt_pmem::PmemConfig`], a
    /// device, or an existing pool — formats it for `cfg.threads` log
    /// chains (setup runs with device timing disabled), and returns the
    /// runtime. This is the single construction path:
    ///
    /// ```
    /// use specpmt_core::concurrent::{ConcurrentConfig, SpecSpmtShared};
    ///
    /// let shared = SpecSpmtShared::open_or_format(
    ///     16 << 20,
    ///     ConcurrentConfig::builder().threads(2).build(),
    /// );
    /// let mut h = shared.tx_handle(0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cfg.threads` is out of range or the block size is too
    /// small for a record header.
    pub fn open_or_format(source: impl Into<PoolSource>, cfg: ConcurrentConfig) -> Arc<Self> {
        let pool = match source.into() {
            PoolSource::Bytes(bytes) => {
                SharedPmemPool::create(SharedPmemDevice::new(specpmt_pmem::PmemConfig::new(bytes)))
            }
            PoolSource::Config(pcfg) => SharedPmemPool::create(SharedPmemDevice::new(pcfg)),
            PoolSource::Device(dev) => SharedPmemPool::create(dev),
            PoolSource::Pool(pool) => pool,
        };
        assert!(
            (1..=PoolLayout::MAX_THREADS).contains(&cfg.threads),
            "thread count {} out of range (1..={})",
            cfg.threads,
            PoolLayout::MAX_THREADS
        );
        let dev = pool.device().clone();
        let prev = dev.timing();
        dev.set_timing(TimingMode::Off);
        let layout = PoolLayout::format_shared(&pool, cfg.threads, cfg.block_bytes);
        let handle = pool.handle();
        let free_blocks = Mutex::new(Vec::new());
        let mut areas = Vec::with_capacity(cfg.threads);
        for tid in 0..cfg.threads {
            let mut dirty = Vec::new();
            let area = LogArea::create(
                &mut SharedStore { handle: &handle, pool: &pool, free: &free_blocks },
                cfg.block_bytes,
                &mut dirty,
            );
            layout.set_head_shared(&pool, tid, area.head() as u64);
            areas.push(Slot::new(area));
        }
        // Flight recorder: allocate and format the black-box region (one
        // ring per thread + one daemon ring) and root it in the
        // descriptor's black-box slot. Still inside the timing-off setup
        // window — the format fence is free.
        let bbox = cfg.flight_recorder.then(|| {
            let rings = cfg.threads + 1;
            let capacity = cfg.bbox_capacity.max(1);
            let bytes = specpmt_pmem::blackbox::region_bytes(rings, capacity);
            let base =
                pool.alloc_direct(bytes, 64).expect("pool too small for flight-recorder rings");
            let sink = BlackBoxSink::format(&handle, base, rings, capacity, DEFAULT_BBOX_STALL_NS);
            layout.set_bbox_head_shared(&pool, base as u64);
            sink
        });
        dev.flush_everything();
        dev.set_timing(prev);
        // One telemetry shard per transaction thread plus one for the
        // daemons.
        let tel = Telemetry::new(cfg.threads + 1);
        let shared = Arc::new(Self {
            pool,
            cfg,
            layout,
            ts: AtomicU64::new(1),
            areas,
            ckpt: Mutex::new(CkptState::default()),
            checkpoints: AtomicU64::new(0),
            free_blocks,
            stop: AtomicBool::new(false),
            reclaim: Mutex::new(ReclaimState::default()),
            tel,
            gc: GroupCommitter::new(),
            bbox,
        });
        if shared.cfg.group_commit {
            shared.spawn_group_drain();
        }
        shared
    }

    /// The active configuration.
    pub fn config(&self) -> &ConcurrentConfig {
        &self.cfg
    }

    /// The persisted pool layout this runtime formatted.
    pub fn layout(&self) -> PoolLayout {
        self.layout
    }

    /// The shared pool.
    pub fn pool(&self) -> &SharedPmemPool {
        &self.pool
    }

    /// The shared device.
    pub fn device(&self) -> &SharedPmemDevice {
        self.pool.device()
    }

    /// The runtime's telemetry bundle: per-thread phase histograms.
    /// Disabled until [`Telemetry::set_enabled`] turns it on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The flight-recorder sink, when [`ConcurrentConfig::flight_recorder`]
    /// is set (`None` otherwise — the recorder-off hot path pays exactly
    /// this `Option` check).
    pub fn blackbox(&self) -> Option<&BlackBoxSink> {
        self.bbox.as_ref()
    }

    /// Creates the transaction handle for thread slot `tid`. Each slot must
    /// be driven by at most one thread at a time (the paper's model:
    /// transactions coincide with outermost critical sections; a log chain
    /// belongs to one thread).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn tx_handle(self: &Arc<Self>, tid: usize) -> TxHandle {
        assert!(
            tid < self.cfg.threads,
            "thread {tid} out of range (configured for {})",
            self.cfg.threads
        );
        TxHandle {
            shared: Arc::clone(self),
            dev: self.pool.handle(),
            area: Arc::clone(&self.areas[tid]),
            tid,
            in_tx: false,
            log: TxLog::new(self.cfg.data_persistence),
            plan: Vec::new(),
            data_plan: Vec::new(),
            undo_addrs: Vec::new(),
            undo_data: Vec::new(),
        }
    }

    /// Checkpoints written so far (see [`Self::write_checkpoint`]).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Current aggregate log footprint in bytes.
    pub fn log_footprint(&self) -> usize {
        self.areas.iter().map(|a| a.lock().area.footprint()).sum()
    }

    /// The log store `handle`'s thread writes chains through.
    fn store<'a>(&'a self, handle: &'a DeviceHandle) -> SharedStore<'a> {
        SharedStore { handle, pool: &self.pool, free: &self.free_blocks }
    }

    /// Hands log blocks back to the free list.
    fn recycle(&self, blocks: impl IntoIterator<Item = usize>) {
        self.free_blocks.lock().expect("free lock").extend(blocks);
    }

    /// The per-commit crash sites, on telemetry shard `tid` (the inventory
    /// has no label between computing the header and storing it under the
    /// area lock).
    fn probe(&self, tid: usize) -> Probe<'_> {
        Probe {
            seal: None,
            append: Some(Site::MtCommitAppend),
            flush: Some(Site::MtCommitFlush),
            fence: Some(Site::MtCommitFence),
            tel: &self.tel,
            tid,
        }
    }

    /// Counter snapshot. The reclamation fields are read from
    /// [`Self::reclaim_stats`], so this waits out a running cycle.
    pub fn stats(&self) -> SharedStats {
        let reclaim = self.reclaim_stats();
        SharedStats {
            commits: self.areas.iter().map(|s| s.commits.get()).sum(),
            aborts: self.areas.iter().map(|s| s.aborts.get()).sum(),
            reclaim_cycles: reclaim.cycles,
            records_reclaimed: reclaim.records_dropped,
            log_live_bytes: self.log_footprint() as u64,
        }
    }

    /// Cumulative incremental-reclamation counters (cycles, watermark
    /// skips, rewrites, bytes reclaimed).
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim.lock().expect("reclaim lock").stats
    }

    /// Runs one reclamation cycle on the calling thread (the daemon calls
    /// this; tests and benchmarks may too).
    ///
    /// Cycles are incremental (see [`crate::reclaim`]): a chain whose
    /// `(head, generation)` watermark has not moved since the last cycle
    /// is not read, one that grew is read only from where the last scan
    /// stopped, and a chain without garbage is not rewritten (no new
    /// blocks, no splice fences). When no chain changed at all, the cycle
    /// is a complete no-op. Otherwise: scan phase feeds the records
    /// committed since the last cycle to the persistent freshness index
    /// and bounds the settled watermark by every chain; fold phase (per
    /// chain, skipping chains with an open transaction) rewrites the
    /// chain's settled records as one base record of their fresh runs and
    /// splices the new chain in with two fences.
    pub fn reclaim_cycle(&self) {
        let handle = self.pool.handle();
        let mut store = self.store(&handle);
        // The daemon records into its dedicated telemetry shard.
        let rtid = self.cfg.threads;
        let block_bytes = self.cfg.block_bytes;
        let mut rs = self.reclaim.lock().expect("reclaim lock");
        rs.begin_cycle(self.areas.len(), self.device().now_ns());

        // Phase 1: scan. Chains whose watermark moved are read under their
        // lock (consistent snapshot of that chain), and each chain bounds
        // the settled watermark under that lock; the index may be stale by
        // the time a chain is folded, which errs toward keeping bytes.
        let mut any_changed = false;
        for (tid, slot) in self.areas.iter().enumerate() {
            let st = slot.lock();
            if rs.scan_chain(&handle, tid, &st.area, block_bytes) {
                any_changed = true;
            } else {
                rs.stats.chains_skipped += 1;
            }
            rs.settle(tid, st.open, || self.ts.load(Ordering::SeqCst));
        }
        if !any_changed {
            rs.stats.noop_cycles += 1;
            rs.end_cycle(self.device().now_ns(), &self.tel, rtid);
            return;
        }

        // Phase 2: fold each chain's cached records, one chain at a time
        // under its lock.
        let mut dirty = Vec::new();
        for (tid, slot) in self.areas.iter().enumerate() {
            let mut st = slot.lock();
            if st.open {
                continue; // an open record pins the chain
            }
            // The chain may have advanced between scan and fold: refresh
            // under the lock — records committed since the scan carry
            // timestamps above the settled watermark and are preserved
            // (the stale index treats them as fresh).
            rs.scan_chain(&handle, tid, &st.area, block_bytes);
            dirty.clear();
            let Some((area, dropped)) =
                rs.rewrite_chain(&mut store, tid, block_bytes, MAX_RECORD_PAYLOAD, &mut dirty)
            else {
                continue;
            };
            // Flight recorder: the daemon ring's pending slots ride this
            // cycle's first fence.
            let bbox_carried = match &self.bbox {
                Some(bb) => bb.take_dirty(rtid, &mut dirty),
                None => 0,
            };
            // Fence 1: the new chain is fully persistent before any head
            // pointer references it (one vectored, coalesced flush). Its
            // WPQ stall is recorded on the daemon's own telemetry shard so
            // per-commit breakdowns never absorb background drains.
            handle.crash_point(Site::MtReclaimPreFence);
            handle.clwb_ranges(&dirty);
            let fr = handle.sfence();
            handle.crash_point(Site::MtReclaimFence);
            if bbox_carried > 0 {
                handle.crash_point(Site::BboxPersist);
            }
            record_drain(&self.tel, rtid, fr);
            // Fence 2: atomically swap the 8-byte head pointer (persisted
            // inside `set_head_shared`; also the daemon's).
            self.layout.set_head_shared(&self.pool, tid, area.head() as u64);
            rs.spliced(tid, &area);
            let old = std::mem::replace(&mut st.area, area);
            drop(st);
            // Old blocks are recycled only after the swap fence, so a crash
            // image either references the old chain (intact) or the new —
            // and a block the durable checkpoint anchors on is held back.
            let mut blocks = old.into_blocks();
            let freed = blocks.len() as u64;
            let mut ckpt = self.ckpt.lock().expect("ckpt lock");
            let CkptState { anchored, held, .. } = &mut *ckpt;
            blocks.retain(|&b| {
                let pinned = anchored.contains(&b);
                if pinned {
                    held.push(b);
                }
                !pinned
            });
            drop(ckpt);
            self.recycle(blocks);
            handle.crash_point(Site::MtReclaimSplice);
            if let Some(bb) = &self.bbox {
                bb.record(&handle, rtid, BbKind::ReclaimSplice, dropped, freed, 0);
            }
        }
        rs.end_cycle(self.device().now_ns(), &self.tel, rtid);
    }

    /// Orderly shutdown: make all durable data reachable without the log.
    pub fn close(&self) {
        self.device().flush_everything();
    }

    /// Spawns the background reclamation daemon (the paper's dedicated
    /// reclamation core as a real OS thread). It polls every `poll`
    /// interval and runs [`Self::reclaim_cycle`] whenever the aggregate
    /// footprint exceeds the configured threshold. Stop (and join) it by
    /// dropping the returned [`ReclaimDaemon`] or calling
    /// [`ReclaimDaemon::stop`].
    pub fn spawn_reclaimer(self: &Arc<Self>, poll: Duration) -> ReclaimDaemon {
        let shared = Arc::clone(self);
        shared.stop.store(false, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name("specpmt-reclaim".into())
            .spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    if shared.log_footprint() > shared.cfg.reclaim_threshold_bytes {
                        shared.reclaim_cycle();
                    } else {
                        std::thread::sleep(poll);
                    }
                }
            })
            .expect("spawn reclaim daemon");
        ReclaimDaemon { shared: Arc::clone(self), handle: Some(handle) }
    }

    /// Starts the group-commit drain thread, the one thread that drains a
    /// batch ([`specpmt_txn::group`]). It fences from its own device
    /// handle and records into the daemons' telemetry shard and recorder
    /// ring (`tid == threads`), so the stall against the media backlog
    /// lands on its timeline and not on a committer's `commit_sim`. It
    /// holds the runtime through a `Weak` and exits once that is gone:
    /// the last strong reference may be the one it drops, so nothing
    /// joins it.
    fn spawn_group_drain(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        let dev = self.pool.handle();
        std::thread::Builder::new()
            .name("specpmt-groupc".into())
            .spawn(move || {
                while let Some(shared) = weak.upgrade() {
                    let (tid, tel) = (shared.cfg.threads, &shared.tel);
                    shared.gc.drain_next(GROUP_IDLE_WAIT, |batch| {
                        let fr = drain_group_batch(&dev, shared.bbox.as_ref(), tid, batch);
                        // Recorded before the epoch retires: a committer
                        // holding its receipt finds its batch counted.
                        tel.registry.record(tid, Phase::GroupBatch, batch.txs);
                        record_drain(tel, tid, fr);
                    });
                }
            })
            .expect("spawn group-commit drain thread");
    }

    /// Post-crash recovery (identical image format to [`crate::SpecSpmt`]):
    /// [`Self::recover_opts`] under the default options, report dropped.
    pub fn recover(image: &mut CrashImage) {
        recovery::recover_image_opts(image, &RecoveryOptions::default());
    }

    /// Post-crash recovery with explicit [`RecoveryOptions`] (full replay
    /// instead of the checkpoint-bounded one, a wider modelled parse);
    /// returns the cost report. The image is the same under every option.
    pub fn recover_opts(image: &mut CrashImage, opts: &RecoveryOptions) -> RecoveryReport {
        recovery::recover_image_opts(image, opts)
    }

    /// Writes a checkpoint record bounding future recovery replay: the
    /// last-writer-wins fold of every record with commit timestamp `<=
    /// watermark`, where the watermark is the settled watermark at scan
    /// time (`reclaim::settled_bound`, which says why every record the
    /// scan did not fold carries a timestamp above it). Recovery applies
    /// the checkpoint image first and replays only records younger than
    /// the watermark. Beside the fold the checkpoint carries one
    /// anchor per chain — where its last record at or below the
    /// watermark starts, with that record's timestamp and checksum — so
    /// recovery reads each chain only from there on, while the anchor
    /// still holds (see [`crate::recovery`]). An open chain with no
    /// committed record leaves no settled watermark, and the checkpoint is
    /// skipped (returns `None`).
    ///
    /// Returns the watermark, or `None` when no checkpoint could be
    /// written (no committed records, or an open chain without a bound).
    pub fn write_checkpoint(&self) -> Option<u64> {
        let handle = self.pool.handle();
        // The checkpoint mutex doubles as the writer lock: one checkpoint
        // at a time, the old chain stays reachable until the new head is
        // persisted, and no splice hands a chain's blocks back between this
        // checkpoint's scan and the pinning of its anchors.
        let mut ckpt = self.ckpt.lock().expect("ckpt lock");

        // Scan: every chain's committed records under that chain's lock,
        // streamed into one flat buffer of payloads — `(ts, chain index,
        // payload range)` per record, nothing owned per record or entry —
        // and the chain's blocks, which place its anchor once the
        // watermark is known.
        let mut payloads: Vec<u8> = Vec::new();
        let mut records: Vec<(u64, usize, std::ops::Range<usize>)> = Vec::new();
        let mut chain_blocks: Vec<Vec<usize>> = Vec::with_capacity(self.areas.len());
        let mut watermark = u64::MAX;
        for (idx, slot) in self.areas.iter().enumerate() {
            let st = slot.lock();
            let mut reader = RecordReader::new(&handle, st.area.head(), self.cfg.block_bytes);
            let mut last_ts = None;
            while let Some(rec) = reader.next() {
                let start = payloads.len();
                payloads.extend_from_slice(rec.payload());
                records.push((rec.ts, idx, start..payloads.len()));
                last_ts = Some(rec.ts);
            }
            chain_blocks.push(st.area.blocks().to_vec());
            let bound = settled_bound(last_ts, st.open, || self.ts.load(Ordering::SeqCst))?;
            watermark = watermark.min(bound);
            drop(st);
        }

        // Each chain's anchor: its last record at or below the watermark
        // (those records are a prefix of the chain), placed by the bytes of
        // the records before it, which the chain stores back to back from
        // its head. Their blocks are pinned once the checkpoint is durable.
        let mut anchors: Vec<Option<Anchor>> = vec![None; self.areas.len()];
        let mut anchored = Vec::with_capacity(self.areas.len());
        for chain in records.chunk_by(|a, b| a.1 == b.1) {
            let kept = chain.iter().take_while(|&&(ts, _, _)| ts <= watermark).count();
            let Some((ts, idx, p)) = kept.checked_sub(1).map(|last| chain[last].clone()) else {
                continue;
            };
            let offset = chain[..kept - 1].iter().map(|(_, _, p)| REC_HDR + p.len()).sum();
            let checksum = record_checksum(ts, &payloads[p]);
            if let Some(at) = stream_cursor(&chain_blocks[idx], self.cfg.block_bytes, offset) {
                anchored.push(at.block);
                anchors[idx] = Some(Anchor::new(at, ts, checksum));
            }
        }

        // Records up to the watermark in replay order; equal timestamps
        // resolve by ascending chain index — the same tie-break
        // `committed_records` documents (the sort is stable, so a chain's
        // own order is kept).
        records.retain(|&(ts, _, _)| ts <= watermark);
        if records.is_empty() {
            return None; // nothing committed at or below the watermark
        }
        records.sort_by_key(|&(ts, idx, _)| (ts, idx));
        let forward: Vec<EntryRef> =
            records.iter().flat_map(|(_, _, p)| Entries::new(&payloads[p.clone()])).collect();
        // Last writer wins through recovery's own fold, so the snapshot is
        // by construction what replaying those records would store. The
        // surviving pieces sorted by address and joined where they touch
        // are the disjoint, maximal runs the checkpoint holds, encoded
        // straight into its payload.
        let mut pieces: Vec<(usize, &[u8])> = Vec::new();
        recovery::fold_last_writer_wins(&forward, handle.size(), |addr, bytes| {
            pieces.push((addr, bytes));
        });
        pieces.sort_unstable_by_key(|&(addr, _)| addr);
        let mut payload = Vec::new();
        let mut encoder = RunEncoder::new(&mut payload, MAX_ENTRY_LEN);
        pieces.into_iter().for_each(|(addr, bytes)| encoder.push(addr, bytes));
        let runs = encoder.finish();
        let encoded = encode_checkpoint(watermark, &anchors, &payload);

        // Persist protocol: build the new chain, flush+fence it, then
        // atomically swap the descriptor's checkpoint head. A crash at
        // any labeled site leaves either the old checkpoint (intact) or
        // the new one reachable — never a half-spliced head.
        let mut dirty = Vec::new();
        let mut store = self.store(&handle);
        let mut new_area = LogArea::create(&mut store, self.cfg.block_bytes, &mut dirty);
        new_area.append(&mut store, &encoded, &mut dirty);
        // Flight recorder: the daemon ring's pending slots ride the
        // checkpoint's persist fence.
        let bbox_carried = match &self.bbox {
            Some(bb) => bb.take_dirty(self.cfg.threads, &mut dirty),
            None => 0,
        };
        handle.crash_point(Site::CkptWrite);
        handle.clwb_ranges(&dirty);
        handle.sfence();
        if bbox_carried > 0 {
            handle.crash_point(Site::BboxPersist);
        }
        handle.crash_point(Site::CkptPersist);
        self.layout.set_ckpt_head_shared(&self.pool, new_area.head() as u64);
        handle.crash_point(Site::CkptSplice);
        if let Some(bb) = &self.bbox {
            bb.record(&handle, self.cfg.threads, BbKind::CkptSplice, watermark, runs, 0);
        }
        // The new anchors are durable: pin their blocks, and release the
        // old checkpoint's chain and the blocks held for its anchors (all
        // taken off their chains before this scan, so none is anchored
        // now).
        let old = ckpt.area.replace(new_area);
        ckpt.anchored = anchored;
        let held = std::mem::take(&mut ckpt.held);
        drop(ckpt);
        self.recycle(old.into_iter().flat_map(LogArea::into_blocks).chain(held));
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Some(watermark)
    }
}

/// How long the group-commit drain thread waits for a stager before it
/// checks that its runtime is still alive (a stager wakes it at once).
const GROUP_IDLE_WAIT: Duration = Duration::from_millis(1);

/// One fused flush+fence per non-empty line set of a group batch — log
/// lines first, then DP data lines, the same fence order the per-commit
/// path uses. Returns the summed fence report.
fn drain_group_batch(
    dev: &DeviceHandle,
    bbox: Option<&BlackBoxSink>,
    tid: usize,
    batch: &GroupBatch,
) -> FenceReport {
    // Flight recorder: the batch fence covers every stager, so carry
    // every ring's pending event slots with it (folded into the same
    // fused drain — no fence of their own).
    let mut bbox_carried = 0;
    let mut lines_with_bbox = Vec::new();
    let log_lines = match bbox {
        Some(bb) => {
            let mut ranges = Vec::new();
            bbox_carried = bb.take_dirty_all(&mut ranges);
            if bbox_carried == 0 {
                &batch.log_lines
            } else {
                coalesce_lines(&ranges, &mut lines_with_bbox);
                lines_with_bbox.extend_from_slice(&batch.log_lines);
                lines_with_bbox.sort_unstable();
                lines_with_bbox.dedup();
                &lines_with_bbox
            }
        }
        None => &batch.log_lines,
    };
    // Every receipt in the batch is still unpublished here; after the
    // fused drain(s) below, all of them are durable at once.
    dev.crash_point(Site::MtGroupPreFence);
    let fr = dev.drain_lines(log_lines);
    let (mut stall, mut flushes) = (fr.stall_ns, fr.flushes);
    if !batch.data_lines.is_empty() {
        let fr = dev.drain_lines(&batch.data_lines);
        stall += fr.stall_ns;
        flushes += fr.flushes;
    }
    dev.crash_point(Site::MtGroupBatchFence);
    if let Some(bb) = bbox {
        if bbox_carried > 0 {
            dev.crash_point(Site::BboxPersist);
        }
        let site = Site::MtGroupBatchFence as u64;
        bb.record(dev, tid, BbKind::BatchSeal, batch.txs, site, 0);
        if stall > bb.stall_threshold_ns() {
            bb.record(dev, tid, BbKind::FenceStall, stall, flushes, 0);
        }
    }
    FenceReport { stall_ns: stall, flushes }
}

/// Handle to the background reclamation thread. Dropping it stops and
/// joins the daemon.
#[derive(Debug)]
pub struct ReclaimDaemon {
    shared: Arc<SpecSpmtShared>,
    handle: Option<JoinHandle<()>>,
}

impl ReclaimDaemon {
    /// Stops the daemon and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReclaimDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-thread transaction handle of [`SpecSpmtShared`].
///
/// The API mirrors the sequential runtime's transaction surface (`begin` /
/// `write` / `commit`), but is owned by one OS thread and safe to drive
/// concurrently with the other threads' handles and the daemon. All
/// per-transaction scratch (write set, dirty ranges, undo arena) is owned
/// by the handle and cleared — never freed — between transactions, so a
/// warmed-up handle commits without heap allocation.
#[derive(Debug)]
pub struct TxHandle {
    shared: Arc<SpecSpmtShared>,
    dev: DeviceHandle,
    /// This slot's chain state, cloned out of the runtime's slot list at
    /// handle creation.
    area: Arc<Slot>,
    /// The thread slot, which is also the telemetry shard and the
    /// flight-recorder ring this handle records into.
    tid: usize,
    in_tx: bool,
    /// The open transaction's record, write set and flush plan.
    log: TxLog,
    /// Group-commit only: reusable scratch for this commit's coalesced
    /// log-line and DP data-line plans (the sorted, deduplicated line sets
    /// staged into the epoch batch). Overwritten, never freed.
    plan: Vec<usize>,
    data_plan: Vec<usize>,
    /// Volatile pre-images of every in-place write of the open
    /// transaction, in write order — the [`TxHandle::abort`] path replays
    /// them in reverse through the normal logging write, turning the
    /// abort into a committed compensating record. Stored as an arena
    /// (`(addr, offset, len)` descriptors over one byte buffer) so the
    /// commit path captures pre-images without per-write allocation.
    undo_addrs: Vec<(usize, usize, usize)>,
    undo_data: Vec<u8>,
}

impl TxHandle {
    /// The shared runtime.
    pub fn shared(&self) -> &Arc<SpecSpmtShared> {
        &self.shared
    }

    /// This handle's thread slot.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The shared device (for crash-epoch observation).
    pub fn device(&self) -> &SharedPmemDevice {
        self.shared.device()
    }

    /// Whether a transaction is open.
    pub fn in_tx(&self) -> bool {
        self.in_tx
    }

    /// Records an application-level event into this thread's
    /// flight-recorder ring (no-op when the recorder is off). Higher
    /// layers — the kv service's `KvOp`/`KvOpDone` markers and governor
    /// decisions — use this; like every recorder write, the slot's
    /// persist rides the next fence this thread already pays, so the
    /// call adds no ordering traffic of its own.
    pub fn record_event(&self, kind: BbKind, a: u64, b: u64, aux: u8) {
        if let Some(bb) = &self.shared.bbox {
            bb.record(&self.dev, self.tid, kind, a, b, aux);
        }
    }

    /// Starts a transaction. Volatile only: the log is not touched until
    /// the seal, and the first [`write`](Self::write) reserves the record,
    /// so a transaction that never writes costs the device nothing.
    ///
    /// # Panics
    ///
    /// Panics on nested `begin`.
    pub fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction on thread {}", self.tid);
        self.log.begin();
        self.undo_addrs.clear();
        self.undo_data.clear();
        self.in_tx = true;
    }

    /// Durably writes `data` at pool offset `addr` within the open
    /// transaction: in-place data update (never flushed by SpecSPMT) plus a
    /// speculative log entry of the new value.
    ///
    /// The transaction's first write reserves its record at the chain
    /// tail, the only write that takes the slot's lock. From there until
    /// the seal the chain is `open`: the daemon skips it, and the flight
    /// recorder (whose `tx_begin` is emitted at the reservation) counts
    /// the transaction as in flight, i.e. as one that can have bytes in
    /// PM. The entries stay in the write set until the seal appends them.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction, or if a second handle is driving the
    /// same slot.
    pub fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        let shared = &*self.shared;
        let tid = self.tid;
        if !self.log.reserved() {
            let mut st = self.area.lock();
            assert!(!st.open, "thread slot {} already has an open transaction", self.tid);
            st.open = true;
            self.log.reserve(&st.area);
            if let Some(bb) = &shared.bbox {
                bb.record(&self.dev, tid, BbKind::TxBegin, 0, 0, 0);
            }
        }
        let _ws_span = shared.tel.registry.span(tid, Phase::Writeset);
        if !data.is_empty() {
            // Volatile pre-image for the abort path, captured into the
            // reusable undo arena. `peek_into` is untimed and unsampled,
            // so the bookkeeping does not distort the simulated cost of
            // the write itself.
            let off = self.undo_data.len();
            self.undo_data.resize(off + data.len(), 0);
            self.dev.peek_into(addr, &mut self.undo_data[off..]);
            self.undo_addrs.push((addr, off, data.len()));
        }
        self.dev.write(addr, data);
        self.log.stage(addr, data);
    }

    /// Reads `buf.len()` bytes at `addr` (direct in-place access — SpecPMT
    /// never redirects reads).
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        self.dev.read(addr, buf);
    }

    /// Transactionally allocates from the shared heap; the bump update
    /// rides the speculative log, making the allocation crash-atomic with
    /// the transaction.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction or when the heap is exhausted.
    pub fn alloc(&mut self, size: usize, align: usize) -> usize {
        assert!(self.in_tx, "alloc outside transaction");
        let r = self.shared.pool.reserve(size, align).expect("pool heap exhausted");
        if let Some(bump) = r.new_bump {
            let mut word = [0; 8];
            bump.put(&mut word);
            self.write(BUMP_OFF, &word);
        }
        r.off
    }

    /// Seals the open record: timestamped, checksummed header plus the
    /// single SpecSPMT flush+fence. Shared tail of [`TxHandle::commit`] and
    /// [`TxHandle::abort`].
    /// `commit`: `true` for commit seals — they may ride a group-commit
    /// batch and record the `commit_sim` phase. `false` for compensating
    /// (abort) records, which always fence solo: an aborting transaction
    /// holds 2PL stripes its retry (and every conflicting thread) is
    /// waiting on, so it releases them after its own fence instead of
    /// waiting for a batch drain to take it.
    fn seal(&mut self, commit: bool) -> u64 {
        let tid = self.tid;
        // Borrow the fields apart, so the flush/fence tails can take the
        // log and the plans mutably while the spans and the area lock —
        // which borrow the runtime and the slot — stay live.
        let Self { shared, dev, area, log, plan, data_plan, .. } = self;
        let (shared, dev): (&SpecSpmtShared, &DeviceHandle) = (shared, dev);
        let commit_span = shared.tel.registry.span(tid, Phase::Commit);
        let sim0 = dev.local_now_ns();
        let ts = shared.ts.fetch_add(1, Ordering::SeqCst);
        // The area lock is held through the fence so the daemon never
        // splices a chain whose newest record is mid-persist.
        let mut st = area.lock();
        log.seal(&mut shared.store(dev), &mut st.area, ts, shared.probe(tid));

        if shared.cfg.group_commit && commit {
            Self::seal_group(shared, dev, log, plan, data_plan, tid);
        } else {
            Self::seal_solo(shared, dev, log, tid);
        }
        // Simulated device nanoseconds this thread's timeline was charged
        // for the seal (stores + flush issue + fence stall). Group-commit
        // waiters charge only their append work — the drain thread's timeline
        // absorbs the shared batch drain. Abort seals are excluded: this
        // is a per-*commit* cost metric, and compensating records always
        // fence solo.
        if commit {
            shared.tel.registry.record(
                tid,
                Phase::CommitSim,
                dev.local_now_ns().saturating_sub(sim0),
            );
            if let Some(bb) = &shared.bbox {
                // Commit receipt, staged only now — after the fence that
                // made the record durable returned. This ordering is the
                // forensic tail invariant: a persisted TxCommit implies
                // its record was already in the persisted image. The slot
                // itself rides the *next* already-scheduled fence.
                let (site, aux) = if shared.cfg.group_commit {
                    (Site::MtGroupBatchFence, 1)
                } else {
                    (Site::MtCommitFence, 0)
                };
                bb.record(dev, tid, BbKind::TxCommit, ts, site as u64, aux);
            }
        }

        // Lock release: hand the chain back to the daemon.
        let lock_span = shared.tel.registry.span(tid, Phase::LockRelease);
        st.open = false;
        drop(st);
        lock_span.stop();
        self.in_tx = false;
        self.undo_addrs.clear();
        self.undo_data.clear();
        commit_span.stop();
        ts
    }

    /// Per-commit flush+fence tail of [`Self::seal`] — the comparison
    /// baseline: this thread pays a full vectored flush and fence for its
    /// own record (plus a second pair for DP data lines). Called with the
    /// area lock held.
    fn seal_solo(shared: &SpecSpmtShared, dev: &DeviceHandle, log: &mut TxLog, tid: usize) {
        // Flight recorder: fold this ring's pending event slots into the
        // commit flush — they ride the fence this commit already pays,
        // never one of their own.
        let bbox_carried = match &shared.bbox {
            Some(bb) => bb.take_dirty(tid, log.dirty_mut()),
            None => 0,
        };
        log.drain_solo(&mut shared.store(dev), shared.probe(tid), |fr| {
            if let Some(bb) = &shared.bbox {
                if bbox_carried > 0 {
                    dev.crash_point(Site::BboxPersist);
                }
                if fr.stall_ns > bb.stall_threshold_ns() {
                    bb.record(dev, tid, BbKind::FenceStall, fr.stall_ns, fr.flushes, 0);
                }
            }
        });
    }

    /// Group-commit tail of [`Self::seal`]: coalesce this record's lines,
    /// stage them into the open epoch's batch, and block until a batch
    /// fence covering them retires. The runtime's drain thread issues one
    /// fused [`DeviceHandle::drain_lines`] for the whole batch's log lines
    /// (plus one for staged DP data lines) — durability
    /// is identical to [`Self::seal_solo`], fences are amortized across
    /// the batch. Called with the area lock held: 2PL semantics keep the
    /// record's region locked until the receipt anyway, and the daemon
    /// skips open chains, so waiting under the lock is safe (the drain
    /// thread takes no area locks).
    fn seal_group(
        shared: &SpecSpmtShared,
        dev: &DeviceHandle,
        log: &mut TxLog,
        plan: &mut Vec<usize>,
        data_plan: &mut Vec<usize>,
        tid: usize,
    ) {
        log.group_plan(plan, data_plan);
        dev.crash_point(Site::MtGroupStage);
        let _wait_span = shared.tel.registry.span(tid, Phase::BatchWait);
        shared.gc.commit(plan, data_plan);
    }

    /// Commits the open transaction with the single SpecSPMT flush+fence;
    /// returns the [`CommitReceipt`] carrying the global commit timestamp.
    ///
    /// A transaction that never wrote reserved no record and has nothing
    /// to make durable: its commit takes no lock, draws no timestamp and
    /// issues no store, flush or fence (see [`CommitReceipt`] for what its
    /// receipt carries).
    ///
    /// # Panics
    ///
    /// Panics outside a transaction.
    pub fn commit(&mut self) -> CommitReceipt {
        assert!(self.in_tx, "commit outside transaction");
        let ts = if self.log.reserved() {
            self.seal(true)
        } else {
            // Write-free: nothing to make durable. Under strict 2PL every
            // value this transaction read was released only after its
            // writer's fence returned, so it is already durable; the
            // receipt carries the frontier the transaction observed.
            self.in_tx = false;
            self.shared.ts.load(Ordering::SeqCst)
        };
        self.area.commits.add(1);
        CommitReceipt::new(ts)
    }

    /// Aborts the open transaction.
    ///
    /// A transaction that never wrote has nothing to restore: its abort
    /// is free and leaves no record. Otherwise, SpecPMT writes in place
    /// before commit, so aborting must *restore*:
    /// the volatile pre-images captured by [`TxHandle::write`] are replayed
    /// in reverse through the normal logging write path, and the record is
    /// then sealed exactly like a commit. The youngest-committed-record-wins
    /// recovery rule makes the compensating record authoritative: after a
    /// crash at any point — before, during, or after the abort — the
    /// pre-transaction values win.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction.
    pub fn abort(&mut self) {
        assert!(self.in_tx, "abort outside transaction");
        self.area.aborts.add(1);
        if !self.log.reserved() {
            // Nothing was written, so there is nothing to restore or seal.
            self.in_tx = false;
            return;
        }
        // Take the arenas so the replay can borrow the pre-image bytes
        // while `write` mutates the handle; they are handed back below so
        // their capacity survives (the replay's own pre-image captures go
        // into fresh vectors and are discarded — `seal` clears them).
        let addrs = std::mem::take(&mut self.undo_addrs);
        let data = std::mem::take(&mut self.undo_data);
        for &(addr, off, len) in addrs.iter().rev() {
            self.write(addr, &data[off..off + len]);
        }
        self.undo_addrs = addrs;
        self.undo_data = data;
        let _ = self.seal(false);
        if let Some(bb) = &self.shared.bbox {
            bb.record(&self.dev, self.tid, BbKind::TxAbort, 0, 0, 0);
        }
    }
}

impl specpmt_txn::TxAccess for TxHandle {
    fn begin(&mut self) {
        TxHandle::begin(self);
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        TxHandle::write(self, addr, data);
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        TxHandle::read(self, addr, buf);
    }

    fn commit(&mut self) {
        let _ = TxHandle::commit(self);
    }

    fn abort(&mut self) {
        TxHandle::abort(self);
    }

    fn alloc(&mut self, size: usize, align: usize) -> usize {
        TxHandle::alloc(self, size, align)
    }

    fn free(&mut self, _addr: usize, _size: usize, _align: usize) {
        // Bump allocator: frees are a no-op, same as the sequential runtime.
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn compute(&mut self, ns: u64) {
        self.dev.advance(ns);
    }

    fn local_now_ns(&self) -> u64 {
        self.dev.local_now_ns()
    }

    fn set_timing(&mut self, mode: TimingMode) -> TimingMode {
        let prev = self.shared.device().timing();
        self.shared.device().set_timing(mode);
        prev
    }

    fn setup_alloc(&mut self, bytes: usize, align: usize) -> usize {
        let prev = self.shared.device().timing();
        self.shared.device().set_timing(TimingMode::Off);
        let base = self.shared.pool.alloc_direct(bytes, align).expect("setup_alloc");
        self.dev.persist_range(base, bytes);
        self.shared.device().set_timing(prev);
        base
    }

    fn setup_write(&mut self, addr: usize, data: &[u8]) {
        let prev = self.shared.device().timing();
        self.shared.device().set_timing(TimingMode::Off);
        self.dev.write(addr, data);
        self.dev.persist_range(addr, data.len());
        self.shared.device().set_timing(prev);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use specpmt_pmem::{CrashControl, CrashPolicy, SplitMix64};
    use specpmt_txn::TxAccess as _;

    fn shared(cfg: ConcurrentConfig) -> Arc<SpecSpmtShared> {
        SpecSpmtShared::open_or_format(1usize << 22, cfg)
    }

    fn alloc_region(s: &Arc<SpecSpmtShared>, bytes: usize) -> usize {
        let base = s.pool().alloc_direct(bytes, 64).unwrap();
        let prev = s.device().timing();
        s.device().set_timing(TimingMode::Off);
        s.pool().handle().persist_range(base, bytes);
        s.device().set_timing(prev);
        base
    }

    #[test]
    fn committed_value_survives_all_lost_crash() {
        let s = shared(ConcurrentConfig::default());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        h.begin();
        h.write_u64(a, 0xFEED);
        h.commit();
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 0xFEED);
    }

    #[test]
    fn uncommitted_tx_is_revoked_even_if_data_evicted() {
        let s = shared(ConcurrentConfig::default());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        h.begin();
        h.write_u64(a, 1);
        h.commit();
        h.begin();
        h.write_u64(a, 2);
        let mut img = s.device().capture(CrashPolicy::AllSurvive);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 1, "uncommitted update must be revoked");
    }

    #[test]
    fn exactly_one_fence_per_commit() {
        let s = shared(ConcurrentConfig::default());
        let a = alloc_region(&s, 256);
        let mut h = s.tx_handle(0);
        let before = s.device().stats().sfence_count;
        h.begin();
        for i in 0..8 {
            h.write_u64(a + i * 8, i as u64);
        }
        h.commit();
        let after = s.device().stats().sfence_count;
        assert_eq!(after - before, 1, "SpecSPMT commits with a single fence");
    }

    #[test]
    fn parallel_threads_commit_disjoint_regions() {
        let s = shared(ConcurrentConfig::builder().threads(4).build());
        let base = alloc_region(&s, 4 * 64);
        std::thread::scope(|scope| {
            for tid in 0..4 {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..50u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        h.commit();
                    }
                });
            }
        });
        assert_eq!(s.stats().commits, 200);
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..4 {
            assert_eq!(img.read_u64(base + tid * 64), 49);
        }
    }

    #[test]
    fn cross_thread_freshness_respected_by_reclaim() {
        // Thread 1's younger commit to the same address must stale thread
        // 0's record — and never the other way around.
        let s = shared(ConcurrentConfig::builder().threads(2).build());
        let a = alloc_region(&s, 64);
        let mut h0 = s.tx_handle(0);
        let mut h1 = s.tx_handle(1);
        h0.begin();
        h0.write_u64(a, 10);
        h0.commit();
        h1.begin();
        h1.write_u64(a, 20);
        h1.commit();
        s.reclaim_cycle();
        assert!(s.stats().records_reclaimed > 0, "older cross-thread entry dropped");
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 20, "youngest commit wins after compaction");
    }

    #[test]
    fn interleaved_handles_recover_in_commit_order() {
        // Two chains stepped from one thread: the global timestamp, not
        // the chain index, decides which commit is youngest.
        let s = shared(ConcurrentConfig::builder().threads(2).build());
        let a = alloc_region(&s, 64);
        let mut handles = [s.tx_handle(0), s.tx_handle(1)];
        for (tid, v) in [(0, 10), (1, 20), (0, 30)] {
            let h = &mut handles[tid];
            h.begin();
            h.write_u64(a, v);
            h.commit();
        }
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 30, "youngest commit wins across chains");
    }

    #[test]
    fn reclaim_skips_chain_with_open_tx() {
        let s = shared(ConcurrentConfig::builder().threads(2).build());
        let a = alloc_region(&s, 64);
        let mut h0 = s.tx_handle(0);
        let mut h1 = s.tx_handle(1);
        for v in 0..100u64 {
            h0.begin();
            h0.write_u64(a, v);
            h0.commit();
        }
        h1.begin();
        h1.write_u64(a + 32, 7);
        s.reclaim_cycle(); // must not touch h1's chain
        h1.commit();
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 99);
        assert_eq!(img.read_u64(a + 32), 7);
    }

    #[test]
    fn daemon_bounds_log_footprint() {
        let s = shared(
            ConcurrentConfig::builder().threads(2).reclaim_threshold_bytes(64 * 1024).build(),
        );
        let base = alloc_region(&s, 2 * 64);
        let daemon = s.spawn_reclaimer(Duration::from_micros(200));
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..5_000u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        h.commit();
                    }
                });
            }
        });
        daemon.stop();
        let st = s.stats();
        assert!(st.reclaim_cycles > 0, "daemon never ran");
        // The shared counters are the reclamation state's, not a recount.
        let rs = s.reclaim_stats();
        assert_eq!((st.reclaim_cycles, st.records_reclaimed), (rs.cycles, rs.records_dropped));
        // One final cycle with no open transactions bounds the tail.
        s.reclaim_cycle();
        assert!(s.log_footprint() <= 2 * 64 * 1024, "footprint {} not bounded", s.log_footprint());
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..2 {
            assert_eq!(img.read_u64(base + tid * 64), 4_999);
        }
    }

    #[test]
    fn transactional_alloc_is_crash_atomic() {
        let s = shared(ConcurrentConfig::default());
        let root = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        h.begin();
        let obj = h.alloc(32, 8);
        h.write_u64(obj, 77);
        h.write_u64(root, obj as u64);
        h.commit();
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        let obj2 = img.read_u64(root) as usize;
        assert_eq!(obj2, obj);
        assert_eq!(img.read_u64(obj2), 77);
    }

    #[test]
    fn dp_variant_persists_data_with_second_fence() {
        let s = shared(ConcurrentConfig::builder().data_persistence(true).build());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        let before = s.device().stats().sfence_count;
        h.begin();
        h.write_u64(a, 5);
        h.commit();
        assert_eq!(s.device().stats().sfence_count - before, 2);
        let img = s.device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 5, "DP data survives without recovery");
    }

    #[test]
    fn seventeen_parallel_threads_commit_and_recover() {
        // Past the 8 chains root slots alone could hold: every chain head
        // lives in the descriptor's head table.
        let threads = 17usize;
        let s = shared(ConcurrentConfig::builder().threads(threads).build());
        assert_eq!(s.layout().threads(), threads);
        let base = alloc_region(&s, threads * 64);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..20u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        h.commit();
                    }
                });
            }
        });
        assert_eq!(s.stats().commits, threads as u64 * 20);
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..threads {
            assert_eq!(img.read_u64(base + tid * 64), 19, "thread {tid}");
        }
    }

    #[test]
    fn reclaim_splices_heads_in_the_descriptor_table() {
        let s = shared(ConcurrentConfig::builder().threads(12).build());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(11);
        for v in 0..500u64 {
            h.begin();
            h.write_u64(a, v);
            h.commit();
        }
        s.reclaim_cycle();
        assert!(s.stats().records_reclaimed > 0);
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 499);
    }

    #[test]
    fn group_commit_value_survives_all_lost_crash() {
        let s = shared(ConcurrentConfig::builder().group_commit(true).build());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        h.begin();
        h.write_u64(a, 0xFEED);
        h.commit();
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        assert_eq!(img.read_u64(a), 0xFEED);
    }

    /// An uncontended group commit is a batch of one: exactly one fence,
    /// same as the per-commit path.
    #[test]
    fn group_commit_solo_is_one_fence_batch_of_one() {
        let s = shared(ConcurrentConfig::builder().group_commit(true).build());
        s.telemetry().set_enabled(true);
        let a = alloc_region(&s, 256);
        let mut h = s.tx_handle(0);
        let before = s.device().stats().sfence_count;
        h.begin();
        for i in 0..8 {
            h.write_u64(a + i * 8, i as u64);
        }
        h.commit();
        assert_eq!(s.device().stats().sfence_count - before, 1);
        let reg = &s.telemetry().registry;
        assert_eq!(reg.phase(Phase::BatchWait).count(), 1, "staged once");
        assert_eq!(reg.phase(Phase::GroupBatch).count(), 1, "drained as a batch of one");
        assert_eq!(reg.phase(Phase::Fence).count(), 0, "the batch drain is the only fence");
    }

    /// Group-mode DP commits drain data lines with their own batch fence
    /// and the data survives a crash without recovery, like the solo path.
    #[test]
    fn group_commit_dp_persists_data() {
        let s =
            shared(ConcurrentConfig::builder().data_persistence(true).group_commit(true).build());
        let a = alloc_region(&s, 64);
        let mut h = s.tx_handle(0);
        let before = s.device().stats().sfence_count;
        h.begin();
        h.write_u64(a, 5);
        h.commit();
        assert_eq!(s.device().stats().sfence_count - before, 2);
        let img = s.device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 5, "DP data survives without recovery");
    }

    /// Concurrent group-mode committers: every receipt's transaction is
    /// durable, batch telemetry is consistent (each commit staged once,
    /// batch occupancies sum to the commit count, fences never exceed
    /// commits), and aborts flow through the group path too.
    #[test]
    fn group_commit_parallel_threads_commit_and_batch() {
        let threads = 8usize;
        let s = shared(ConcurrentConfig::builder().threads(threads).group_commit(true).build());
        s.telemetry().set_enabled(true);
        let base = alloc_region(&s, threads * 64);
        let sfences_before = s.device().stats().sfence_count;
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..50u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        if v % 10 == 9 {
                            h.abort(); // compensating record fences solo
                        } else {
                            h.commit();
                        }
                    }
                });
            }
        });
        let (commits, aborts) = (threads as u64 * 45, threads as u64 * 5);
        assert_eq!((s.stats().commits, s.stats().aborts), (commits, aborts));
        let reg = &s.telemetry().registry;
        let group_commits = reg.phase(Phase::BatchWait).count();
        let occ = reg.phase(Phase::GroupBatch);
        // Commits stage into batches; aborts fence solo (they hold stripes
        // other threads are spinning on and must release immediately).
        assert_eq!(group_commits, commits, "every commit staged exactly once");
        assert!(occ.count() >= 1 && occ.count() <= group_commits);
        assert_eq!(occ.sum, group_commits, "batch occupancies sum to the staged commits");
        assert_eq!(reg.phase(Phase::Fence).count(), aborts, "only compensating records fence solo");
        let sfences = s.device().stats().sfence_count - sfences_before;
        assert_eq!(sfences, occ.count() + aborts, "one fence per batch and per abort");
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..threads {
            // Last surviving value: v=48 committed, v=49 aborted back.
            assert_eq!(img.read_u64(base + tid * 64), 48, "thread {tid}");
        }
    }

    /// The reclamation daemon coexists with group-mode committers (waiters
    /// park holding their area lock; the daemon skips open chains and
    /// never blocks the drain thread).
    #[test]
    fn group_commit_with_reclaim_daemon() {
        let s = shared(
            ConcurrentConfig::builder()
                .threads(2)
                .reclaim_threshold_bytes(64 * 1024)
                .group_commit(true)
                .build(),
        );
        let base = alloc_region(&s, 2 * 64);
        let daemon = s.spawn_reclaimer(Duration::from_micros(200));
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..3_000u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        h.commit();
                    }
                });
            }
        });
        daemon.stop();
        s.reclaim_cycle();
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..2 {
            assert_eq!(img.read_u64(base + tid * 64), 2_999);
        }
    }

    /// With nothing but `group_commit(true)` set, the runtime's own drain
    /// thread owns every batch drain: committers never fence (their shards
    /// record no `fence` span, no WPQ drain and no batch), the device
    /// counts exactly one fence per batch on the daemons' shard, every
    /// receipt-holding commit is durable, and the batch occupancies sum to
    /// the commit count.
    #[test]
    fn group_commit_batches_drain_only_on_the_daemon_shard() {
        let threads = 4usize;
        let s = shared(ConcurrentConfig::builder().threads(threads).group_commit(true).build());
        s.telemetry().set_enabled(true);
        let base = alloc_region(&s, threads * 64);
        let sfences_before = s.device().stats().sfence_count;
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let s = &s;
                let mut h = s.tx_handle(tid);
                scope.spawn(move || {
                    for v in 0..200u64 {
                        h.begin();
                        h.write_u64(base + tid * 64, v);
                        h.commit();
                    }
                });
            }
        });
        let commits = threads as u64 * 200;
        assert_eq!(s.stats().commits, commits);
        let reg = &s.telemetry().registry;
        for tid in 0..threads {
            assert_eq!(reg.phase_in(tid, Phase::Fence).count(), 0, "committer {tid} never fences");
            assert_eq!(
                reg.phase_in(tid, Phase::WpqDrain).count(),
                0,
                "committer {tid} never drains"
            );
            assert_eq!(reg.phase_in(tid, Phase::GroupBatch).count(), 0, "committer {tid} batched");
        }
        // Every fence was issued from the daemon's handle, one per batch.
        let occ = reg.phase_in(threads, Phase::GroupBatch);
        assert!(occ.count() >= 1 && occ.count() <= commits);
        assert_eq!(reg.phase(Phase::GroupBatch).count(), occ.count(), "only the daemon drains");
        let sfences = s.device().stats().sfence_count - sfences_before;
        assert_eq!(sfences, occ.count(), "one fence per batch");
        assert_eq!(occ.sum, commits, "batch occupancies sum to the commits");
        let mut img = s.device().capture(CrashPolicy::AllLost);
        SpecSpmtShared::recover(&mut img);
        for tid in 0..threads {
            assert_eq!(img.read_u64(base + tid * 64), 199, "thread {tid}");
        }
    }

    /// The committed records of every chain and whether it is open, read
    /// the slow way: a full `parse_chain` from each head.
    fn parse_all(s: &SpecSpmtShared) -> Vec<(usize, bool, Vec<crate::record::LogRecord>)> {
        let handle = s.pool().handle();
        s.areas
            .iter()
            .map(|slot| {
                let st = slot.lock();
                let head = st.area.head();
                (head, st.open, crate::record::parse_chain(&handle, head, s.cfg.block_bytes))
            })
            .collect()
    }

    /// The settled watermark of the chains `parse_all` read: the minimum
    /// of their last timestamps, an idle empty chain bounded by the
    /// timestamp counter, none while an empty chain is open.
    fn settled_of(
        s: &SpecSpmtShared,
        chains: &[(usize, bool, Vec<crate::record::LogRecord>)],
    ) -> Option<u64> {
        chains.iter().try_fold(u64::MAX, |w, (_, open, recs)| match recs.last() {
            Some(r) => Some(w.min(r.ts)),
            None if *open => None,
            None => Some(w.min(s.ts.load(Ordering::SeqCst) - 1)),
        })
    }

    /// Runs one `reclaim_cycle` and checks it against a from-scratch
    /// reference: an open chain is left alone, a chain the reference fold
    /// changes is rewritten to exactly `encode_record` of it, a chain it
    /// leaves alone keeps its head, every chain's cached view equals a
    /// full re-parse afterwards — and the chains replay to the same bytes
    /// before and after.
    fn checked_reclaim_cycle(s: &SpecSpmtShared, ctx: &str) {
        use crate::reclaim::tests::{encode_all, reference_fold, replay};
        let before = parse_all(s);
        let chains: Vec<_> = before.iter().map(|(_, _, recs)| recs.clone()).collect();
        let want = reference_fold(&chains, settled_of(s, &before));
        s.reclaim_cycle();
        let after = parse_all(s);
        let rs = s.reclaim.lock().unwrap();
        for (tid, ((head0, open, recs0), (head1, _, recs1))) in
            before.iter().zip(&after).enumerate()
        {
            if *open || want[tid] == *recs0 {
                assert_eq!(head1, head0, "{ctx}: chain {tid} must not be rewritten");
                assert_eq!(recs1, recs0, "{ctx}: chain {tid}");
            } else {
                assert_ne!(head1, head0, "{ctx}: chain {tid} must be rewritten");
                assert_eq!(*recs1, want[tid], "{ctx}: chain {tid} rewritten contents");
                assert_eq!(rs.cached_bytes(tid), encode_all(&want[tid]), "{ctx}: chain {tid}");
            }
            assert_eq!(rs.cached_chain(tid), *recs1, "{ctx}: chain {tid} cache vs re-parse");
        }
        let after: Vec<_> = after.into_iter().map(|(_, _, recs)| recs).collect();
        assert_eq!(replay(&after), replay(&chains), "{ctx}: replay");
    }

    /// A seeded history of commits, aborts, write-free and left-open
    /// transactions, reclaim cycles and checkpoints over 1 and 3 chains:
    /// the suffix-only scan and the fold must be indistinguishable from
    /// re-parsing and re-deciding everything. On 3 chains the settled
    /// watermark lags some chain's newest records, which follow the base.
    #[test]
    fn suffix_scans_match_full_reparse_over_a_seeded_history() {
        for (threads, seed) in [(1usize, 11u64), (3, 12), (3, 13)] {
            let s = shared(
                ConcurrentConfig::builder()
                    .threads(threads)
                    .block_bytes(256)
                    .reclaim_threshold_bytes(usize::MAX)
                    .group_commit(false)
                    .build(),
            );
            // 10 slots of 16 bytes. One transaction writes a slot at most
            // once (the write set orders a record by first touch, so
            // partially overlapping writes *inside* one transaction are not
            // its contract); across transactions the offsets and lengths
            // vary, so entries overlap partially and straddle words.
            let (slots, region) = (10usize, 160usize);
            let a = alloc_region(&s, region);
            let mut handles: Vec<TxHandle> = (0..threads).map(|t| s.tx_handle(t)).collect();
            let mut rng = SplitMix64::new(seed);
            // Per handle: the open transaction's first slot and how many
            // it has written.
            let mut next_slot = vec![(0usize, 0usize); threads];
            let (mut cycles, mut skipped_open) = (0, 0);
            for step in 0..1500 {
                let ctx = format!("threads={threads} seed={seed} step={step}");
                match rng.below(100) {
                    0..=7 => {
                        skipped_open += parse_all(&s).iter().filter(|c| c.1).count();
                        checked_reclaim_cycle(&s, &ctx);
                        cycles += 1;
                    }
                    8..=9 => {
                        let _ = s.write_checkpoint();
                    }
                    _ => {
                        let tid = rng.range_usize(0, threads - 1);
                        let h = &mut handles[tid];
                        if !h.in_tx() {
                            h.begin();
                            next_slot[tid] = (rng.range_usize(0, slots - 1), 0);
                        }
                        // 0 writes on a fresh transaction: write-free.
                        let (first, used) = &mut next_slot[tid];
                        for _ in 0..rng.range_usize(0, 3).min(slots - *used) {
                            let len = rng.range_usize(0, 12);
                            let at =
                                a + (*first + *used) % slots * 16 + rng.range_usize(0, 16 - len);
                            let data: Vec<u8> = (0..len).map(|_| rng.next_u8()).collect();
                            h.write(at, &data);
                            *used += 1;
                        }
                        match rng.below(10) {
                            0..=5 => {
                                h.commit();
                            }
                            6..=7 => h.abort(),
                            _ => {} // stays open across the next steps
                        }
                    }
                }
            }
            assert!(cycles > 50 && skipped_open > 0, "history too tame: {cycles} {skipped_open}");
            // Close everything: the chains skipped while open are picked
            // up, and a last cycle leaves only fresh entries behind.
            for h in &mut handles {
                if h.in_tx() {
                    h.commit();
                }
            }
            checked_reclaim_cycle(&s, "final");
            let parsed = parse_all(&s);
            let settled = settled_of(&s, &parsed);
            let all: Vec<_> = parsed.into_iter().map(|c| c.2).collect();
            assert_eq!(
                crate::reclaim::tests::reference_fold(&all, settled),
                all,
                "no garbage left"
            );
            // And the compacted log still recovers the last committed bytes.
            let live: Vec<u8> = s.pool().handle().peek(a, region);
            let mut img = s.device().capture(CrashPolicy::AllLost);
            SpecSpmtShared::recover(&mut img);
            assert_eq!(img.as_bytes()[a..a + region], live[..], "threads={threads} seed={seed}");
        }
    }

    /// A chain skipped because its transaction was open is compacted by
    /// the next cycle, from the suffix the seal appended.
    #[test]
    fn chain_skipped_while_open_is_picked_up_by_the_next_cycle() {
        let s = shared(ConcurrentConfig::builder().threads(2).build());
        let a = alloc_region(&s, 64);
        let (mut h0, mut h1) = (s.tx_handle(0), s.tx_handle(1));
        for v in 0..4u64 {
            h1.begin();
            h1.write_u64(a, v);
            h1.commit();
        }
        h1.begin();
        h1.write_u64(a, 4);
        h0.begin();
        h0.write_u64(a + 8, 1);
        h0.commit();
        checked_reclaim_cycle(&s, "open");
        assert_eq!(s.reclaim.lock().unwrap().cached_chain(1).len(), 4, "open chain left whole");
        h1.commit();
        checked_reclaim_cycle(&s, "sealed");
        let cached = s.reclaim.lock().unwrap().cached_chain(1);
        assert_eq!(cached.len(), 1, "only the sealed record is fresh");
        assert_eq!(cached[0].entries[0].value, 4u64.to_le_bytes());
    }

    /// Three chains stepped round-robin through 40 rounds of overlapping,
    /// unaligned stores shared by all chains, with a checkpoint written
    /// before round `ckpt_round`. Blocks are small, so every chain and the
    /// checkpoint span several and records cross block boundaries. Returns
    /// the runtime and the checkpoint's watermark.
    pub(crate) fn overlapping_three_chain_history(ckpt_round: usize) -> (Arc<SpecSpmtShared>, u64) {
        let cfg = ConcurrentConfig::builder()
            .threads(3)
            .block_bytes(256)
            .reclaim_threshold_bytes(usize::MAX);
        let s = SpecSpmtShared::open_or_format(1usize << 20, cfg.build());
        let base = s.pool().alloc_direct(512, 64).expect("alloc");
        let mut handles: Vec<_> = (0..3).map(|t| s.tx_handle(t)).collect();
        let mut watermark = 0;
        for round in 0..40usize {
            if round == ckpt_round {
                watermark = s.write_checkpoint().expect("every chain has committed");
            }
            for (t, h) in handles.iter_mut().enumerate() {
                h.begin();
                let v = [(round * 3 + t) as u8; 24];
                h.write(base + (round % 7) * 13 + t * 5, &v[..8 + (round + t) % 17]);
                h.write(base + 256 + (round % 5) * 8, &v[..8]);
                h.commit();
            }
        }
        (s, watermark)
    }

    /// The checkpoint's bytes, pinned against a reference rather than
    /// round-tripped: the per-byte map `write_checkpoint` used to fold
    /// through, kept here as the specification of its payload — every
    /// record at or below the watermark in `(ts, chain)` order, last
    /// writer wins per byte, coalesced into disjoint, address-sorted,
    /// maximal runs.
    #[test]
    fn checkpoint_payload_equals_the_per_byte_reference_fold() {
        use std::collections::BTreeMap;
        for ckpt_round in [3, 25] {
            let (s, watermark) = overlapping_three_chain_history(ckpt_round);
            let handle = s.pool().handle();
            let ckpt = crate::record::read_checkpoint(
                &handle,
                s.layout().ckpt_head(&handle),
                s.cfg.block_bytes,
            )
            .expect("the checkpoint reads back");
            assert_eq!(ckpt.watermark, watermark);
            // Chain by chain, the anchor names the chain's last record at
            // or below the watermark: a reader resumed there reads it.
            for (tid, anchor) in ckpt.anchors.iter().enumerate() {
                let a = anchor.expect("every chain has a record below the watermark");
                let head = s.layout().head(&handle, tid);
                let mut reader = RecordReader::new(&handle, head, s.cfg.block_bytes);
                let last = std::iter::from_fn(|| reader.next().map(|r| r.ts))
                    .take_while(|&ts| ts <= watermark)
                    .last();
                assert_eq!(Some(a.ts), last, "chain {tid}");
                let mut resumed = RecordReader::resume(&handle, a.at(), s.cfg.block_bytes);
                assert_eq!(resumed.next().map(|r| r.anchor(a.at())), Some(a), "chain {tid}");
            }

            let mut records: Vec<_> = parse_all(&s)
                .into_iter()
                .enumerate()
                .flat_map(|(idx, (_, _, recs))| recs.into_iter().map(move |r| (r.ts, idx, r)))
                .filter(|&(ts, _, _)| ts <= watermark)
                .collect();
            // The watermark is chain 0's last commit: the other two chains'
            // records of that round lie above it.
            assert_eq!(records.len(), 3 * ckpt_round - 2);
            records.sort_by_key(|&(ts, idx, _)| (ts, idx));
            let mut bytes: BTreeMap<usize, u8> = BTreeMap::new();
            for e in records.iter().flat_map(|(_, _, r)| &r.entries) {
                bytes.extend(e.value.iter().enumerate().map(|(i, &b)| (e.addr + i, b)));
            }
            let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
            for (addr, b) in bytes {
                match runs.last_mut() {
                    Some((start, value)) if *start + value.len() == addr => value.push(b),
                    _ => runs.push((addr, vec![b])),
                }
            }
            let mut want = Vec::new();
            runs.iter()
                .for_each(|(addr, value)| crate::record::push_entry(&mut want, *addr, value));
            assert_eq!(ckpt.runs, want, "checkpoint before round {ckpt_round}");
            assert!(runs.len() > 1, "the workload leaves gaps between runs");
        }
    }

    /// The device operations of reclamation and checkpointing, pinned. A
    /// reordered, split or merged store, flush or fence in the rewrite
    /// shows here before it shows in the benchmark's bit-identical
    /// simulated metrics. The unaligned 5-byte writes overlap one another,
    /// so the byte counts also pin the fold's per-byte freshness; the
    /// 8-byte writes reuse 48 words, so they pin its runs.
    #[test]
    fn reclaim_and_checkpoint_device_ops_are_pinned() {
        let s = shared(
            ConcurrentConfig::builder()
                .threads(2)
                .block_bytes(256)
                .reclaim_threshold_bytes(usize::MAX)
                .group_commit(false)
                .flight_recorder(false)
                .build(),
        );
        let a = alloc_region(&s, 512);
        let mut handles = [s.tx_handle(0), s.tx_handle(1)];
        let mut ops = Vec::new();
        for round in 0..3u64 {
            for i in 0..150u64 {
                let h = &mut handles[(i % 2) as usize];
                h.begin();
                h.write_u64(a + ((i * 7 + round) % 48) as usize * 8, i ^ round);
                if i % 5 == 0 {
                    h.write(a + 400 + (i % 9) as usize, &[i as u8; 5]);
                }
                if i % 11 == 3 {
                    h.abort();
                } else {
                    h.commit();
                }
            }
            let before = s.device().stats();
            s.reclaim_cycle();
            if round == 1 {
                assert!(s.write_checkpoint().is_some());
            }
            let d = s.device().stats().delta_since(&before);
            ops.push((d.clwb_count, d.lines_persisted, d.bytes_stored, d.sfence_count));
        }
        // (clwb, lines persisted, bytes stored, sfence) per round. Each
        // round rewrites both chains, two fences each; the fold stores each
        // chain's settled records as one base record of address-sorted
        // runs. Round 1 also writes the checkpoint (two fences). A fifth
        // fence in round 2 persists the heap's bump pointer: the free list
        // runs dry (the smaller chains free fewer blocks, and the blocks
        // the checkpoint's anchors name are held off it), so a new chain
        // takes a fresh block. A round is 150 transactions: at 120, the
        // records of 8-byte entry headers left round 2 enough free blocks.
        assert_eq!(ops, [(18, 18, 985, 4), (28, 28, 1578, 6), (19, 19, 993, 5)]);
        let rs = s.reclaim_stats();
        assert_eq!((rs.records_kept, rs.records_dropped, rs.bytes_reclaimed), (156, 486, 16505));
        assert_eq!(rs.last_cycle_ns, 3832, "the daemon's simulated clock");
    }

    #[test]
    #[should_panic(expected = "nested transaction")]
    fn nested_begin_panics() {
        let s = shared(ConcurrentConfig::default());
        let mut h = s.tx_handle(0);
        h.begin();
        h.begin();
    }

    #[test]
    #[should_panic(expected = "out of range (1..=4096)")]
    fn thread_count_past_layout_max_panics_with_actual_max() {
        let _ = shared(ConcurrentConfig::builder().threads(PoolLayout::MAX_THREADS + 1).build());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tid_panics() {
        let s = shared(ConcurrentConfig::default());
        let _ = s.tx_handle(3);
    }
}
