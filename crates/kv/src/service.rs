//! The sharded multi-tenant KV service.
//!
//! [`KvService::open`] provisions N independent [`SpecSpmtShared`] pools
//! (one per shard, each with its own lock table and optional reclamation
//! and group-combiner daemons) through the unified
//! [`SpecSpmtShared::open_or_format`] construction path. Requests route by
//! [`ShardRouter`] and execute as strict-2PL transactions on the owning
//! shard; every worker thread holds one [`LockedTxHandle`] per shard
//! (thread slot = worker id), so disjoint workers never share a log
//! chain.
//!
//! The front door is [`KvWorker::execute`]: admission
//! ([`crate::admission`]) first, then the transactional operation, with
//! per-op-class simulated and host-wall-clock latency recorded into the
//! worker's own histograms ([`KvStats`] merges the workers' on read). A
//! lightweight governor samples the
//! worst per-shard WPQ-drain / lock-wait p99 every `governor_every`
//! admitted ops and feeds it back into the shed level.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use specpmt_core::{
    ConcurrentConfig, GroupCombinerDaemon, LockedTxHandle, ReclaimDaemon, RecoveryOptions,
    RecoveryReport, SpecSpmtShared,
};
use specpmt_pmem::{CrashImage, PmemConfig};
use specpmt_telemetry::{BbKind, HistogramSnapshot, OwnedCounter, OwnedHistogram};
use specpmt_txn::{run_tx, SharedLockTable, TxAccess};

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, KvError};
use crate::router::ShardRouter;
use crate::table::{CasOutcome, ShardTable};
use crate::zipf::{KvOp, OpClass, OP_CLASSES};

/// Configuration for [`KvService::open`]. Builder-style `with_*` setters
/// over service defaults sized for tests and smokes; benches scale up
/// `pool_bytes`/`capacity_per_shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Number of shards (independent pools + runtimes).
    pub shards: usize,
    /// Worker threads; each holds one transaction slot in every shard
    /// (1..=[`specpmt_core::PoolLayout::MAX_THREADS`]).
    pub workers: usize,
    /// Tenants served (admission tracks quotas per tenant).
    pub tenants: u32,
    /// Slots per shard table (power of two).
    pub capacity_per_shard: usize,
    /// Bytes per shard pool.
    pub pool_bytes: usize,
    /// Simulated media channels per shard device.
    pub media_channels: usize,
    /// Route shard commits through the group-commit path.
    pub group_commit: bool,
    /// Per-shard reclamation threshold (bytes of log footprint).
    pub reclaim_threshold_bytes: usize,
    /// Spawn the per-shard reclamation (and, under group commit,
    /// combiner) daemons.
    pub daemons: bool,
    /// Lock-table stripe width (bytes).
    pub stripe_bytes: usize,
    /// Admission-control tuning.
    pub admission: AdmissionConfig,
    /// Sample shard tails into the shed governor every N admitted ops
    /// (0 disables the governor).
    pub governor_every: u64,
    /// Enable each shard runtime's persistent flight recorder. Workers
    /// then bracket every operation with `KvOp`/`KvOpDone` events and
    /// log governor rejections, so a shard crash image names the
    /// in-flight op class under `forensics`. Defaults to the runtime's
    /// own default (off).
    pub flight_recorder: bool,
}

impl Default for KvConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            workers: 2,
            tenants: 2,
            capacity_per_shard: 1 << 12,
            pool_bytes: 16 << 20,
            media_channels: 6,
            group_commit: false,
            reclaim_threshold_bytes: 1 << 20,
            daemons: true,
            stripe_bytes: 64,
            admission: AdmissionConfig::default(),
            governor_every: 256,
            flight_recorder: ConcurrentConfig::default().flight_recorder,
        }
    }
}

impl KvConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the tenant count.
    #[must_use]
    pub fn with_tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the per-shard table capacity (power of two).
    #[must_use]
    pub fn with_capacity_per_shard(mut self, slots: usize) -> Self {
        self.capacity_per_shard = slots;
        self
    }

    /// Sets the per-shard pool size.
    #[must_use]
    pub fn with_pool_bytes(mut self, bytes: usize) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Enables or disables group commit on the shard runtimes.
    #[must_use]
    pub fn with_group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Enables or disables the background daemons.
    #[must_use]
    pub fn with_daemons(mut self, on: bool) -> Self {
        self.daemons = on;
        self
    }

    /// Sets the admission tuning.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the governor sampling interval (0 disables).
    #[must_use]
    pub fn with_governor_every(mut self, every: u64) -> Self {
        self.governor_every = every;
        self
    }

    /// Enables or disables the per-shard flight recorder.
    #[must_use]
    pub fn with_flight_recorder(mut self, on: bool) -> Self {
        self.flight_recorder = on;
        self
    }
}

/// One shard: an independent pool, runtime, lock table, table root, and
/// its background daemons.
#[derive(Debug)]
pub struct KvShard {
    runtime: Arc<SpecSpmtShared>,
    locks: Arc<SharedLockTable>,
    table: ShardTable,
    reclaimer: Option<ReclaimDaemon>,
    combiner: Option<GroupCombinerDaemon>,
}

impl KvShard {
    /// The shard's concurrent runtime.
    pub fn runtime(&self) -> &Arc<SpecSpmtShared> {
        &self.runtime
    }

    /// The shard's strict-2PL lock table.
    pub fn locks(&self) -> &Arc<SharedLockTable> {
        &self.locks
    }

    /// The shard's persistent table root.
    pub fn table(&self) -> ShardTable {
        self.table
    }

    /// Recovers a captured crash image of this shard through the
    /// checkpoint-bounded engine, and returns the report so callers can
    /// assert on replay shape.
    pub fn recover_image(&self, img: &mut CrashImage) -> RecoveryReport {
        SpecSpmtShared::recover_opts(img, &RecoveryOptions::default())
    }

    /// Worst observable tail of this shard right now: the max of the
    /// device WPQ-drain p99 (simulated ns) and the 2PL lock-wait p99
    /// (host ns) — the two stall sources the SLO protocol watches.
    pub fn tail_p99_ns(&self) -> u64 {
        let drain = self.runtime.device().wpq_drain_histogram().quantile(0.99);
        let lock = self.locks.wait_histogram().quantile(0.99);
        drain.max(lock)
    }

    fn stop_daemons(&mut self) {
        if let Some(d) = self.reclaimer.take() {
            d.stop();
        }
        if let Some(c) = self.combiner.take() {
            c.stop();
        }
    }
}

impl Drop for KvShard {
    fn drop(&mut self) {
        self.stop_daemons();
    }
}

/// Per-op-class latency histograms and completion counters of the whole
/// service. Each [`KvWorker`] records into a cell of its own — workers
/// share no statistics line — and every accessor here merges the cells of
/// all workers there have been (a cell outlives its worker).
#[derive(Debug, Default)]
pub struct KvStats {
    workers: Mutex<Vec<Arc<WorkerStats>>>,
}

/// What one worker recorded, indexed by [`OpClass::index`]; the worker is
/// the only writer.
#[derive(Debug, Default)]
struct WorkerStats {
    host: [OwnedHistogram; 5],
    sim: [OwnedHistogram; 5],
    completed: [OwnedCounter; 5],
}

impl KvStats {
    fn workers(&self) -> std::sync::MutexGuard<'_, Vec<Arc<WorkerStats>>> {
        self.workers.lock().expect("kv stats lock")
    }

    /// A fresh cell for a new worker.
    fn register(&self) -> Arc<WorkerStats> {
        let cell = Arc::new(WorkerStats::default());
        self.workers().push(Arc::clone(&cell));
        cell
    }

    fn merged(&self, pick: impl Fn(&WorkerStats) -> &OwnedHistogram) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for w in self.workers().iter() {
            total.merge(&pick(w).snapshot());
        }
        total
    }

    /// Host wall-clock latency snapshot of one op class.
    pub fn host(&self, class: OpClass) -> HistogramSnapshot {
        self.merged(|w| &w.host[class.index()])
    }

    /// Simulated-time latency snapshot of one op class.
    pub fn sim(&self, class: OpClass) -> HistogramSnapshot {
        self.merged(|w| &w.sim[class.index()])
    }

    /// Completed (admitted and executed) ops of one class.
    pub fn completed(&self, class: OpClass) -> u64 {
        self.workers().iter().map(|w| w.completed[class.index()].get()).sum()
    }

    /// Completed ops across all classes.
    pub fn completed_total(&self) -> u64 {
        OP_CLASSES.iter().map(|&c| self.completed(c)).sum()
    }
}

/// What an executed operation returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// `get`: the value, if present.
    Value(Option<u64>),
    /// `put`: stored.
    Stored,
    /// `delete`: whether the key existed.
    Deleted(bool),
    /// `cas`: applied or the mismatching current value.
    Cas(CasOutcome),
    /// `scan`: the collected entries.
    Scanned(Vec<(u64, u64)>),
}

/// The sharded KV service. Open it once, then create one [`KvWorker`]
/// per serving thread with [`KvService::worker`].
#[derive(Debug)]
pub struct KvService {
    cfg: KvConfig,
    router: ShardRouter,
    shards: Vec<KvShard>,
    admission: Admission,
    stats: KvStats,
}

impl KvService {
    /// Provisions every shard (pool, runtime, lock table, persistent
    /// table, daemons) and returns the service. Shard setup uses only the
    /// unified [`SpecSpmtShared::open_or_format`] path.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `workers` exceeds the runtime's
    /// thread cap.
    pub fn open(cfg: KvConfig) -> Self {
        assert!(cfg.shards > 0, "at least one shard");
        assert!(cfg.tenants > 0, "at least one tenant");
        let shards = (0..cfg.shards)
            .map(|_| {
                let runtime = SpecSpmtShared::open_or_format(
                    PmemConfig::new(cfg.pool_bytes).with_media_channels(cfg.media_channels),
                    ConcurrentConfig::builder()
                        .threads(cfg.workers)
                        .group_commit(cfg.group_commit)
                        .reclaim_threshold_bytes(cfg.reclaim_threshold_bytes)
                        .flight_recorder(cfg.flight_recorder)
                        .build(),
                );
                let locks = SharedLockTable::new(cfg.pool_bytes, cfg.stripe_bytes);
                let mut setup = runtime.tx_handle(0);
                let table = ShardTable::create(&mut setup, cfg.capacity_per_shard);
                drop(setup);
                let reclaimer =
                    cfg.daemons.then(|| runtime.spawn_reclaimer(Duration::from_micros(200)));
                let combiner = (cfg.daemons && cfg.group_commit)
                    .then(|| runtime.spawn_group_combiner(Duration::from_micros(100)));
                KvShard { runtime, locks, table, reclaimer, combiner }
            })
            .collect();
        Self {
            router: ShardRouter::new(cfg.shards),
            admission: Admission::new(cfg.tenants, cfg.admission),
            stats: KvStats::default(),
            shards,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// The router (pure; reopen-stable).
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Shard `i`'s internals (runtime, locks, table root).
    pub fn shard(&self, i: usize) -> &KvShard {
        &self.shards[i]
    }

    /// The admission gate.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Admission counter snapshot.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Per-op-class latency stats.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// A transaction front-end for worker thread `wid` (one lock-holding
    /// handle per shard, all on thread slot `wid`).
    ///
    /// # Panics
    ///
    /// Panics if `wid` is outside the configured worker range.
    pub fn worker(&self, wid: usize) -> KvWorker<'_> {
        let handles = self
            .shards
            .iter()
            .map(|s| LockedTxHandle::new(s.runtime.tx_handle(wid), Arc::clone(&s.locks)))
            .collect();
        KvWorker { service: self, handles, stats: self.stats.register() }
    }

    /// Stops every shard's daemons and flushes outstanding background
    /// work. Also runs on drop; explicit calls make shutdown points
    /// visible in benches.
    pub fn shutdown(mut self) {
        for shard in &mut self.shards {
            shard.stop_daemons();
        }
    }

    fn maybe_govern(&self, seq: u64) {
        let every = self.cfg.governor_every;
        if every == 0 || !(seq + 1).is_multiple_of(every) {
            return;
        }
        let worst = self.shards.iter().map(KvShard::tail_p99_ns).max().unwrap_or(0);
        self.admission.observe_tail(worst);
    }
}

/// A per-thread front door to the service: executes admitted requests as
/// transactions on the owning shard and records latency.
#[derive(Debug)]
pub struct KvWorker<'s> {
    service: &'s KvService,
    handles: Vec<LockedTxHandle>,
    /// This worker's cell of [`KvStats`].
    stats: Arc<WorkerStats>,
}

impl KvWorker<'_> {
    /// Admits and executes one generated request.
    ///
    /// # Errors
    ///
    /// Admission rejections ([`KvError::QuotaExceeded`],
    /// [`KvError::Overloaded`]) or [`KvError::TableFull`] from the shard
    /// table.
    pub fn execute(&mut self, op: KvOp) -> Result<OpResult, KvError> {
        let seq = match self.service.admission.try_admit(op.tenant) {
            Ok(seq) => seq,
            Err(e) => {
                self.record_rejection(op.tenant, e);
                return Err(e);
            }
        };
        let out = self.execute_admitted(op);
        self.service.maybe_govern(seq);
        out
    }

    /// Point lookup (admission-gated).
    ///
    /// # Errors
    ///
    /// Admission rejections.
    pub fn get(&mut self, tenant: u32, key: u64) -> Result<Option<u64>, KvError> {
        match self.execute(KvOp { tenant, class: OpClass::Get, key, value: 0 })? {
            OpResult::Value(v) => Ok(v),
            _ => unreachable!("get returns Value"),
        }
    }

    /// Insert-or-update (admission-gated).
    ///
    /// # Errors
    ///
    /// Admission rejections or [`KvError::TableFull`].
    pub fn put(&mut self, tenant: u32, key: u64, value: u64) -> Result<(), KvError> {
        self.execute(KvOp { tenant, class: OpClass::Put, key, value }).map(|_| ())
    }

    /// Delete (admission-gated); returns whether the key existed.
    ///
    /// # Errors
    ///
    /// Admission rejections.
    pub fn delete(&mut self, tenant: u32, key: u64) -> Result<bool, KvError> {
        match self.execute(KvOp { tenant, class: OpClass::Delete, key, value: 0 })? {
            OpResult::Deleted(found) => Ok(found),
            _ => unreachable!("delete returns Deleted"),
        }
    }

    /// Compare-and-swap (admission-gated).
    ///
    /// # Errors
    ///
    /// Admission rejections or [`KvError::TableFull`].
    pub fn cas(
        &mut self,
        tenant: u32,
        key: u64,
        expected: Option<u64>,
        new: u64,
    ) -> Result<CasOutcome, KvError> {
        let seq = match self.service.admission.try_admit(tenant) {
            Ok(seq) => seq,
            Err(e) => {
                self.record_rejection(tenant, e);
                return Err(e);
            }
        };
        let out = self.run_cas(tenant, key, expected, new);
        self.service.maybe_govern(seq);
        out
    }

    /// Bounded neighborhood scan (admission-gated).
    ///
    /// # Errors
    ///
    /// Admission rejections.
    pub fn scan(
        &mut self,
        tenant: u32,
        start_key: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, KvError> {
        match self.execute(KvOp {
            tenant,
            class: OpClass::Scan,
            key: start_key,
            value: limit as u64,
        })? {
            OpResult::Scanned(entries) => Ok(entries),
            _ => unreachable!("scan returns Scanned"),
        }
    }

    fn execute_admitted(&mut self, op: KvOp) -> Result<OpResult, KvError> {
        match op.class {
            OpClass::Cas => {
                // Generated CAS traffic: propose `value` against whatever
                // is currently stored (read in its own transaction first),
                // modelling read-modify-write clients.
                let shard = self.service.router.shard_of(op.tenant, op.key);
                let table = self.service.shards[shard].table;
                let h = &mut self.handles[shard];
                let expected = run_tx(h, |tx| table.get(tx, op.tenant, op.key));
                self.run_cas(op.tenant, op.key, expected, op.value).map(OpResult::Cas)
            }
            _ => self.run_simple(op),
        }
    }

    fn run_simple(&mut self, op: KvOp) -> Result<OpResult, KvError> {
        let shard = self.service.router.shard_of(op.tenant, op.key);
        let table = self.service.shards[shard].table;
        let h = &mut self.handles[shard];
        // Flight recorder: bracket the op on its shard's ring. A crash
        // image holding the `KvOp` marker without its `KvOpDone` names
        // this class as in flight at the instant of failure.
        h.inner().record_event(BbKind::KvOp, op.key, shard as u64, op.class.index() as u8);
        let host0 = Instant::now();
        let sim0 = h.local_now_ns();
        let out = match op.class {
            OpClass::Get => Ok(OpResult::Value(run_tx(h, |tx| table.get(tx, op.tenant, op.key)))),
            OpClass::Put => run_tx(h, |tx| table.put(tx, op.tenant, op.key, op.value))
                .map(|()| OpResult::Stored)
                .map_err(|_| KvError::TableFull),
            OpClass::Delete => {
                Ok(OpResult::Deleted(run_tx(h, |tx| table.delete(tx, op.tenant, op.key))))
            }
            OpClass::Scan => Ok(OpResult::Scanned(run_tx(h, |tx| {
                table.scan(tx, op.tenant, op.key, op.value as usize)
            }))),
            OpClass::Cas => unreachable!("cas handled by run_cas"),
        };
        self.finish(op.class, host0, sim0, shard, op.key, out.is_ok());
        out
    }

    fn run_cas(
        &mut self,
        tenant: u32,
        key: u64,
        expected: Option<u64>,
        new: u64,
    ) -> Result<CasOutcome, KvError> {
        let shard = self.service.router.shard_of(tenant, key);
        let table = self.service.shards[shard].table;
        let h = &mut self.handles[shard];
        h.inner().record_event(BbKind::KvOp, key, shard as u64, OpClass::Cas.index() as u8);
        let host0 = Instant::now();
        let sim0 = h.local_now_ns();
        let out = run_tx(h, |tx| table.cas(tx, tenant, key, expected, new))
            .map_err(|_| KvError::TableFull);
        self.finish(OpClass::Cas, host0, sim0, shard, key, out.is_ok());
        out
    }

    fn finish(
        &mut self,
        class: OpClass,
        host0: Instant,
        sim0: u64,
        shard: usize,
        key: u64,
        ok: bool,
    ) {
        let sim_ns = self.handles[shard].local_now_ns().saturating_sub(sim0);
        let host_ns = host0.elapsed().as_nanos() as u64;
        self.handles[shard].inner().record_event(
            BbKind::KvOpDone,
            key,
            shard as u64,
            class.index() as u8,
        );
        self.stats.sim[class.index()].record(sim_ns);
        self.stats.host[class.index()].record(host_ns);
        if ok {
            self.stats.completed[class.index()].add(1);
        }
    }

    /// Flight recorder: log an admission rejection on shard 0's ring —
    /// the request never reached a shard, so the first ring serves as
    /// the service-wide governor channel.
    fn record_rejection(&self, tenant: u32, err: KvError) {
        let h = self.handles[0].inner();
        if h.shared().blackbox().is_none() {
            // Recorder off: nothing to log — and the shard tails below are
            // merges over every handle's histogram, not to be computed for
            // an event nobody records (under shedding most ops end here).
            return;
        }
        match err {
            KvError::Overloaded => {
                let worst = self.service.shards.iter().map(KvShard::tail_p99_ns).max().unwrap_or(0);
                h.record_event(BbKind::GovShed, worst, u64::from(tenant), 0);
            }
            KvError::QuotaExceeded => {
                let window = self.service.cfg.admission.window_ops;
                h.record_event(BbKind::GovQuota, window, u64::from(tenant), 0);
            }
            KvError::TableFull => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KvConfig {
        KvConfig::default()
            .with_shards(2)
            .with_workers(1)
            .with_capacity_per_shard(1 << 8)
            .with_pool_bytes(4 << 20)
            .with_daemons(false)
    }

    #[test]
    fn basic_ops_round_trip() {
        let svc = KvService::open(small());
        let mut w = svc.worker(0);
        assert_eq!(w.get(0, 7).unwrap(), None);
        w.put(0, 7, 42).unwrap();
        assert_eq!(w.get(0, 7).unwrap(), Some(42));
        // Tenant 1 shares the key space but not the namespace.
        assert_eq!(w.get(1, 7).unwrap(), None);
        w.put(1, 7, 99).unwrap();
        assert_eq!(w.get(0, 7).unwrap(), Some(42));
        assert!(w.delete(0, 7).unwrap());
        assert_eq!(w.get(0, 7).unwrap(), None);
        assert_eq!(w.get(1, 7).unwrap(), Some(99));
        assert_eq!(w.cas(1, 7, Some(99), 100).unwrap(), CasOutcome::Applied);
        assert_eq!(w.cas(1, 7, Some(99), 101).unwrap(), CasOutcome::Mismatch(Some(100)));
        let hits = w.scan(1, 7, 4).unwrap();
        assert!(hits.contains(&(7, 100)));
        assert!(svc.stats().completed_total() >= 8);
        svc.shutdown();
    }

    #[test]
    fn values_survive_shard_crash_and_recovery() {
        use specpmt_pmem::{CrashControl, CrashPolicy};
        let svc = KvService::open(small());
        let mut w = svc.worker(0);
        for key in 0..64 {
            w.put(0, key, key * 3).unwrap();
        }
        for shard in 0..svc.config().shards {
            let s = svc.shard(shard);
            let mut img = s.runtime().device().capture(CrashPolicy::AllLost);
            let report = s.recover_image(&mut img);
            assert!(report.chains_nonempty >= 1, "the worker's chain holds the puts");
            assert!(report.records_replayed >= 1);
            for key in 0..64u64 {
                if svc.router().shard_of(0, key) == shard {
                    assert_eq!(s.table().get_in_image(&img, 0, key), Some(key * 3), "key {key}");
                }
            }
        }
        svc.shutdown();
    }

    #[test]
    fn forensics_names_the_in_flight_op_class_on_a_shard_crash() {
        use specpmt_core::forensics;
        use specpmt_pmem::{CrashControl, CrashPlan};
        let svc = KvService::open(small().with_flight_recorder(true));
        let mut w = svc.worker(0);
        for key in 0..16 {
            w.put(0, key, key + 1).unwrap();
        }
        // Crash the owning shard from inside a CAS: `mt/commit/fence`
        // fires after the commit fence (which carries the staged `KvOp`
        // marker to PM) but before the receipt and the `KvOpDone`, so
        // the image holds an unmatched `KvOp` naming the class.
        let key = 5u64;
        let shard = svc.router().shard_of(0, key);
        let dev = svc.shard(shard).runtime().device();
        dev.arm(CrashPlan::parse_target("mt/commit/fence:1").unwrap());
        assert_eq!(w.cas(0, key, Some(6), 99).unwrap(), CasOutcome::Applied);
        let mut img = dev.take_image().expect("the cas commit crossed the armed site");
        let fx = forensics(&img);
        assert!(fx.recorder_present, "kv shards format a recorder region:\n{fx}");
        assert!(fx.is_clean(), "correct runtime, clean report: {:?}\n{fx}", fx.violations);
        let classes: Vec<_> = fx.in_flight.iter().filter_map(|f| f.kv_op).collect();
        assert!(classes.contains(&"cas"), "in flight {classes:?}\n{fx}");
        // The decoded tail must agree with what recovery then finds.
        let report = svc.shard(shard).recover_image(&mut img);
        let issues = fx.check_against(&report);
        assert!(issues.is_empty(), "{issues:?}");
        svc.shutdown();
    }

    #[test]
    fn rejections_land_on_the_governor_ring() {
        use specpmt_core::forensics;
        use specpmt_pmem::{CrashControl, CrashPolicy};
        let cfg = small().with_flight_recorder(true).with_admission(AdmissionConfig {
            window_ops: 8,
            quota_per_window: 2,
            ..AdmissionConfig::default()
        });
        let svc = KvService::open(cfg);
        let mut w = svc.worker(0);
        let (mut offered, mut rejected) = (0, 0);
        for key in 0..8 {
            offered += 1;
            if w.put(0, key, key).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "an undersized quota must reject");
        // Rejections are recorded on shard 0's ring; a put on shard 0
        // persists them (the marker rides that commit's fence).
        let key0 = (0..64).find(|&k| svc.router().shard_of(0, k) == 0).unwrap();
        offered += 1;
        while w.put(0, key0, 1).is_err() {
            offered += 1;
            rejected += 1;
        }
        let adm = svc.admission_stats();
        assert_eq!(adm.rejected_quota, rejected);
        assert_eq!(adm.accepted + adm.rejected_quota + adm.rejected_slo, offered);
        assert_eq!(svc.stats().completed_total(), adm.accepted, "every admitted put ran");
        let img = svc.shard(0).runtime().device().capture(CrashPolicy::AllLost);
        let fx = forensics(&img);
        let quota_events = fx.events.iter().filter(|e| e.kind == BbKind::GovQuota).count();
        assert!(quota_events > 0, "GovQuota events survive on shard 0's ring:\n{fx}");
        svc.shutdown();
    }

    #[test]
    fn stats_merge_over_workers_and_outlive_them() {
        let svc = KvService::open(small().with_workers(2));
        let (mut w0, mut w1) = (svc.worker(0), svc.worker(1));
        for key in 0..10 {
            w0.put(0, key, key).unwrap();
        }
        for key in 0..4 {
            assert_eq!(w1.get(0, key).unwrap(), Some(key));
        }
        let stats = svc.stats();
        assert_eq!((stats.completed(OpClass::Put), stats.completed(OpClass::Get)), (10, 4));
        assert_eq!(stats.completed_total(), 14);
        let put_sim = stats.sim(OpClass::Put);
        assert_eq!((put_sim.count(), stats.host(OpClass::Get).count()), (10, 4));
        assert!(put_sim.sum > 0, "a put pays for a flush and a fence");
        drop(w0);
        assert_eq!(stats.sim(OpClass::Put), put_sim, "a dropped worker's cell still counts");
        // A new worker on the freed slot adds to the totals, not over them.
        svc.worker(0).put(0, 99, 1).unwrap();
        assert_eq!(stats.completed(OpClass::Put), 11);
        assert_eq!(stats.sim(OpClass::Put).count(), 11);
        drop(w1);
        svc.shutdown();
    }

    #[test]
    fn shard_tail_sees_fence_stalls_recorded_through_a_workers_handle() {
        let svc = KvService::open(small());
        let tails = |svc: &KvService| (svc.shard(0).tail_p99_ns(), svc.shard(1).tail_p99_ns());
        assert_eq!(tails(&svc), (0, 0));
        let mut w = svc.worker(0);
        for key in 0..64 {
            w.put(0, key, key).unwrap();
        }
        // Every put's commit fence waited out its record's WPQ acceptance
        // on the worker's own device handle; the shard's p99 reads it.
        let live = tails(&svc);
        assert!(live.0 > 0 && live.1 > 0, "{live:?}");
        drop(w);
        assert_eq!(tails(&svc), live, "and keeps it once the handle is gone");
        svc.shutdown();
    }

    #[test]
    fn workers_and_their_handles_move_across_threads() {
        fn sendable<T: Send>() {}
        sendable::<KvWorker<'static>>();
        sendable::<LockedTxHandle>();
        sendable::<specpmt_core::TxHandle>();
    }

    #[test]
    fn sixteen_workers_race_on_hot_keys() {
        let svc = KvService::open(
            KvConfig::default()
                .with_shards(2)
                .with_workers(8)
                .with_capacity_per_shard(1 << 8)
                .with_pool_bytes(4 << 20)
                // Contention is the point here — don't let the SLO
                // governor shed the hot-key storm this test creates.
                .with_governor_every(0),
        );
        std::thread::scope(|s| {
            for wid in 0..8 {
                let svc = &svc;
                s.spawn(move || {
                    let mut w = svc.worker(wid);
                    for i in 0..200u64 {
                        // Everyone hammers the same 8 hot keys.
                        let key = i % 8;
                        w.put(0, key, (wid as u64) << 32 | i).unwrap();
                        let _ = w.get(0, key).unwrap();
                    }
                });
            }
        });
        assert_eq!(svc.stats().completed(OpClass::Put), 8 * 200);
        svc.shutdown();
    }
}
