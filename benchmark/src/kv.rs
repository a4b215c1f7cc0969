//! `kv_read` and `kv_write`: the sharded KV service driven closed-loop
//! from one harness thread.
//!
//! One schedule cycle is [`RECLAIM_EVERY`] requests in [`SEG_OPS`]-request
//! segments followed by one `reclaim_cycle()` per shard — the harness
//! calls reclamation on a fixed op schedule, so no daemon, governor or
//! worker pool shares the two cores with the measurement. An op is an
//! admitted request.

use std::collections::HashMap;

use specpmt_core::recovery::committed_records;
use specpmt_core::ReclaimStats;
use specpmt_kv::{
    CasOutcome, KvConfig, KvError, KvOp, KvService, KvWorker, LoadGen, OpClass, OpMix, OpResult,
    ShardRouter, WorkloadSpec, OP_CLASSES,
};
use specpmt_pmem::{CrashControl, CrashPolicy, PmemStats};
use specpmt_telemetry::{HistogramSnapshot, Phase};
use specpmt_txn::LockTableStats;

use crate::alloc::AllocCount;
use crate::estimator::{composite, SegmentClass, FAST_Q};
use crate::harness::{mix64, peak_rss_mb, setup_repeated, timed, Clock, Plan};
use crate::ladder;
use crate::layers::{add_pmem, report_commit_phases, report_host, report_pmem};
use crate::probes;
use crate::report::Outcome;

pub const SHARDS: usize = 2;
pub const TENANTS: u32 = 2;
pub const KEY_SPACE: u64 = 16_384;
/// Requests per timed segment.
pub const SEG_OPS: usize = 10_000;
/// The harness reclaims both shards after this many requests; a multiple
/// of [`SEG_OPS`] on purpose, so reclamation never splits a segment.
pub const RECLAIM_EVERY: usize = 100_000;
const SEGS_PER_CYCLE: usize = RECLAIM_EVERY / SEG_OPS;
/// 300 op segments and 30 reclaim-pair segments. The deterministic metrics are
/// taken over exactly these cycles however many more the budget allows.
const MIN_CYCLES: usize = 30;

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub theta: f64,
    pub mix: OpMix,
}

pub const READ: Spec = Spec {
    theta: 0.99,
    mix: OpMix { get_pct: 90, put_pct: 5, delete_pct: 0, cas_pct: 0, scan_pct: 5 },
};

pub const WRITE: Spec = Spec {
    theta: 0.6,
    mix: OpMix { get_pct: 15, put_pct: 50, delete_pct: 10, cas_pct: 25, scan_pct: 0 },
};

pub fn config() -> KvConfig {
    KvConfig::default()
        .with_shards(SHARDS)
        .with_workers(1)
        .with_tenants(TENANTS)
        .with_capacity_per_shard(1 << 15)
        .with_pool_bytes(64 << 20)
        .with_group_commit(false)
        .with_daemons(false)
        .with_governor_every(0)
        .with_flight_recorder(false)
}

pub fn load_gen(spec: &Spec, seed: u64) -> LoadGen {
    LoadGen::new(WorkloadSpec {
        seed: mix64(seed),
        tenants: TENANTS,
        key_space: KEY_SPACE,
        theta: spec.theta,
        mix: spec.mix,
    })
}

/// The single-threaded shadow of the service: what every request must
/// return, and what must survive a crash.
#[derive(Debug)]
pub struct Model {
    map: HashMap<(u32, u64), u64>,
    /// Live keys per `(shard, tenant)`: what bounds a scan's length.
    live: [[usize; TENANTS as usize]; SHARDS],
    router: ShardRouter,
}

impl Model {
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            live: [[0; TENANTS as usize]; SHARDS],
            router: ShardRouter::new(SHARDS),
        }
    }

    fn insert(&mut self, tenant: u32, key: u64, value: u64) {
        if self.map.insert((tenant, key), value).is_none() {
            self.live[self.router.shard_of(tenant, key)][tenant as usize] += 1;
        }
    }

    fn remove(&mut self, tenant: u32, key: u64) -> bool {
        let found = self.map.remove(&(tenant, key)).is_some();
        if found {
            self.live[self.router.shard_of(tenant, key)][tenant as usize] -= 1;
        }
        found
    }

    /// Applies `op` to the model and checks the service's answer.
    pub fn check(&mut self, op: &KvOp, got: &Result<OpResult, KvError>) -> Result<(), String> {
        let got = got.as_ref().map_err(|e| format!("{op:?} refused: {e}"))?;
        let (t, k) = (op.tenant, op.key);
        let want = match op.class {
            OpClass::Get => OpResult::Value(self.map.get(&(t, k)).copied()),
            OpClass::Put => {
                self.insert(t, k, op.value);
                OpResult::Stored
            }
            OpClass::Delete => OpResult::Deleted(self.remove(t, k)),
            OpClass::Cas => {
                // Generated CAS proposes against the value it just read, so
                // from one thread it always applies.
                self.insert(t, k, op.value);
                OpResult::Cas(CasOutcome::Applied)
            }
            OpClass::Scan => return self.check_scan(op, got),
        };
        if *got == want {
            Ok(())
        } else {
            Err(format!("{op:?}: got {got:?}, model says {want:?}"))
        }
    }

    /// A scan walks the table from the key's slot, so its order is the
    /// table's business; its entries must be the tenant's live pairs, each
    /// once, and as many as the limit and the shard allow.
    fn check_scan(&self, op: &KvOp, got: &OpResult) -> Result<(), String> {
        let OpResult::Scanned(entries) = got else {
            return Err(format!("{op:?}: got {got:?}, expected a scan result"));
        };
        let shard = self.router.shard_of(op.tenant, op.key);
        let want_len = (op.value as usize).min(self.live[shard][op.tenant as usize]);
        if entries.len() != want_len {
            return Err(format!("{op:?}: {} entries, model says {want_len}", entries.len()));
        }
        for (i, &(key, value)) in entries.iter().enumerate() {
            if self.map.get(&(op.tenant, key)) != Some(&value)
                || self.router.shard_of(op.tenant, key) != shard
                || entries[..i].iter().any(|&(k, _)| k == key)
            {
                return Err(format!("{op:?}: entry ({key}, {value}) is not a live pair"));
            }
        }
        Ok(())
    }
}

/// Crashes every shard losing all unflushed state, recovers, and reads
/// every key of the key space back: acknowledged writes must be there,
/// deleted and never-written keys must not. Returns the mismatches.
pub fn verify_durable(svc: &KvService, model: &Model) -> Vec<String> {
    let mut bad = Vec::new();
    for shard in 0..SHARDS {
        let s = svc.shard(shard);
        let mut img = s.runtime().device().capture(CrashPolicy::AllLost);
        s.recover_image(&mut img);
        for tenant in 0..TENANTS {
            for key in 0..KEY_SPACE {
                if model.router.shard_of(tenant, key) != shard {
                    continue;
                }
                let got = s.table().get_in_image(&img, tenant, key);
                let want = model.map.get(&(tenant, key)).copied();
                if got != want {
                    bad.push(format!(
                        "after crash, shard {shard} (t{tenant}, k{key}): {got:?}, acknowledged {want:?}"
                    ));
                }
            }
        }
    }
    bad
}

/// Opens the service and preloads every key of every tenant.
pub fn open_preloaded(seed: u64, model: &mut Model, outcome: &mut Outcome) -> KvService {
    let svc = KvService::open(config());
    let mut w = svc.worker(0);
    let salt = mix64(seed);
    for tenant in 0..TENANTS {
        for key in 0..KEY_SPACE {
            let op = KvOp { tenant, class: OpClass::Put, key, value: mix64(key ^ salt) };
            if let Err(why) = model.check(&op, &w.execute(op)) {
                outcome.fail(1, format!("preload: {why}"));
            }
        }
    }
    drop(w);
    svc
}

/// Counter snapshots taken at cycle boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sim_ns: u64,
    pm_write_bytes: u64,
}

fn counters(svc: &KvService) -> Counters {
    Counters {
        sim_ns: OP_CLASSES.iter().map(|&c| svc.stats().sim(c).sum).sum(),
        pm_write_bytes: device_stats(svc).pm_write_bytes(),
    }
}

fn device_stats(svc: &KvService) -> PmemStats {
    let mut total = PmemStats::default();
    for s in 0..SHARDS {
        add_pmem(&mut total, &svc.shard(s).runtime().device().stats());
    }
    total
}

fn log_footprint(svc: &KvService) -> usize {
    (0..SHARDS).map(|s| svc.shard(s).runtime().log_footprint()).sum()
}

/// What one schedule cycle moved on the deterministic side.
#[derive(Debug, Clone, Copy)]
struct CycleRecord {
    sim_ns: u64,
    pm_write_bytes: u64,
    /// Σ-shard log footprint just before the cycle's reclamation.
    log_footprint: usize,
}

/// The load generator and the model it feeds: everything that changes
/// while requests flow, apart from the service itself.
struct Driver {
    gen: LoadGen,
    model: Model,
    /// Reused per segment so the timed loop does not grow vectors.
    ops: Vec<KvOp>,
    results: Vec<Result<OpResult, KvError>>,
}

impl Driver {
    fn new(gen: LoadGen, model: Model) -> Self {
        Self { gen, model, ops: Vec::with_capacity(SEG_OPS), results: Vec::with_capacity(SEG_OPS) }
    }

    /// One timed segment of `n` closed-loop requests, then the untimed
    /// op-by-op check against the model.
    fn segment(
        &mut self,
        w: &mut KvWorker<'_>,
        n: usize,
        outcome: &mut Outcome,
    ) -> (u64, AllocCount) {
        self.ops.clear();
        self.results.clear();
        let (gen, ops, results) = (&mut self.gen, &mut self.ops, &mut self.results);
        let ((), ns, allocs) = timed(|| {
            for _ in 0..n {
                let op = gen.next_op();
                ops.push(op);
                results.push(w.execute(op));
            }
        });
        outcome.attempted += n as u64;
        for (op, got) in self.ops.iter().zip(&self.results) {
            if let Err(why) = self.model.check(op, got) {
                outcome.fail(1, why);
            }
        }
        (ns, allocs)
    }
}

/// A measured phase of schedule cycles.
struct Measured {
    classes: [SegmentClass; 2],
    cycles: Vec<CycleRecord>,
    ops: u64,
    allocs: AllocCount,
    /// Σ simulated duration of the harness-scheduled reclaim cycles.
    reclaim_sim_ns: u64,
}

impl Measured {
    fn new() -> Self {
        Self {
            classes: [
                SegmentClass::new("ops", SEGS_PER_CYCLE as f64),
                SegmentClass::new("reclaim", 1.0),
            ],
            cycles: Vec::new(),
            ops: 0,
            allocs: AllocCount::default(),
            reclaim_sim_ns: 0,
        }
    }
}

const OPS: usize = 0;
const RECLAIM: usize = 1;

fn one_cycle(
    svc: &KvService,
    w: &mut KvWorker<'_>,
    drv: &mut Driver,
    seg_ops: usize,
    m: &mut Measured,
    outcome: &mut Outcome,
) {
    let c0 = counters(svc);
    for _ in 0..SEGS_PER_CYCLE {
        let (ns, allocs) = drv.segment(w, seg_ops, outcome);
        m.classes[OPS].ns.push(ns);
        m.allocs.add(allocs);
        m.ops += seg_ops as u64;
    }
    let log_footprint = log_footprint(svc);
    // One segment is the reclaim pair: the shards carry unequal loads, so
    // a per-call class would take its fast decile from the lighter shard.
    let ((), ns, allocs) = timed(|| {
        for s in 0..SHARDS {
            svc.shard(s).runtime().reclaim_cycle();
        }
    });
    m.classes[RECLAIM].ns.push(ns);
    m.allocs.add(allocs);
    for s in 0..SHARDS {
        m.reclaim_sim_ns += svc.shard(s).runtime().reclaim_stats().last_cycle_ns;
    }
    let c1 = counters(svc);
    m.cycles.push(CycleRecord {
        sim_ns: c1.sim_ns - c0.sim_ns,
        pm_write_bytes: c1.pm_write_bytes - c0.pm_write_bytes,
        log_footprint,
    });
}

fn measure(
    svc: &KvService,
    w: &mut KvWorker<'_>,
    drv: &mut Driver,
    plan: &Plan,
    budget_s: f64,
    min_cycles: usize,
    outcome: &mut Outcome,
) -> Measured {
    let mut m = Measured::new();
    let seg_ops = seg_ops(plan);
    let clock = Clock::start(budget_s, min_cycles);
    while clock.another_cycle(m.cycles.len()) {
        one_cycle(svc, w, drv, seg_ops, &mut m, outcome);
    }
    m
}

/// Requests per segment: a fiftieth under `--smoke`, so the smoke still
/// runs whole cycles with reclamation in them.
fn seg_ops(plan: &Plan) -> usize {
    if plan.smoke {
        SEG_OPS / 50
    } else {
        SEG_OPS
    }
}

/// The set-up procedure: open, preload, and warm up for one full reclaim
/// interval, so that timed cycles recycle log blocks instead of touching
/// fresh ones.
fn setup(spec: &Spec, plan: &Plan, outcome: &mut Outcome) -> (KvService, Driver) {
    let mut model = Model::new();
    let svc = open_preloaded(plan.seed, &mut model, outcome);
    let mut drv = Driver::new(load_gen(spec, plan.seed), model);
    let mut warm = Measured::new();
    let mut w = svc.worker(0);
    one_cycle(&svc, &mut w, &mut drv, seg_ops(plan), &mut warm, outcome);
    drop(w);
    (svc, drv)
}

fn hist_delta(now: &HistogramSnapshot, before: &HistogramSnapshot) -> (u64, u64) {
    (now.sum - before.sum, now.count() - before.count())
}

pub fn run(spec: &Spec, plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    let ((svc, mut drv), setup_s) = {
        // Failures of the torn-down set-ups count too.
        let mut setup_outcome = Outcome::default();
        let out = setup_repeated(|| setup(spec, plan, &mut setup_outcome));
        outcome.failed += setup_outcome.failed;
        outcome.failures.append(&mut setup_outcome.failures);
        out
    };
    let mut w = svc.worker(0);
    let min_cycles = plan.min_cycles(MIN_CYCLES);
    let ops_per_cycle = (SEGS_PER_CYCLE * seg_ops(plan)) as f64;

    if !plan.trace {
        let m = measure(&svc, &mut w, &mut drv, plan, plan.budget_s(), min_cycles, &mut outcome);
        drop(w);
        let fixed = &m.cycles[..min_cycles];
        let fixed_ops = fixed.len() as f64 * ops_per_cycle;
        outcome.set("setup_s", setup_s);
        outcome.set("host_ns_per_op", composite(&m.classes, ops_per_cycle, FAST_Q));
        outcome
            .set("sim_ns_per_op", fixed.iter().map(|c| c.sim_ns).sum::<u64>() as f64 / fixed_ops);
        outcome.set(
            "pm_write_bytes_per_op",
            fixed.iter().map(|c| c.pm_write_bytes).sum::<u64>() as f64 / fixed_ops,
        );
        outcome
            .set("log_peak_bytes", fixed.iter().map(|c| c.log_footprint).max().unwrap_or(0) as f64);
        for why in verify_durable(&svc, &drv.model) {
            outcome.fail(1, why);
        }
        outcome.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    // The traced run. First the untraced schedule, with the public stats
    // structs read before and after.
    let budget = plan.budget_s();
    let share = |f: f64| (budget * f, (min_cycles / 3).max(1));
    let stats0 = device_stats(&svc);
    let kv0: Vec<_> =
        OP_CLASSES.iter().map(|&c| (svc.stats().host(c), svc.stats().sim(c))).collect();
    let locks0: Vec<LockTableStats> = (0..SHARDS).map(|s| svc.shard(s).locks().stats()).collect();
    let reclaim0: Vec<ReclaimStats> =
        (0..SHARDS).map(|s| svc.shard(s).runtime().reclaim_stats()).collect();
    let (s, n) = share(0.4);
    let plain = measure(&svc, &mut w, &mut drv, plan, s, n, &mut outcome);
    let ops = plain.ops as f64;

    let sim_per_op = plain.cycles.iter().map(|c| c.sim_ns).sum::<u64>() as f64 / ops;
    let fast =
        report_host(&mut outcome, &plain.classes, ops_per_cycle, sim_per_op, plain.allocs, ops);
    let d = device_stats(&svc).delta_since(&stats0);
    report_pmem(&mut outcome, &d, ops);
    let mut drains = HistogramSnapshot::default();
    for s in 0..SHARDS {
        drains.merge(&svc.shard(s).runtime().device().wpq_drain_histogram());
    }
    outcome.set("pmem.wpq_drain_sim_ns_p99", drains.quantile(0.99) as f64);

    for (&class, (host0, sim0)) in OP_CLASSES.iter().zip(&kv0) {
        let (host_sum, n) = hist_delta(&svc.stats().host(class), host0);
        let (sim_sum, _) = hist_delta(&svc.stats().sim(class), sim0);
        let n = n.max(1) as f64;
        outcome.set(format!("kv.service.host_ns_per_op.{}", class.as_str()), host_sum as f64 / n);
        outcome.set(format!("kv.service.sim_ns_per_op.{}", class.as_str()), sim_sum as f64 / n);
    }

    let mut locks = LockTableStats::default();
    let mut waits = HistogramSnapshot::default();
    for (s, l0) in locks0.iter().enumerate() {
        let l = svc.shard(s).locks().stats().delta_since(l0);
        locks.acquires += l.acquires;
        locks.conflicts += l.conflicts;
        waits.merge(&svc.shard(s).locks().wait_histogram());
    }
    outcome.set("txn.lock.acquires_per_op", locks.acquires as f64 / ops);
    outcome.set("txn.lock.conflict_rate", locks.conflict_rate());
    outcome.set("txn.lock.wait_host_ns_p99", waits.quantile(0.99) as f64);
    let adm = svc.admission_stats();
    let offered = (adm.accepted + adm.rejected_quota + adm.rejected_slo).max(1);
    outcome.set(
        "kv.admission.rejected_share",
        (adm.rejected_quota + adm.rejected_slo) as f64 / offered as f64,
    );

    let mut reclaim = ReclaimStats::default();
    for (s, r0) in reclaim0.iter().enumerate() {
        let r = svc.shard(s).runtime().reclaim_stats().delta_since(r0);
        reclaim.cycles += r.cycles;
        reclaim.records_kept += r.records_kept;
        reclaim.records_dropped += r.records_dropped;
    }
    let reclaim_class = &plain.classes[RECLAIM];
    let calls = reclaim.cycles.max(1) as f64;
    outcome.set("core.reclaim.cycles", reclaim.cycles as f64);
    outcome.set(
        "core.reclaim.host_ms_per_cycle",
        reclaim_class.quantile(FAST_Q) / 1e6 / SHARDS as f64,
    );
    outcome.set(
        "core.reclaim.host_ns_per_op",
        reclaim_class.per_cycle * reclaim_class.quantile(FAST_Q) / ops_per_cycle,
    );
    outcome.set("core.reclaim.sim_ns_per_op", plain.reclaim_sim_ns as f64 / ops);
    outcome.set("core.reclaim.records_kept_per_cycle", reclaim.records_kept as f64 / calls);
    outcome.set("core.reclaim.records_dropped_per_cycle", reclaim.records_dropped as f64 / calls);
    outcome.set(
        "core.reclaim.kept_ratio",
        reclaim.records_kept as f64
            / (reclaim.records_kept + reclaim.records_dropped).max(1) as f64,
    );

    // The same schedule with the program's own Registry recording.
    for s in 0..SHARDS {
        svc.shard(s).runtime().telemetry().registry.set_enabled(true);
    }
    let (s, n) = share(0.2);
    let tel = measure(&svc, &mut w, &mut drv, plan, s, n, &mut outcome);
    outcome.set(
        "telemetry.on_overhead_pct",
        (composite(&tel.classes, ops_per_cycle, FAST_Q) / fast - 1.0) * 100.0,
    );
    let phase = |p: Phase| {
        let mut merged = HistogramSnapshot::default();
        for s in 0..SHARDS {
            let reg = &svc.shard(s).runtime().telemetry().registry;
            // Shard 0 of the registry is the worker; the last is the
            // reclaimer's, whose cycles are not commits.
            merged.merge(&reg.phase_in(0, p));
        }
        merged.mean()
    };
    report_commit_phases(&mut outcome, phase);
    for s in 0..SHARDS {
        svc.shard(s).runtime().telemetry().registry.set_enabled(false);
    }
    drop(w);

    // The peeling ladder and the standalone probes.
    let op_fast = plain.classes[OPS].quantile(FAST_Q) / seg_ops(plan) as f64;
    ladder::run(spec, plan, op_fast, &mut outcome);
    let lines_per_commit = (d.lines_persisted as f64 / d.sfence_count.max(1) as f64).round();
    outcome.set(
        "pmem.shared_commit_probe_host_ns",
        probes::shared_commit_probe_ns(lines_per_commit.max(1.0) as usize),
    );

    // Durability check, and the record parser on the crash images' logs.
    for why in verify_durable(&svc, &drv.model) {
        outcome.fail(1, why);
    }
    let img = svc.shard(0).runtime().device().capture(CrashPolicy::AllLost);
    let (records, ns, _) = timed(|| committed_records(&img));
    outcome.set("core.record.parse_host_ns_per_record", ns as f64 / records.len().max(1) as f64);
    let (entries, bytes) = records
        .iter()
        .fold((0usize, 0usize), |(e, b), r| (e + r.entries.len(), b + r.payload_len()));
    let per_record = |v: usize| (v as f64 / records.len().max(1) as f64).round() as usize;
    outcome.set(
        "core.checksum.fnv1a64_host_ns_per_kib",
        probes::checksum_ns_per_kib(per_record(bytes)),
    );
    outcome.set(
        "core.writeset.stage_host_ns_per_entry",
        probes::writeset_stage_ns_per_entry(per_record(entries)),
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Plan {
        Plan { seed, seconds: 0.5, trace: false, smoke: true }
    }

    #[test]
    fn reclaim_fires_once_per_shard_every_reclaim_interval() {
        assert_eq!(RECLAIM_EVERY % SEG_OPS, 0, "reclamation must not split a segment");
        let plan = smoke(1);
        let mut outcome = Outcome::default();
        let (svc, mut drv) = setup(&WRITE, &plan, &mut outcome);
        let before: u64 = (0..SHARDS).map(|s| svc.shard(s).runtime().reclaim_stats().cycles).sum();
        let mut w = svc.worker(0);
        let m = measure(&svc, &mut w, &mut drv, &plan, 0.0, 3, &mut outcome);
        let after: u64 = (0..SHARDS).map(|s| svc.shard(s).runtime().reclaim_stats().cycles).sum();
        assert_eq!(m.cycles.len(), 3);
        assert_eq!(m.classes[OPS].ns.len(), 3 * SEGS_PER_CYCLE);
        assert_eq!(m.classes[RECLAIM].ns.len(), 3);
        assert_eq!(after - before, (3 * SHARDS) as u64, "one reclaim_cycle per shard per cycle");
        assert_eq!(m.ops, (3 * SEGS_PER_CYCLE * seg_ops(&plan)) as u64);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    }

    #[test]
    fn same_seed_same_deterministic_metrics_other_seed_other_stream() {
        let a = run(&WRITE, &smoke(5));
        let b = run(&WRITE, &smoke(5));
        let c = run(&WRITE, &smoke(6));
        for name in crate::report::DETERMINISTIC {
            assert_eq!(a.metrics[name], b.metrics[name], "{name} must repeat bit-for-bit");
        }
        assert!(a.correct() && b.correct() && c.correct());
        assert_ne!(load_gen(&WRITE, 5).take(64), load_gen(&WRITE, 6).take(64));
        assert_eq!(load_gen(&WRITE, 5).take(64), load_gen(&WRITE, 5).take(64));
        assert_ne!(a.metrics["sim_ns_per_op"], c.metrics["sim_ns_per_op"]);
    }

    #[test]
    fn the_model_catches_a_wrong_answer_and_a_lost_write() {
        let mut model = Model::new();
        let put = KvOp { tenant: 0, class: OpClass::Put, key: 3, value: 9 };
        assert!(model.check(&put, &Ok(OpResult::Stored)).is_ok());
        let get = KvOp { tenant: 0, class: OpClass::Get, key: 3, value: 0 };
        assert!(model.check(&get, &Ok(OpResult::Value(Some(9)))).is_ok());
        assert!(model.check(&get, &Ok(OpResult::Value(Some(8)))).is_err());
        assert!(model.check(&get, &Err(KvError::Overloaded)).is_err());
        let scan = KvOp { tenant: 0, class: OpClass::Scan, key: 3, value: 4 };
        assert!(model.check(&scan, &Ok(OpResult::Scanned(vec![(3, 9)]))).is_ok());
        assert!(model.check(&scan, &Ok(OpResult::Scanned(vec![]))).is_err());
        assert!(model.check(&scan, &Ok(OpResult::Scanned(vec![(3, 7)]))).is_err());

        // A write the service never saw is a write lost by the crash.
        let mut outcome = Outcome::default();
        let mut served = Model::new();
        let svc = open_preloaded(1, &mut served, &mut outcome);
        assert!(verify_durable(&svc, &served).is_empty());
        served.insert(0, 1, 0xDEAD);
        assert_eq!(verify_durable(&svc, &served).len(), 1);
    }
}
