//! Cross-layer telemetry accounting invariants: the metrics registry, the
//! flight recorder's events, and the device's own persistence counters
//! must agree with each other — otherwise the observability layer would be
//! decorative.
//! The registry's `commit_sim` phase is also where the exact
//! simulated-commit-cost goldens are read.

use specpmt::core::{ConcurrentConfig, ReclaimMode, SpecConfig, SpecSpmt, SpecSpmtShared};
use specpmt::pmem::{PmemConfig, PmemDevice, PmemPool, SharedPmemDevice, SharedPmemPool};
use specpmt::telemetry::{Metric, Phase, Telemetry};
use specpmt::txn::{TxAccess, TxRuntime};

fn seq_runtime() -> (SpecSpmt, usize) {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
    let base = pool.alloc_direct(4096, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    (SpecSpmt::new(pool, cfg), base)
}

fn commit_n(rt: &mut SpecSpmt, base: usize, n: u64) {
    for i in 0..n {
        rt.begin();
        rt.write_u64(base + ((i as usize * 24) % 4096 / 8) * 8, i);
        rt.write_u64(base + ((i as usize * 40 + 8) % 4096 / 8) * 8, !i);
        rt.commit();
    }
}

/// Every simulated `sfence` the device executes must be counted exactly
/// once by the `fences` counter, and the lifecycle counters must agree
/// with the transactions run — the registry is not allowed to drop or
/// invent fences.
#[test]
fn fence_counter_matches_device_sfence_count() {
    let (mut rt, base) = seq_runtime();
    rt.telemetry().set_enabled(true);
    let sfences_before = rt.pool().device().stats().sfence_count;

    commit_n(&mut rt, base, 37);

    let sfence_delta = rt.pool().device().stats().sfence_count - sfences_before;
    assert_eq!(sfence_delta, 37, "one fence per commit (non-DP, reclamation disabled)");
    let reg = &rt.telemetry().registry;
    assert_eq!(reg.counter(Metric::Fences), sfence_delta, "every device sfence counted once");
    assert_eq!(reg.counter(Metric::Commits), 37);
    assert_eq!(reg.counter(Metric::Begins), 37);
}

/// The instrumented sub-phases of a commit (seal, append, flush, fence,
/// lock release) are nested inside the whole-commit envelope span, so
/// their summed latencies can never exceed the envelope's. (Write-set
/// staging happens in the transaction body, outside the envelope, and is
/// deliberately excluded.)
#[test]
fn commit_subphase_sums_fit_inside_envelope() {
    let (mut rt, base) = seq_runtime();
    rt.telemetry().set_enabled(true);
    commit_n(&mut rt, base, 200);

    let reg = &rt.telemetry().registry;
    let envelope = reg.phase(Phase::Commit);
    assert_eq!(envelope.count(), 200);
    let sub_sum: u64 = [Phase::Seal, Phase::Append, Phase::Flush, Phase::Fence, Phase::LockRelease]
        .iter()
        .map(|&p| reg.phase(p).sum)
        .sum();
    assert!(envelope.sum > 0, "200 commits must accumulate envelope time");
    assert!(
        sub_sum <= envelope.sum,
        "sub-phases ({sub_sum} ns) must nest within the commit envelope ({} ns)",
        envelope.sum
    );
}

/// Same nesting invariant on the shared runtime's seal path, which also
/// has a real lock-release phase (the area lock handed back to the
/// daemon).
#[test]
fn shared_commit_subphase_sums_fit_inside_envelope() {
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 20));
    let pool = SharedPmemPool::create(dev);
    let shared = SpecSpmtShared::open_or_format(pool, ConcurrentConfig::default());
    shared.telemetry().set_enabled(true);
    let base = shared.pool().alloc_direct(4096, 64).unwrap();
    let mut h = shared.tx_handle(0);
    for i in 0..100u64 {
        h.begin();
        h.write_u64(base + ((i as usize * 16) % 4096 / 8) * 8, i);
        h.commit();
    }
    let reg = &shared.telemetry().registry;
    let envelope = reg.phase(Phase::Commit);
    assert_eq!(envelope.count(), 100);
    let sub_sum: u64 = [Phase::Seal, Phase::Append, Phase::Flush, Phase::Fence, Phase::LockRelease]
        .iter()
        .map(|&p| reg.phase(p).sum)
        .sum();
    assert!(sub_sum <= envelope.sum, "sub-phases must nest within the envelope");
    // The shared runtime really exercises the lock-release phase.
    assert_eq!(reg.phase(Phase::LockRelease).count(), 100);
}

/// Telemetry begins disabled and its surfaces all read as empty; enabling
/// + resetting round-trips cleanly.
#[test]
fn disabled_telemetry_reads_empty_and_reset_roundtrips() {
    let (mut rt, base) = seq_runtime();
    // Disabled by default: nothing records.
    commit_n(&mut rt, base, 10);
    assert_eq!(rt.telemetry().registry.counter(Metric::Commits), 0);
    assert_eq!(rt.telemetry().registry.phase(Phase::Commit).count(), 0);
    // Enable, record, reset: back to empty.
    rt.telemetry().set_enabled(true);
    commit_n(&mut rt, base, 5);
    assert_eq!(rt.telemetry().registry.counter(Metric::Commits), 5);
    rt.telemetry().reset();
    assert_eq!(rt.telemetry().registry.counter(Metric::Commits), 0);
}

/// Every third transaction of the mixed streams below only reads.
fn mixed_stream<A: TxAccess>(a: &mut A, base: usize, n: u64) -> u64 {
    let mut write_free = 0;
    for i in 0..n {
        a.begin();
        if i % 3 == 1 {
            let _ = a.read_u64(base);
            write_free += 1;
        } else {
            a.write_u64(base + (i as usize % 64) * 8, i);
        }
        a.commit();
    }
    write_free
}

/// The books of a 60-transaction [`mixed_stream`] that issued `sfences`
/// device fences: only the writers appended, fenced, and fed the
/// commit-cost phases.
fn assert_write_free_books(tel: &Telemetry, sfences: u64, write_free: u64) {
    let reg = &tel.registry;
    assert_eq!(reg.counter(Metric::Commits), 60);
    assert_eq!(reg.counter(Metric::WriteFreeCommits), write_free);
    assert_eq!(reg.counter(Metric::LogAppends), 60 - write_free);
    assert_eq!(sfences, 60 - write_free, "only writing commits fence");
    assert_eq!(reg.counter(Metric::Fences), sfences);
    assert_eq!(reg.phase(Phase::Commit).count(), 60 - write_free, "no zero-cost samples");
    assert_eq!(reg.phase(Phase::CommitSim).count(), 60 - write_free);
}

/// A write-free commit appends no record, fences nothing, and feeds no
/// sample into the commit-cost phases — on both engines, the counters
/// still add up exactly: `commits == log_appends + write_free_commits`
/// and every device `sfence` is one counted fence.
#[test]
fn write_free_commits_are_counted_and_cost_nothing() {
    let (mut rt, base) = seq_runtime();
    rt.telemetry().set_enabled(true);
    let sfences_before = rt.pool().device().stats().sfence_count;
    let write_free = mixed_stream(&mut rt, base, 60);
    let sfences = rt.pool().device().stats().sfence_count - sfences_before;
    assert_write_free_books(rt.telemetry(), sfences, write_free);
    let stats = rt.tx_stats();
    assert_eq!((stats.tx_committed, stats.write_free_commits), (60, write_free));

    let shared = SpecSpmtShared::open_or_format(1usize << 20, ConcurrentConfig::default());
    shared.telemetry().set_enabled(true);
    let base = shared.pool().alloc_direct(4096, 64).unwrap();
    let mut h = shared.tx_handle(0);
    let sfences_before = shared.device().stats().sfence_count;
    let write_free = mixed_stream(&mut h, base, 60);
    let sfences = shared.device().stats().sfence_count - sfences_before;
    assert_write_free_books(shared.telemetry(), sfences, write_free);
    assert_eq!(shared.stats().commits, 60);

    // The receipt of a write-free commit names no record: it carries the
    // timestamp frontier without consuming it.
    h.begin();
    h.write_u64(base, 1);
    let w1 = h.commit();
    h.begin();
    let r = h.commit();
    h.begin();
    h.write_u64(base, 2);
    let w2 = h.commit();
    assert_eq!(r.ts(), w1.ts() + 1);
    assert_eq!(w2.ts(), r.ts(), "the next writer draws the timestamp the reader only observed");
}

/// The recorder's `tx_begin` is emitted when a record is reserved, so the
/// forensic in-flight set names only transactions that can have bytes in
/// PM: an open reader is not one, an open writer is, and a kv `get`
/// bracket stays visible as an op without a transaction.
#[test]
fn forensics_in_flight_set_skips_write_free_transactions() {
    use specpmt::core::forensics;
    use specpmt::pmem::{CrashControl, CrashPolicy};
    use specpmt::telemetry::BbKind;

    let cfg = ConcurrentConfig::builder().threads(2).flight_recorder(true).build();
    let shared = SpecSpmtShared::open_or_format(1usize << 20, cfg);
    let base = shared.pool().alloc_direct(64, 64).unwrap();
    let mut reader = shared.tx_handle(0);
    let mut writer = shared.tx_handle(1);
    let open_txs = |shared: &SpecSpmtShared| -> Vec<u16> {
        // AllSurvive keeps every staged recorder slot, flushed or not.
        let fx = forensics(&shared.device().capture(CrashPolicy::AllSurvive));
        assert!(fx.recorder_present);
        fx.in_flight.iter().filter(|f| f.begin_ts != 0).map(|f| f.tid).collect()
    };

    reader.record_event(BbKind::KvOp, 7, 0, 0);
    reader.begin();
    let _ = reader.read_u64(base);
    writer.begin();
    writer.write_u64(base + 8, 1);
    assert_eq!(open_txs(&shared), vec![1], "only the writer is in flight");
    let fx = forensics(&shared.device().capture(CrashPolicy::AllSurvive));
    let get = fx.in_flight.iter().find(|f| f.tid == 0).expect("the get bracket is open");
    assert_eq!((get.begin_ts, get.kv_op), (0, Some("get")));

    reader.commit();
    reader.record_event(BbKind::KvOpDone, 7, 0, 0);
    assert_eq!(open_txs(&shared), vec![1]);
    writer.commit();
    assert_eq!(open_txs(&shared), Vec::<u16>::new());
}

/// The flight recorder is the runtime's one event stream, so its counts
/// must reconcile with the registry's: over a 60-transaction
/// [`mixed_stream`] one `tx_begin` per appended record, one `tx_commit`
/// receipt per writing commit and none for the write-free third, in
/// commit-timestamp order, with nothing torn.
#[test]
fn recorder_events_reconcile_with_registry_counters() {
    use specpmt::core::forensics;
    use specpmt::pmem::{CrashControl, CrashPolicy};
    use specpmt::telemetry::BbKind;

    let cfg = ConcurrentConfig::builder().flight_recorder(true).build();
    let shared = SpecSpmtShared::open_or_format(1usize << 20, cfg);
    shared.telemetry().set_enabled(true);
    let base = shared.pool().alloc_direct(4096, 64).unwrap();
    let mut h = shared.tx_handle(0);
    let write_free = mixed_stream(&mut h, base, 60);

    // AllSurvive keeps every staged recorder slot, flushed or not.
    let fx = forensics(&shared.device().capture(CrashPolicy::AllSurvive));
    assert!(fx.recorder_present && fx.is_clean());
    assert_eq!(fx.events_torn, 0);
    let reg = &shared.telemetry().registry;
    let of_kind = |kind| fx.events.iter().filter(move |e| e.kind == kind);
    assert_eq!(of_kind(BbKind::TxBegin).count() as u64, reg.counter(Metric::LogAppends));
    let writing = reg.counter(Metric::Commits) - reg.counter(Metric::WriteFreeCommits);
    assert_eq!(writing, 60 - write_free);
    let receipts: Vec<u64> = of_kind(BbKind::TxCommit).map(|e| e.a).collect();
    assert_eq!(receipts.len() as u64, writing);
    assert!(receipts.windows(2).all(|w| w[0] < w[1]), "receipts out of order: {receipts:?}");
    assert!(fx.in_flight.is_empty(), "every transaction committed");
}

/// Transactions per commit-cost golden pass.
const GOLDEN_TXS: u64 = 512;
/// Region the golden transactions scatter their writes over.
const GOLDEN_REGION: usize = 64 * 1024;

/// The representative commit of the commit-cost goldens: eight scattered
/// 16-byte updates (the shape `txstat` profiles).
fn golden_tx<A: TxAccess>(a: &mut A, base: usize, round: u64) {
    a.begin();
    let mut val = [0u8; 16];
    for w in 0..8usize {
        val[..8].copy_from_slice(&(round + w as u64).to_le_bytes());
        val[8..].copy_from_slice(&(round ^ w as u64).to_le_bytes());
        let off = ((round as usize * 131 + w * 509) % (GOLDEN_REGION / 16 - 1)) * 16;
        a.write(base + off, &val);
    }
    a.commit();
}

/// The summed `commit_sim` phase after a golden pass: one sample per commit.
fn commit_sim_sum(tel: &Telemetry) -> u64 {
    let sim = tel.registry.phase(Phase::CommitSim);
    assert_eq!(sim.count(), GOLDEN_TXS);
    sim.sum
}

/// Summed `commit_sim` of [`GOLDEN_TXS`] golden transactions on a fresh
/// sequential runtime over a `pm` device: simulated nanoseconds, no host
/// clock anywhere, so the total is the same integer on every host.
fn commit_sim_total_seq(pm: PmemConfig) -> u64 {
    let mut pool = PmemPool::create(PmemDevice::new(pm));
    let base = pool.alloc_direct(GOLDEN_REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    rt.telemetry().set_enabled(true);
    for round in 0..GOLDEN_TXS {
        golden_tx(&mut rt, base, round);
    }
    commit_sim_sum(rt.telemetry())
}

/// [`commit_sim_total_seq`] on one `TxHandle` of the shared runtime
/// (per-commit fences), with the flight recorder off or on.
fn commit_sim_total_shared(pm: PmemConfig, flight_recorder: bool) -> u64 {
    let cfg = ConcurrentConfig::builder().flight_recorder(flight_recorder).build();
    let pool = SharedPmemPool::create(SharedPmemDevice::new(pm));
    // Region first, log second, as on the sequential side: where the two
    // sit relative to each other decides XPLine hits, hence the total.
    let base = pool.alloc_direct(GOLDEN_REGION, 64).unwrap();
    let shared = SpecSpmtShared::open_or_format(pool, cfg);
    shared.telemetry().set_enabled(true);
    let mut h = shared.tx_handle(0);
    for round in 0..GOLDEN_TXS {
        golden_tx(&mut h, base, round);
    }
    commit_sim_sum(shared.telemetry())
}

/// The paper's claim is a cost claim, so the simulated cost of a commit
/// is pinned to the nanosecond: 512 golden transactions on each engine,
/// and on the shared one with the flight recorder on (its event lines
/// ride the commit's flushes: no extra fence, but more media traffic).
/// Per commit that is 371.4, 371.8 and 993.7 simulated ns. The stream is
/// bound by media occupancy — every fence waits out the WPQ backlog — so
/// the dearer input that must move each total is a line write one
/// nanosecond slower.
#[test]
fn commit_sim_cost_matches_goldens() {
    type Routine<'a> = &'a dyn Fn(PmemConfig) -> u64;
    let cases: [(&str, Routine, u64); 3] = [
        ("SpecSpmt", &commit_sim_total_seq, 190_182),
        ("TxHandle", &|pm| commit_sim_total_shared(pm, false), 190_346),
        ("TxHandle, recorder on", &|pm| commit_sim_total_shared(pm, true), 508_751),
    ];
    let pm = PmemConfig::new(4 << 20);
    let dearer = PmemConfig { line_write_ns: pm.line_write_ns + 1, ..pm.clone() };
    for (name, total, golden) in cases {
        assert_eq!(total(pm.clone()), golden, "{name}");
        assert_ne!(total(dearer.clone()), golden, "{name}, dearer line write");
    }
}
