//! Commit-path & reclamation microbench: host wall-clock cost of the
//! *software* commit path (checksum, write-set bookkeeping, flush
//! planning) and of one background-reclamation cycle.
//!
//! SpecPMT already pays a single flush+fence per transaction, so the
//! remaining commit overhead is pure instruction cost — exactly what this
//! bench tracks across PRs. A counting global allocator reports heap
//! allocations per steady-state committed transaction (the zero-alloc
//! target), and the reclamation section contrasts a cycle over *idle*
//! chains (nothing appended since the previous cycle) with one over
//! *churning* chains (fresh overwrites between every cycle).
//!
//! Alongside the wall-clock sections, two *deterministic* keys
//! (`commit_sim_ns_seq` / `commit_sim_ns_shared`) report the simulated
//! device cost of a commit over a fixed transaction count — reproducible
//! regardless of host load, which is what lets `scripts/perf_gate.sh`
//! hold them to a tight regression tolerance while the noisy host-time
//! keys get a loose one.
//!
//! Output: per-section JSON lines from the shared harness, then one
//! summary line `{"bench":"commit_path",...}` that `scripts/bench.sh`
//! captures into `BENCH_commit_path.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use specpmt_bench::harness::{bench, smoke_mode};
use specpmt_core::{ConcurrentConfig, ReclaimMode, SpecConfig, SpecSpmt, SpecSpmtShared};
use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool, SharedPmemDevice, SharedPmemPool};
use specpmt_telemetry::Phase;
use specpmt_txn::TxAccess;

/// Counts heap allocations (alloc + realloc; dealloc is free to the
/// steady-state argument) so the bench can assert how many a committed
/// transaction costs.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WRITES_PER_TX: usize = 8;
const WRITE_BYTES: usize = 16;
const REGION: usize = 64 * 1024;

/// One representative transaction: 8 scattered 16-byte updates.
fn run_tx<A: TxAccess>(a: &mut A, base: usize, round: u64) {
    a.begin();
    let mut val = [0u8; WRITE_BYTES];
    for w in 0..WRITES_PER_TX {
        val[..8].copy_from_slice(&(round + w as u64).to_le_bytes());
        val[8..].copy_from_slice(&(round ^ w as u64).to_le_bytes());
        let off = ((round as usize * 131 + w * 509) % (REGION / WRITE_BYTES - 1)) * WRITE_BYTES;
        a.write(base + off, &val);
    }
    a.commit();
}

/// Allocations per transaction after `warmup` transactions have grown all
/// reusable buffers to steady state.
fn allocs_per_tx<A: TxAccess>(a: &mut A, base: usize, warmup: u64, measured: u64) -> f64 {
    let mut round = 0u64;
    for _ in 0..warmup {
        run_tx(a, base, round);
        round += 1;
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..measured {
        run_tx(a, base, round);
        round += 1;
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    delta as f64 / measured as f64
}

struct CommitNumbers {
    commit_ns: f64,
    allocs_per_tx: f64,
}

fn bench_seq(samples: usize, iters: u64) -> CommitNumbers {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(64 << 20)));
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    let mut round = 0u64;
    let report = bench("commit_path/seq", samples, iters, || {
        run_tx(&mut rt, base, round);
        round += 1;
    });
    let allocs = allocs_per_tx(&mut rt, base, 512, 256);
    CommitNumbers { commit_ns: report.per_iter_ns(), allocs_per_tx: allocs }
}

fn bench_shared(samples: usize, iters: u64) -> CommitNumbers {
    let dev = SharedPmemDevice::new(PmemConfig::new(64 << 20));
    let pool = SharedPmemPool::create(dev);
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let shared = SpecSpmtShared::open_or_format(pool, ConcurrentConfig::default());
    let mut h = shared.tx_handle(0);
    let mut round = 0u64;
    let report = bench("commit_path/shared", samples, iters, || {
        run_tx(&mut h, base, round);
        round += 1;
    });
    let allocs = allocs_per_tx(&mut h, base, 512, 256);
    CommitNumbers { commit_ns: report.per_iter_ns(), allocs_per_tx: allocs }
}

/// Transactions in the deterministic simulated-cost passes. Fixed (not
/// scaled down in smoke mode): the passes take no host timing, so they
/// are cheap, and a count independent of smoke mode means the captured
/// number is comparable between a full baseline capture and the smoke
/// run `scripts/verify.sh` gates with.
const SIM_TXS: u64 = 512;

/// Deterministic simulated commit cost of the sequential runtime: a
/// fresh pool, a fixed transaction count, and the telemetry registry's
/// `commit_sim` phase — simulated device nanoseconds, no host clock
/// anywhere. Reproducible across runs and hosts, unlike the wall-clock
/// sections, so `scripts/perf_gate.sh` holds it to a tight tolerance
/// where the host keys get a loose one.
fn sim_commit_ns_seq() -> f64 {
    let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(64 << 20)));
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let cfg = SpecConfig { reclaim_mode: ReclaimMode::Disabled, ..SpecConfig::default() };
    let mut rt = SpecSpmt::new(pool, cfg);
    rt.telemetry().set_enabled(true);
    for round in 0..SIM_TXS {
        run_tx(&mut rt, base, round);
    }
    rt.telemetry().registry.phase(Phase::CommitSim).mean()
}

/// [`sim_commit_ns_seq`] for the shared runtime (one handle, per-commit
/// fences — the comparison baseline the group-commit path is measured
/// against in `txstat`).
fn sim_commit_ns_shared() -> f64 {
    let dev = SharedPmemDevice::new(PmemConfig::new(64 << 20));
    let pool = SharedPmemPool::create(dev);
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let shared = SpecSpmtShared::open_or_format(pool, ConcurrentConfig::default());
    shared.telemetry().set_enabled(true);
    let mut h = shared.tx_handle(0);
    for round in 0..SIM_TXS {
        run_tx(&mut h, base, round);
    }
    shared.telemetry().registry.phase(Phase::CommitSim).mean()
}

struct ReclaimNumbers {
    idle_ns: u64,
    churn_ns: u64,
}

/// Median wall-clock of one `reclaim_cycle` over idle chains (no appends
/// since the last cycle) vs. churning chains (overwrites between cycles).
fn bench_reclaim(cycles: usize, churn_txs: u64) -> ReclaimNumbers {
    let dev = SharedPmemDevice::new(PmemConfig::new(64 << 20));
    let pool = SharedPmemPool::create(dev);
    let base = pool.alloc_direct(REGION, 64).unwrap();
    let shared = SpecSpmtShared::open_or_format(pool, ConcurrentConfig::default());
    let mut h = shared.tx_handle(0);
    let mut round = 0u64;

    // Populate the chain, then compact once so both measurements start
    // from a freshly compacted chain.
    for _ in 0..churn_txs * 4 {
        run_tx(&mut h, base, round);
        round += 1;
    }
    shared.reclaim_cycle();

    let median = |mut v: Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };

    // Idle: nothing appended between cycles.
    let idle: Vec<u64> = (0..cycles)
        .map(|_| {
            let t0 = Instant::now();
            shared.reclaim_cycle();
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();

    // Churn: fresh overwrites before every cycle, so each cycle has stale
    // records to drop and must rewrite the chain.
    let churn: Vec<u64> = (0..cycles)
        .map(|_| {
            for _ in 0..churn_txs {
                run_tx(&mut h, base, round);
                round += 1;
            }
            let t0 = Instant::now();
            shared.reclaim_cycle();
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();

    ReclaimNumbers { idle_ns: median(idle), churn_ns: median(churn) }
}

/// Pulls one numeric value out of a JSON text with a hand-rolled scan
/// (the workspace is zero-dependency, so there is no serde).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads `commit_ns_seq` from the checked-in baseline
/// (`results/commit_path_baseline.json`, overridable via
/// `SPECPMT_COMMIT_BASELINE`) so the summary line carries the speedup over
/// the pre-fast-path commit path. Tries the path relative to both the
/// invocation directory and the workspace root, since `cargo bench` may be
/// run from either.
fn baseline_commit_ns_seq() -> Option<f64> {
    let path = specpmt_telemetry::Knobs::get()
        .commit_baseline
        .clone()
        .unwrap_or_else(|| "results/commit_path_baseline.json".to_string());
    let manifest_rooted = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    let text = [path, manifest_rooted].iter().find_map(|p| std::fs::read_to_string(p).ok())?;
    json_number(&text, "commit_ns_seq")
}

fn main() {
    let (samples, iters, cycles, churn_txs) =
        if smoke_mode() { (2, 16, 3, 16) } else { (9, 2000, 21, 256) };

    let seq = bench_seq(samples, iters);
    let shared = bench_shared(samples, iters);
    let sim_seq = sim_commit_ns_seq();
    let sim_shared = sim_commit_ns_shared();
    let reclaim = bench_reclaim(cycles, churn_txs);

    let churn_over_idle = reclaim.churn_ns as f64 / reclaim.idle_ns.max(1) as f64;
    let (baseline_ns, speedup_seq) = match baseline_commit_ns_seq() {
        Some(b) => (b, b / seq.commit_ns),
        None => (0.0, 0.0), // no baseline on disk: comparison unavailable
    };
    println!(
        "{{\"bench\":\"commit_path\",\"writes_per_tx\":{WRITES_PER_TX},\
         \"write_bytes\":{WRITE_BYTES},\"commit_ns_seq\":{:.1},\
         \"commit_ns_shared\":{:.1},\"commit_sim_ns_seq\":{:.1},\
         \"commit_sim_ns_shared\":{:.1},\"allocs_per_tx_seq\":{:.2},\
         \"allocs_per_tx_shared\":{:.2},\"reclaim_idle_ns\":{},\
         \"reclaim_churn_ns\":{},\"churn_over_idle\":{:.2},\
         \"baseline_commit_ns_seq\":{:.1},\"speedup_seq\":{:.2}}}",
        seq.commit_ns,
        shared.commit_ns,
        sim_seq,
        sim_shared,
        seq.allocs_per_tx,
        shared.allocs_per_tx,
        reclaim.idle_ns,
        reclaim.churn_ns,
        churn_over_idle,
        baseline_ns,
        speedup_seq,
    );
}
