//! Crash-injection test driver.
//!
//! The driver generates random transaction streams, executes them on any
//! [`TxRuntime`], crashes the device according to an armed
//! [`CrashPlan`] — after a persistence-operation fuel budget or at the
//! n-th hit of a labeled crash site (see [`specpmt_pmem::sites`]) — runs
//! the runtime's recovery on the crash image, and verifies atomic
//! durability against a [`CommitOracle`]:
//!
//! * every byte written by a committed transaction has its committed value;
//! * writes of uncommitted transactions are revoked;
//! * a transaction interrupted mid-commit may surface either entirely or
//!   not at all — never partially.

use specpmt_pmem::{
    CrashControl, CrashImage, CrashPlan, CrashPolicy, PmemConfig, PmemDevice, PmemPool, SplitMix64,
};

use crate::{CommitOracle, Recover, TxRuntime};

/// One durable write inside a transaction. `addr` is relative to the test
/// data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOp {
    /// Region-relative byte offset.
    pub addr: usize,
    /// Bytes to write.
    pub data: Vec<u8>,
}

/// Parameters for random stream generation.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Number of transactions.
    pub txs: usize,
    /// Maximum writes per transaction. The minimum is 0: roughly one
    /// transaction in `max_writes_per_tx + 1` is write-free (an empty
    /// `Vec<TxOp>`) and lands between writers, whose records it must
    /// leave reachable.
    pub max_writes_per_tx: usize,
    /// Maximum bytes per write (at least 1).
    pub max_write_len: usize,
    /// Size of the shared data region the stream writes into.
    pub region_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self { txs: 20, max_writes_per_tx: 6, max_write_len: 16, region_len: 512, seed: 0 }
    }
}

/// Generates a random transaction stream from `spec`.
pub fn generate_stream(spec: &StreamSpec) -> Vec<Vec<TxOp>> {
    assert!(spec.region_len >= spec.max_write_len.max(1), "region too small");
    let mut rng = SplitMix64::new(spec.seed);
    (0..spec.txs)
        .map(|_| {
            let writes = rng.range_usize(0, spec.max_writes_per_tx);
            (0..writes)
                .map(|_| {
                    let len = rng.range_usize(1, spec.max_write_len.max(1));
                    let addr = rng.range_usize(0, spec.region_len - len);
                    let data = (0..len).map(|_| rng.next_u8()).collect();
                    TxOp { addr, data }
                })
                .collect()
        })
        .collect()
}

/// What the execution phase of a crash scenario observed.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The crash image (post-crash PM contents), if the armed crash fired.
    pub image: Option<CrashImage>,
    /// Transactions known committed before the crash point.
    pub committed_txs: usize,
    /// Writes of a transaction whose commit was in flight when the crash
    /// fired: recovery may expose all of them or none of them.
    pub boundary: Option<Vec<TxOp>>,
    /// Oracle reflecting committed state at the crash point.
    pub oracle: CommitOracle,
    /// Base offset of the data region inside the pool.
    pub region_base: usize,
    /// The `(site, hit)` a labeled plan fired at (`None` for fuel plans
    /// or when the crash never fired).
    pub fired_at: Option<(&'static str, u64)>,
    /// Labeled-site hit counts observed during the run (empty for fuel
    /// plans, which bypass site counting).
    pub site_hits: Vec<(&'static str, u64)>,
}

/// Creates a fresh pool of `pool_bytes` with a zeroed data region of
/// `region_len` bytes; returns the pool and the region base offset.
///
/// # Panics
///
/// Panics if the pool cannot hold the region.
pub fn fresh_pool_with_region(pool_bytes: usize, region_len: usize) -> (PmemPool, usize) {
    let dev = PmemDevice::new(PmemConfig::new(pool_bytes));
    let mut pool = PmemPool::create(dev);
    let dev = pool.device_mut();
    let prev = dev.timing();
    dev.set_timing(specpmt_pmem::TimingMode::Off);
    let base = pool.alloc_direct(region_len, 64).expect("pool too small for region");
    // Region is zero-initialised by the fresh device; persist the zeros so
    // the pre-state is well-defined under every crash policy.
    pool.device_mut().persist_range(base, region_len);
    pool.device_mut().set_timing(prev);
    (pool, base)
}

/// Executes `stream` on `rt` with `plan` armed on the device.
///
/// Returns the scenario outcome. If the crash never fires (the stream ends
/// first, or an observe plan was armed), `outcome.image` is `None` and all
/// transactions committed.
pub fn run_crash_scenario<R: TxRuntime>(
    rt: &mut R,
    region_base: usize,
    stream: &[Vec<TxOp>],
    plan: CrashPlan,
) -> ScenarioOutcome {
    rt.pool().device().arm(plan);
    let mut oracle = CommitOracle::new();
    let mut committed = 0usize;
    let mut boundary = None;

    'stream: for tx in stream {
        rt.begin();
        oracle.begin();
        let mut applied = Vec::new();
        for op in tx {
            rt.write(region_base + op.addr, &op.data);
            oracle.write(region_base + op.addr, &op.data);
            applied.push(TxOp { addr: op.addr, data: op.data.clone() });
            if rt.pool().device().fired() {
                // Crashed mid-transaction: all of it must be revoked.
                oracle.abort();
                break 'stream;
            }
        }
        rt.commit();
        if rt.pool().device().fired() {
            // Crash fired inside the commit sequence: either outcome is
            // legal, but it must be atomic.
            oracle.abort();
            boundary = Some(applied);
            break 'stream;
        }
        oracle.commit();
        committed += 1;
        rt.maintain();
        if rt.pool().device().fired() {
            break 'stream;
        }
    }

    let dev = rt.pool().device();
    let (fired_at, site_hits) = (dev.fired_at(), dev.site_hits());
    let image = dev.take_image();
    ScenarioOutcome {
        image,
        committed_txs: committed,
        boundary,
        oracle,
        region_base,
        fired_at,
        site_hits,
    }
}

/// Verifies a recovered image against the scenario outcome.
///
/// # Errors
///
/// Returns a human-readable description of the first atomicity violation.
pub fn verify_recovered(outcome: &ScenarioOutcome, image: &CrashImage) -> Result<(), String> {
    let base = outcome.region_base;
    // Bytes owned by the boundary transaction are checked separately.
    let boundary_bytes: std::collections::HashMap<usize, u8> = outcome
        .boundary
        .iter()
        .flatten()
        .flat_map(|op| op.data.iter().enumerate().map(move |(i, &b)| (base + op.addr + i, b)))
        .collect();

    // Committed-state check (excluding boundary bytes). Only bytes the
    // oracle knows about constrain the image, so iterate those rather than
    // scanning the whole device.
    let bytes = image.as_bytes();
    for (addr, want) in outcome.oracle.committed_bytes() {
        if boundary_bytes.contains_key(&addr) {
            continue;
        }
        if bytes[addr] != want {
            return Err(format!(
                "addr {addr:#x}: recovered {:#04x}, committed value {want:#04x}",
                bytes[addr]
            ));
        }
    }
    // Boundary transaction: all-new or all-old.
    if !boundary_bytes.is_empty() {
        let mut all_new = true;
        let mut all_old = true;
        for (&addr, &new_val) in &boundary_bytes {
            let old_val = outcome.oracle.expected(addr).unwrap_or(0);
            let got = bytes[addr];
            if got != new_val {
                all_new = false;
            }
            if got != old_val {
                all_old = false;
            }
        }
        if !all_new && !all_old {
            return Err("boundary transaction surfaced partially (atomicity violation)".into());
        }
    }
    Ok(())
}

/// End-to-end crash-atomicity check for a runtime type.
///
/// Builds a pool, runs a random stream with `plan` armed, recovers with
/// `R::recover`, and verifies atomicity.
///
/// # Errors
///
/// Propagates the first verification failure.
pub fn check_crash_atomicity<R, F>(
    make: F,
    spec: &StreamSpec,
    plan: CrashPlan,
) -> Result<ScenarioOutcome, String>
where
    R: TxRuntime + Recover,
    F: FnOnce(PmemPool) -> R,
{
    let (pool, base) = fresh_pool_with_region(1 << 19, spec.region_len);
    let mut rt = make(pool);
    // The paper's external-data protocol (Section 4.3.2): data that
    // predates the runtime gets one committed snapshot transaction before
    // speculative logging may rely on log records to revoke updates to it.
    let zeros = vec![0u8; spec.region_len];
    rt.begin();
    rt.write(base, &zeros);
    rt.commit();
    let stream = generate_stream(spec);
    let mut outcome = run_crash_scenario(&mut rt, base, &stream, plan);
    if let Some(mut image) = outcome.image.take() {
        R::recover(&mut image);
        verify_recovered(&outcome, &image)?;
        outcome.image = Some(image);
    } else {
        // No crash: orderly close must leave the committed state durable
        // under the most adversarial policy.
        rt.close();
        let mut image = rt.pool().device().capture(CrashPolicy::AllLost);
        R::recover(&mut image);
        verify_recovered(&outcome, &image)?;
        outcome.image = Some(image);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_generation_is_deterministic_and_bounded() {
        let spec = StreamSpec { txs: 10, seed: 7, ..StreamSpec::default() };
        let a = generate_stream(&spec);
        let b = generate_stream(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().any(Vec::is_empty), "the stream draws write-free transactions");
        assert!(a.iter().any(|tx| !tx.is_empty()));
        for tx in &a {
            assert!(tx.len() <= spec.max_writes_per_tx);
            for op in tx {
                assert!(!op.data.is_empty());
                assert!(op.addr + op.data.len() <= spec.region_len);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_stream(&StreamSpec { seed: 1, ..StreamSpec::default() });
        let b = generate_stream(&StreamSpec { seed: 2, ..StreamSpec::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_pool_region_is_zeroed_and_persistent() {
        let (pool, base) = fresh_pool_with_region(1 << 20, 256);
        let img = pool.device().capture(CrashPolicy::AllLost);
        assert!(img.read_bytes(base, 256).iter().all(|&b| b == 0));
    }

    #[test]
    fn verify_detects_partial_boundary() {
        // Construct an outcome with a boundary tx writing [1,1] at 0..2 and
        // an image where only one byte surfaced.
        let (pool, base) = fresh_pool_with_region(1 << 20, 64);
        let oracle = CommitOracle::new();
        let outcome = ScenarioOutcome {
            image: None,
            committed_txs: 0,
            boundary: Some(vec![TxOp { addr: 0, data: vec![1, 1] }]),
            oracle,
            region_base: base,
            fired_at: None,
            site_hits: Vec::new(),
        };
        let mut img = pool.device().capture(CrashPolicy::AllLost);
        img.write_bytes(base, &[1, 0]);
        let err = verify_recovered(&outcome, &img).unwrap_err();
        assert!(err.contains("partially"));
        img.write_bytes(base, &[1, 1]);
        verify_recovered(&outcome, &img).unwrap();
        img.write_bytes(base, &[0, 0]);
        verify_recovered(&outcome, &img).unwrap();
    }
}
