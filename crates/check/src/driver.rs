//! Crash-injection test driver.
//!
//! The driver generates random transaction streams, executes them on any
//! [`TxRuntime`], crashes the device according to an armed
//! [`CrashPlan`] — after a persistence-operation fuel budget or at the
//! n-th hit of a labeled crash site (see [`specpmt_pmem::sites`]) — runs
//! recovery on the crash image, and verifies atomic durability against a
//! [`CommitOracle`]:
//!
//! * every byte written by a committed transaction has its committed value;
//! * writes of uncommitted transactions are revoked;
//! * a transaction interrupted mid-commit may surface either entirely or
//!   not at all — never partially.

use specpmt_pmem::{
    CrashControl, CrashImage, CrashPlan, PmemConfig, PmemDevice, PmemPool, SplitMix64,
};
use specpmt_txn::TxRuntime;

use crate::{end_run, CommitOracle, RunSummary};

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
///
/// A transaction's first write lands anywhere in the region. Each later
/// one relates to an earlier write of the same transaction half of the
/// time, in one of four ways: the same `(addr, len)` (the write set's
/// in-place patch), a write that starts inside the earlier one and runs
/// past its end (a straddle), one that lies inside it (a nested write), or
/// one that starts where the transaction's last write ended (the write
/// set's extension of its tail entry).
/// Uniform draws alone almost never repeat a range with a partial overlap
/// in between, the history that reorders writes if a patch skips over it,
/// nor continue the last write byte for byte.
pub fn generate_stream(spec: &StreamSpec) -> Vec<Vec<TxOp>> {
    assert!(spec.region_len >= spec.max_write_len.max(1), "region too small");
    let max_len = spec.max_write_len.max(1);
    let mut rng = SplitMix64::new(spec.seed);
    (0..spec.txs)
        .map(|_| {
            let writes = rng.range_usize(0, spec.max_writes_per_tx);
            let mut ops: Vec<TxOp> = Vec::with_capacity(writes);
            for _ in 0..writes {
                let last_end = ops.last().map_or(spec.region_len, |op| op.addr + op.data.len());
                let (addr, len) = match (ops.len(), rng.below(8)) {
                    (_, 3) if last_end < spec.region_len => {
                        (last_end, rng.range_usize(1, max_len).min(spec.region_len - last_end))
                    }
                    (0, _) | (_, 3..) => {
                        let len = rng.range_usize(1, max_len);
                        (rng.range_usize(0, spec.region_len - len), len)
                    }
                    (n, kind) => {
                        let prev = &ops[rng.below(n as u64) as usize];
                        let (pa, end) = (prev.addr, prev.addr + prev.data.len());
                        if kind == 0 {
                            (pa, end - pa)
                        } else {
                            let addr = rng.range_usize(pa, end - 1);
                            let len = if kind == 1 {
                                (end - addr + rng.range_usize(1, max_len))
                                    .min(max_len)
                                    .min(spec.region_len - addr)
                            } else {
                                rng.range_usize(1, end - addr)
                            };
                            (addr, len)
                        }
                    }
                };
                let data = (0..len).map(|_| rng.next_u8()).collect();
                ops.push(TxOp { addr, data });
            }
            ops
        })
        .collect()
}

/// What a crash scenario observed.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The image the run was judged on (see [`end_run`]), recovered.
    pub image: CrashImage,
    /// Transactions known committed before the crash point.
    pub committed_txs: usize,
    /// Oracle reflecting committed state at the crash point.
    pub oracle: CommitOracle,
    /// What the run reported.
    pub run: RunSummary,
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

/// End-to-end crash-atomicity check for a runtime type.
///
/// Builds a pool, runs `spec`'s stream with `plan` armed, recovers the
/// image with `recover`, and verifies atomicity.
///
/// # Errors
///
/// Returns the first atomicity violation.
pub fn check_crash_atomicity<R, F>(
    make: F,
    spec: &StreamSpec,
    plan: CrashPlan,
    recover: fn(&mut CrashImage),
) -> Result<ScenarioOutcome, String>
where
    R: TxRuntime,
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

    rt.pool().device().arm(plan);
    let mut oracle = CommitOracle::new();
    let mut committed_txs = 0;
    'stream: for tx in generate_stream(spec) {
        rt.begin();
        oracle.begin();
        for op in &tx {
            rt.write(base + op.addr, &op.data);
            oracle.write(base + op.addr, &op.data);
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
            oracle.boundary_commit();
            break;
        }
        oracle.commit();
        committed_txs += 1;
        rt.maintain();
        if rt.pool().device().fired() {
            break;
        }
    }
    let (run, mut image) = end_run(&mut rt, |rt| rt.pool().device(), |rt| rt.close());
    recover(&mut image);
    oracle.verify(&image)?;
    Ok(ScenarioOutcome { image, committed_txs, oracle, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashPolicy;

    #[test]
    fn stream_generation_is_deterministic_and_bounded() {
        let spec = StreamSpec { txs: 100, seed: 7, ..StreamSpec::default() };
        let a = generate_stream(&spec);
        let b = generate_stream(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
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

    /// Every relation to an earlier write shows up — a repeat of its
    /// `(addr, len)`, a write starting inside it and ending past it, one
    /// lying inside it, one starting where the last write ended — and so
    /// does the history that reorders writes under a careless patch: a
    /// range repeated after a write that overlaps it.
    #[test]
    fn streams_revisit_earlier_writes_of_the_transaction() {
        let stream = generate_stream(&StreamSpec { txs: 100, seed: 7, ..StreamSpec::default() });
        let range = |op: &TxOp| (op.addr, op.addr + op.data.len());
        let (mut repeat, mut straddle, mut nested, mut adjacent) = (0, 0, 0, 0);
        let mut reordering = false;
        for tx in &stream {
            for (j, later) in tx.iter().enumerate() {
                let (l0, l1) = range(later);
                adjacent += usize::from(j > 0 && range(&tx[j - 1]).1 == l0);
                for (i, prev) in tx[..j].iter().enumerate() {
                    let (p0, p1) = range(prev);
                    if (l0, l1) == (p0, p1) {
                        repeat += 1;
                        reordering |=
                            tx[i + 1..j].iter().map(range).any(|(m0, m1)| m0 < p1 && p0 < m1);
                    } else if p0 < l0 && l0 < p1 && p1 < l1 {
                        straddle += 1;
                    } else if p0 <= l0 && l1 <= p1 {
                        nested += 1;
                    }
                }
            }
        }
        assert!(
            repeat * straddle * nested * adjacent > 0,
            "{repeat} repeats, {straddle} straddles, {nested} nested, {adjacent} adjacent"
        );
        assert!(reordering, "no repeat across an overlapping write");
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
        // A boundary tx writing [1,1] at base..base+2, and an image where
        // only one byte surfaced.
        let (pool, base) = fresh_pool_with_region(1 << 20, 64);
        let mut oracle = CommitOracle::new();
        oracle.begin();
        oracle.write(base, &[1, 1]);
        oracle.boundary_commit();
        let mut img = pool.device().capture(CrashPolicy::AllLost);
        img.write_bytes(base, &[1, 0]);
        let err = oracle.verify(&img).unwrap_err();
        assert!(err.contains("partially"));
        img.write_bytes(base, &[1, 1]);
        oracle.verify(&img).unwrap();
        img.write_bytes(base, &[0, 0]);
        oracle.verify(&img).unwrap();
    }
}
