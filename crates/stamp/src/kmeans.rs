//! `kmeans`: clustering with transactional center accumulation.
//!
//! Mirrors STAMP `kmeans`: each point's assignment updates the chosen
//! cluster's per-dimension sums, its member count, and the point's
//! membership — a ~100-byte write set of small (4-byte) updates, matching
//! Table 2's profile. The low-contention input uses more clusters, which
//! also means more distance computation between transactions (the effect
//! the paper calls out for `kmeans-low` in Section 7.3).
//!
//! Coordinates are fixed-point `i32`, so the transactional run and the
//! volatile reference are bit-identical: the per-point updates are integer
//! adds and the centroids are recomputed between passes, as in STAMP.
//!
//! The transaction bodies (`zero_cluster`, `assign_point`) and the
//! driver ([`run`]) are written once against [`TxAccess`].

use specpmt_txn::{run_tx, TxAccess};

use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Configuration for the kmeans workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmeansCfg {
    /// Number of points.
    pub points: usize,
    /// Number of clusters (low contention = more clusters).
    pub clusters: usize,
    /// Dimensions per point.
    pub dims: usize,
    /// Assignment passes.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated CPU cost per distance term (ns).
    pub flop_ns: u64,
}

impl KmeansCfg {
    /// The low-contention input (STAMP `-c40`-style).
    pub fn low(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => {
                Self { points: 80, clusters: 10, dims: 8, iters: 2, seed: 11, flop_ns: 3 }
            }
            Scale::Small => {
                Self { points: 4000, clusters: 40, dims: 24, iters: 2, seed: 11, flop_ns: 3 }
            }
        }
    }

    /// The high-contention input (fewer clusters, less compute per point).
    pub fn high(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => {
                Self { points: 60, clusters: 4, dims: 8, iters: 2, seed: 13, flop_ns: 3 }
            }
            Scale::Small => {
                Self { points: 1700, clusters: 15, dims: 24, iters: 2, seed: 13, flop_ns: 3 }
            }
        }
    }
}

struct Layout {
    sums: usize,       // clusters * dims * 4
    counts: usize,     // clusters * 4
    membership: usize, // points * 4
}

fn layout(cfg: &KmeansCfg, base: usize) -> Layout {
    let sums = base;
    let counts = sums + cfg.clusters * cfg.dims * 4;
    let membership = counts + cfg.clusters * 4;
    Layout { sums, counts, membership }
}

fn region_bytes(cfg: &KmeansCfg) -> usize {
    cfg.clusters * cfg.dims * 4 + cfg.clusters * 4 + cfg.points * 4
}

fn gen_points(cfg: &KmeansCfg) -> Vec<i32> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.points * cfg.dims).map(|_| rng.below(1024) as i32).collect()
}

fn nearest(point: &[i32], centroids: &[Vec<i32>]) -> usize {
    let mut best = 0usize;
    let mut best_d = i64::MAX;
    for (c, centroid) in centroids.iter().enumerate() {
        let mut d = 0i64;
        for (a, b) in point.iter().zip(centroid) {
            let diff = (*a - *b) as i64;
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn initial_centroids(cfg: &KmeansCfg, points: &[i32]) -> Vec<Vec<i32>> {
    (0..cfg.clusters).map(|c| points[c * cfg.dims..(c + 1) * cfg.dims].to_vec()).collect()
}

/// Volatile reference result: final sums, counts, membership.
struct Reference {
    sums: Vec<i64>,
    counts: Vec<u32>,
    membership: Vec<u32>,
}

fn reference(cfg: &KmeansCfg, points: &[i32]) -> Reference {
    let mut centroids = initial_centroids(cfg, points);
    let mut sums = vec![0i64; cfg.clusters * cfg.dims];
    let mut counts = vec![0u32; cfg.clusters];
    let mut membership = vec![0u32; cfg.points];
    for _ in 0..cfg.iters {
        sums.iter_mut().for_each(|s| *s = 0);
        counts.iter_mut().for_each(|c| *c = 0);
        for p in 0..cfg.points {
            let pt = &points[p * cfg.dims..(p + 1) * cfg.dims];
            let c = nearest(pt, &centroids);
            membership[p] = c as u32;
            for d in 0..cfg.dims {
                sums[c * cfg.dims + d] += pt[d] as i64;
            }
            counts[c] += 1;
        }
        for c in 0..cfg.clusters {
            if counts[c] > 0 {
                for d in 0..cfg.dims {
                    centroids[c][d] = (sums[c * cfg.dims + d] / counts[c] as i64) as i32;
                }
            }
        }
    }
    Reference { sums, counts, membership }
}

/// Zero-phase transaction body: reset one cluster's accumulators.
fn zero_cluster<A: TxAccess>(tx: &mut A, lay: &Layout, dims: usize, c: usize) {
    for d in 0..dims {
        tx.write_u32(lay.sums + (c * dims + d) * 4, 0);
    }
    tx.write_u32(lay.counts + c * 4, 0);
}

/// Assignment transaction body: record point `p`'s membership in cluster
/// `c` and fold its coordinates into the cluster accumulators.
///
/// Doom-safe: the read-modify-writes observe zeros on a doomed attempt,
/// whose writes are dropped; the driver aborts and retries.
fn assign_point<A: TxAccess>(
    tx: &mut A,
    lay: &Layout,
    dims: usize,
    p: usize,
    pt: &[i32],
    c: usize,
) {
    tx.write_u32(lay.membership + p * 4, c as u32);
    for (d, x) in pt.iter().enumerate() {
        let a = lay.sums + (c * dims + d) * 4;
        let cur = tx.read_u32(a) as i32;
        tx.write_u32(a, (cur + x) as u32);
    }
    let ca = lay.counts + c * 4;
    let cur = tx.read_u32(ca);
    tx.write_u32(ca, cur + 1);
}

/// Recomputes centroids from the persistent accumulators (untimed, like
/// STAMP's barrier phase between assignment passes).
fn recompute_centroids<A: TxAccess>(
    rt: &mut A,
    lay: &Layout,
    cfg: &KmeansCfg,
    out: &mut [Vec<i32>],
) {
    rt.untimed(|rt| {
        for (c, centroid) in out.iter_mut().enumerate().take(cfg.clusters) {
            let count = rt.read_u32(lay.counts + c * 4);
            if count > 0 {
                for (d, coord) in centroid.iter_mut().enumerate().take(cfg.dims) {
                    let s = rt.read_u32(lay.sums + (c * cfg.dims + d) * 4);
                    *coord = s as i32 / count as i32;
                }
            }
        }
    });
}

/// Runs the workload on one handle; returns the verification outcome,
/// exact against the volatile reference.
///
/// # Panics
///
/// Panics if the pool is too small (allocate ≥ a few MiB).
pub fn run<A: TxAccess>(rt: &mut A, cfg: &KmeansCfg) -> Result<(), String> {
    assert!(cfg.points >= cfg.clusters, "need at least one point per cluster");
    let base = setup_region(rt, region_bytes(cfg), 64);
    let lay = layout(cfg, base);
    let points = gen_points(cfg);
    let mut centroids = initial_centroids(cfg, &points);

    for _ in 0..cfg.iters {
        // Zero the accumulators, one transaction per cluster.
        for c in 0..cfg.clusters {
            run_tx(rt, |tx| zero_cluster(tx, &lay, cfg.dims, c));
        }
        // Assignment pass: one transaction per point; the distance
        // computation happens outside the transaction.
        for p in 0..cfg.points {
            let pt = &points[p * cfg.dims..(p + 1) * cfg.dims];
            rt.compute(cfg.flop_ns * (cfg.clusters * cfg.dims) as u64);
            let c = nearest(pt, &centroids);
            run_tx(rt, |tx| assign_point(tx, &lay, cfg.dims, p, pt, c));
        }
        recompute_centroids(rt, &lay, cfg, &mut centroids);
    }

    let want = reference(cfg, &points);
    rt.untimed(|rt| {
        for c in 0..cfg.clusters {
            for d in 0..cfg.dims {
                let got = rt.read_u32(lay.sums + (c * cfg.dims + d) * 4) as i64;
                if got != want.sums[c * cfg.dims + d] {
                    return Err(format!(
                        "cluster {c} dim {d}: sum {got} != {}",
                        want.sums[c * cfg.dims + d]
                    ));
                }
            }
            let got = rt.read_u32(lay.counts + c * 4);
            if got != want.counts[c] {
                return Err(format!("cluster {c}: count {got} != {}", want.counts[c]));
            }
        }
        for p in 0..cfg.points {
            let got = rt.read_u32(lay.membership + p * 4);
            if got != want.membership[p] {
                return Err(format!("point {p}: membership {got} != {}", want.membership[p]));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};

    fn pool() -> PmemPool {
        PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)))
    }

    #[test]
    fn verifies_on_nolog_runtime() {
        // Use a minimal runtime via the baselines crate is unavailable here
        // (dev-dependency cycle); exercise through the reference itself.
        let cfg = KmeansCfg::low(Scale::Tiny);
        let points = gen_points(&cfg);
        let r = reference(&cfg, &points);
        assert_eq!(r.counts.iter().map(|&c| c as usize).sum::<usize>(), cfg.points);
        let _ = pool();
    }

    #[test]
    fn reference_is_deterministic() {
        let cfg = KmeansCfg::high(Scale::Tiny);
        let p = gen_points(&cfg);
        let a = reference(&cfg, &p);
        let b = reference(&cfg, &p);
        assert_eq!(a.sums, b.sums);
        assert_eq!(a.membership, b.membership);
    }

    #[test]
    fn low_and_high_differ() {
        assert_ne!(KmeansCfg::low(Scale::Small).clusters, KmeansCfg::high(Scale::Small).clusters);
    }

    #[test]
    fn sums_fit_in_u32_range() {
        // Region stores sums as u32; the largest possible sum must fit.
        let cfg = KmeansCfg::low(Scale::Small);
        let max_sum = cfg.points as i64 * 1024;
        assert!(max_sum < i32::MAX as i64);
    }
}
