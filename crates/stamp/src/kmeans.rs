//! `kmeans`: clustering with transactional center accumulation.
//!
//! Mirrors STAMP `kmeans`: each point's assignment updates the chosen
//! cluster's per-dimension sums, its member count, and the point's
//! membership — a ~100-byte write set of small (4-byte) updates, matching
//! Table 2's profile. The low-contention input uses more clusters, which
//! also means more distance computation between transactions (the effect
//! the paper calls out for `kmeans-low` in Section 7.3).
//!
//! Coordinates are integers in `0..1024` (stored as `i16`), so the
//! transactional run and the volatile reference are bit-identical: the
//! per-point updates are integer adds and the centroids are recomputed
//! between passes, as in STAMP. Distances are exact in `i32` lanes.
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

/// Coordinates are drawn from `0..COORD_BOUND`, and a centroid is a mean
/// of them, so a squared distance over up to `MAX_DIMS` terms fits `i32`.
const COORD_BOUND: i16 = 1024;
const MAX_DIMS: usize = i32::MAX as usize / (COORD_BOUND as usize - 1).pow(2);

fn gen_points(cfg: &KmeansCfg) -> Vec<i16> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.points * cfg.dims).map(|_| rng.below(COORD_BOUND as usize) as i16).collect()
}

/// Squared distance in eight `i32` lanes (and a tail), a shape the
/// compiler turns into packed multiply-adds.
fn distance(a: &[i16], b: &[i16]) -> i32 {
    let sq = |x: &i16, y: &i16| i32::from(x - y) * i32::from(x - y);
    let (xs, ys) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: i32 = xs.remainder().iter().zip(ys.remainder()).map(|(x, y)| sq(x, y)).sum();
    let mut lanes = [0i32; 8];
    for (x, y) in xs.zip(ys) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += sq(x, y);
        }
    }
    lanes.iter().sum::<i32>() + tail
}

/// The lowest-indexed centroid nearest to `point`, over the flat
/// `clusters × dims` matrix.
fn nearest(point: &[i16], centroids: &[i16]) -> usize {
    let mut best = 0usize;
    let mut best_d = i32::MAX;
    for (c, centroid) in centroids.chunks_exact(point.len()).enumerate() {
        let d = distance(point, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn initial_centroids(cfg: &KmeansCfg, points: &[i16]) -> Vec<i16> {
    points[..cfg.clusters * cfg.dims].to_vec()
}

/// Volatile reference result: final sums, counts, membership.
struct Reference {
    sums: Vec<i64>,
    counts: Vec<u32>,
    membership: Vec<u32>,
}

fn reference(cfg: &KmeansCfg, points: &[i16]) -> Reference {
    let mut centroids = initial_centroids(cfg, points);
    let mut sums = vec![0i64; cfg.clusters * cfg.dims];
    let mut counts = vec![0u32; cfg.clusters];
    let mut membership = vec![0u32; cfg.points];
    for _ in 0..cfg.iters {
        sums.iter_mut().for_each(|s| *s = 0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (p, pt) in points.chunks_exact(cfg.dims).enumerate() {
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
                    centroids[c * cfg.dims + d] =
                        (sums[c * cfg.dims + d] / counts[c] as i64) as i16;
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
    pt: &[i16],
    c: usize,
) {
    tx.write_u32(lay.membership + p * 4, c as u32);
    for (d, x) in pt.iter().enumerate() {
        let a = lay.sums + (c * dims + d) * 4;
        let cur = tx.read_u32(a) as i32;
        tx.write_u32(a, (cur + i32::from(*x)) as u32);
    }
    let ca = lay.counts + c * 4;
    let cur = tx.read_u32(ca);
    tx.write_u32(ca, cur + 1);
}

/// Recomputes centroids from the persistent accumulators (untimed, like
/// STAMP's barrier phase between assignment passes).
fn recompute_centroids<A: TxAccess>(rt: &mut A, lay: &Layout, cfg: &KmeansCfg, out: &mut [i16]) {
    rt.untimed(|rt| {
        for (c, centroid) in out.chunks_exact_mut(cfg.dims).enumerate() {
            let count = rt.read_u32(lay.counts + c * 4);
            if count > 0 {
                for (d, coord) in centroid.iter_mut().enumerate() {
                    let s = rt.read_u32(lay.sums + (c * cfg.dims + d) * 4);
                    *coord = (s as i32 / count as i32) as i16;
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
/// Panics if the pool is too small (allocate ≥ a few MiB), or if `dims`
/// is so large that a squared distance could overflow `i32`.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &KmeansCfg) -> Result<(), String> {
    assert!(cfg.points >= cfg.clusters, "need at least one point per cluster");
    assert!(cfg.dims <= MAX_DIMS, "{} dims overflow an i32 distance", cfg.dims);
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
        for (p, pt) in points.chunks_exact(cfg.dims).enumerate() {
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
    use specpmt_baselines::NoLog;
    use specpmt_pmem::{PmemConfig, PmemDevice, PmemPool};

    /// The distance loop this module used before the `i32` lanes: one
    /// `Vec` per centroid, `i64` sums. Kept as the reference `nearest`
    /// must match exactly.
    fn reference_nearest(point: &[i16], centroids: &[i16]) -> usize {
        let centroids: Vec<Vec<i16>> =
            centroids.chunks_exact(point.len()).map(<[i16]>::to_vec).collect();
        let mut best = 0usize;
        let mut best_d = i64::MAX;
        for (c, centroid) in centroids.iter().enumerate() {
            let mut d = 0i64;
            for (a, b) in point.iter().zip(centroid) {
                let diff = i64::from(*a) - i64::from(*b);
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    #[test]
    fn verifies_on_nolog_runtime() {
        for cfg in [KmeansCfg::low(Scale::Tiny), KmeansCfg::high(Scale::Tiny)] {
            let mut rt = NoLog::new(PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22))));
            assert_eq!(run(&mut rt, &cfg), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn nearest_matches_the_i64_loop() {
        let mut rng = SplitMix64::new(5);
        let coord = |rng: &mut SplitMix64| rng.below(COORD_BOUND as usize) as i16;
        for _ in 0..2000 {
            let dims = 1 + rng.below(32);
            let clusters = 1 + rng.below(40);
            let point: Vec<i16> = (0..dims).map(|_| coord(&mut rng)).collect();
            let mut centroids: Vec<i16> = (0..clusters * dims).map(|_| coord(&mut rng)).collect();
            // Plant exact ties: one centroid (half the time the point
            // itself, so the tie is for nearest) copied to other indices.
            let src = rng.below(clusters);
            if rng.below(2) == 0 {
                centroids[src * dims..(src + 1) * dims].copy_from_slice(&point);
            }
            for _ in 0..rng.below(3) {
                let dst = rng.below(clusters);
                centroids.copy_within(src * dims..(src + 1) * dims, dst * dims);
            }
            let got = nearest(&point, &centroids);
            assert_eq!(got, reference_nearest(&point, &centroids));
        }
    }

    #[test]
    fn nearest_is_exact_at_the_coordinate_bound() {
        let dims = 24;
        let low = vec![0; dims];
        let high = vec![COORD_BOUND - 1; dims];
        // Equal, maximal distances: the lowest index wins.
        let far = [high.clone(), high.clone()].concat();
        assert_eq!(nearest(&low, &far), 0);
        let mixed = [high.clone(), low.clone(), low.clone()].concat();
        assert_eq!(nearest(&high, &mixed), reference_nearest(&high, &mixed));
        assert_eq!(nearest(&low, &mixed), 1);
        // The widest input whose distances still fit `i32`.
        let dims = MAX_DIMS;
        assert!((dims + 1) * (COORD_BOUND as usize - 1).pow(2) > i32::MAX as usize);
        let (low, high) = (vec![0; dims], vec![COORD_BOUND - 1; dims]);
        let centroids = [high.clone(), low.clone()].concat();
        assert_eq!(nearest(&high, &centroids), 0);
        assert_eq!(nearest(&low, &centroids), 1);
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
        let max_sum = cfg.points as i64 * COORD_BOUND as i64;
        assert!(max_sum < i32::MAX as i64);
    }
}
