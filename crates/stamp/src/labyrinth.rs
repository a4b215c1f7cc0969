//! `labyrinth`: maze routing with transactional path claims.
//!
//! Mirrors STAMP `labyrinth`: each route is computed on a volatile mirror
//! of the grid (breadth-first search — heavy compute), then one large
//! transaction claims every cell of the path (Table 2's biggest write sets:
//! ~1.4 KB of 8-byte cell updates).
//!
//! The claim transaction body (`try_claim`) and the one driver
//! (`execute`) are written once against [`TxAccess`]: the sequential
//! [`run`] is that driver on one handle, the real-thread [`crate::run_app_mt`] the
//! same driver on a fleet. Like STAMP, the claim *revalidates* the path
//! inside the transaction: routing used a grid that another thread's
//! claim may since have crossed, so the body re-reads every cell and
//! claims nothing if another route got there first — the driver then
//! re-routes.

use std::collections::VecDeque;
use std::sync::Mutex;

use specpmt_txn::{run_tx, TxAccess};

use crate::mt::{Committed, Fleet, Solo};
use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Configuration for the labyrinth workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabyrinthCfg {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Grid layers.
    pub layers: usize,
    /// Route requests (transactions, minus failed routes).
    pub routes: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost per BFS-visited cell (ns).
    pub visit_compute_ns: u64,
}

impl LabyrinthCfg {
    /// Preset for a scale.
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => {
                Self { width: 16, height: 16, layers: 2, routes: 6, seed: 51, visit_compute_ns: 3 }
            }
            Scale::Small => Self {
                width: 128,
                height: 128,
                layers: 2,
                routes: 120,
                seed: 51,
                visit_compute_ns: 3,
            },
        }
    }

    fn cells(&self) -> usize {
        self.width * self.height * self.layers
    }
}

fn idx(cfg: &LabyrinthCfg, x: usize, y: usize, z: usize) -> usize {
    (z * cfg.height + y) * cfg.width + x
}

/// BFS shortest path over free cells; returns cell indices src→dst.
fn route(cfg: &LabyrinthCfg, occ: &[u64], src: usize, dst: usize) -> Option<(Vec<usize>, usize)> {
    let n = cfg.cells();
    let mut prev = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    prev[src] = src;
    queue.push_back(src);
    let mut visited = 1usize;
    while let Some(c) = queue.pop_front() {
        if c == dst {
            let mut path = vec![c];
            let mut cur = c;
            while cur != src {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some((path, visited));
        }
        let z = c / (cfg.width * cfg.height);
        let rem = c % (cfg.width * cfg.height);
        let y = rem / cfg.width;
        let x = rem % cfg.width;
        let mut push = |nx: usize, ny: usize, nz: usize, prev: &mut Vec<usize>| {
            let ni = idx(cfg, nx, ny, nz);
            if prev[ni] == usize::MAX && (occ[ni] == 0 || ni == dst) {
                prev[ni] = c;
                queue.push_back(ni);
                visited += 1;
            }
        };
        if x > 0 {
            push(x - 1, y, z, &mut prev);
        }
        if x + 1 < cfg.width {
            push(x + 1, y, z, &mut prev);
        }
        if y > 0 {
            push(x, y - 1, z, &mut prev);
        }
        if y + 1 < cfg.height {
            push(x, y + 1, z, &mut prev);
        }
        if z > 0 {
            push(x, y, z - 1, &mut prev);
        }
        if z + 1 < cfg.layers {
            push(x, y, z + 1, &mut prev);
        }
    }
    None
}

fn gen_requests(cfg: &LabyrinthCfg) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.routes)
        .map(|_| {
            // Endpoints in opposite quadrants to keep paths long, like the
            // STAMP inputs' long nets.
            let sx = rng.below(cfg.width / 3);
            let sy = rng.below(cfg.height / 3);
            let dx = cfg.width - 1 - rng.below(cfg.width / 3);
            let dy = cfg.height - 1 - rng.below(cfg.height / 3);
            let sz = rng.below(cfg.layers);
            let dz = rng.below(cfg.layers);
            (idx(cfg, sx, sy, sz), idx(cfg, dx, dy, dz))
        })
        .collect()
}

/// Claim transaction body: revalidate every path cell (the route was
/// computed on a mirror that may be stale), then claim them all and
/// bump the routed counter. Returns whether the claim succeeded; on
/// `false` nothing was written and the caller should re-route.
///
/// Doom-safe: doomed reads show every cell free, so the body "claims"
/// with dropped writes and returns `true` — which [`run_tx`] discards
/// when it aborts and retries the attempt.
fn try_claim<A: TxAccess>(
    tx: &mut A,
    grid: usize,
    routed_addr: usize,
    path: &[usize],
    id: u64,
) -> bool {
    for &c in path {
        if tx.read_u64(grid + c * 8) != 0 {
            return false;
        }
    }
    for &c in path {
        tx.write_u64(grid + c * 8, id);
    }
    let routed = tx.read_u64(routed_addr);
    tx.write_u64(routed_addr, routed + 1);
    true
}

/// Runs the workload sequentially on one handle; returns the verification
/// outcome.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &LabyrinthCfg) -> Result<(), String> {
    execute(&mut Solo(rt), cfg).map(drop)
}

/// Re-route attempts per request before a thread gives up (a failed
/// claim means another thread's route crossed ours).
const REROUTES: usize = 8;

/// The one driver: requests are partitioned round-robin. Each thread
/// routes (compute) on the shared occupancy mirror while holding its lock
/// and claims transactionally with in-transaction revalidation; a failed
/// claim re-routes, as STAMP does. On one handle the mirror is never
/// stale, so a failed claim is an error.
///
/// Verification: the persistent grid holds exactly the committed claims
/// (each path's cells carry its unique id, all other cells zero) and the
/// routed counter equals the number of successful claims. With one
/// handle the claims are the sequential run's, so this is its exact check.
pub(crate) fn execute<F: Fleet + ?Sized>(fleet: &mut F, cfg: &LabyrinthCfg) -> Committed {
    let threads = fleet.threads();
    let grid_bytes = cfg.cells() * 8;
    let base = setup_region(fleet.first(), grid_bytes + 8, 64);
    let routed_count_a = base + grid_bytes;
    let requests = gen_requests(cfg);
    // Volatile occupancy mirror, updated only after a committed claim, so
    // it trails the persistent grid — a route that another thread's claim
    // crosses is caught by the in-transaction revalidation.
    let occ = Mutex::new(vec![0u64; cfg.cells()]);
    let claims = Mutex::new(Vec::<(u64, Vec<usize>)>::new());

    let commits = fleet.each(|t, h| {
        let mut n = 0u64;
        for (path_id, &(src, dst)) in requests.iter().enumerate().skip(t).step_by(threads) {
            let id = path_id as u64 + 1;
            for _ in 0..REROUTES {
                let routed = {
                    let occ = occ.lock().unwrap();
                    if occ[src] != 0 || occ[dst] != 0 {
                        break;
                    }
                    route(cfg, &occ, src, dst)
                };
                let Some((path, visited)) = routed else {
                    break;
                };
                h.compute(cfg.visit_compute_ns * visited as u64);
                let claimed = run_tx(h, |tx| try_claim(tx, base, routed_count_a, &path, id));
                n += 1;
                if claimed {
                    let mut occ = occ.lock().unwrap();
                    for &c in &path {
                        occ[c] = id;
                    }
                    claims.lock().unwrap().push((id, path));
                    break;
                }
                if threads == 1 {
                    return Err(format!("route {path_id}: sequential claim revalidation failed"));
                }
            }
        }
        Ok(n)
    })?;

    let claims = claims.into_inner().unwrap();
    let mut want = vec![0u64; cfg.cells()];
    for (id, path) in &claims {
        for &c in path {
            if want[c] != 0 {
                return Err(format!("cell {c}: claimed by both {} and {id}", want[c]));
            }
            want[c] = *id;
        }
    }
    fleet.first().untimed(|rt| {
        let got = rt.read_u64(routed_count_a);
        if got != claims.len() as u64 {
            return Err(format!("routed count {got} != {}", claims.len()));
        }
        for (c, &w) in want.iter().enumerate() {
            let got = rt.read_u64(base + c * 8);
            if got != w {
                return Err(format!("cell {c}: {got} != {w}"));
            }
        }
        Ok(commits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_finds_shortest_manhattan_path_on_empty_grid() {
        let cfg = LabyrinthCfg::scaled(Scale::Tiny);
        let occ = vec![0u64; cfg.cells()];
        let src = idx(&cfg, 0, 0, 0);
        let dst = idx(&cfg, 5, 7, 0);
        let (path, _) = route(&cfg, &occ, src, dst).unwrap();
        assert_eq!(path.len(), 5 + 7 + 1);
        assert_eq!(path[0], src);
        assert_eq!(*path.last().unwrap(), dst);
    }

    #[test]
    fn blocked_route_returns_none() {
        let cfg =
            LabyrinthCfg { width: 3, height: 1, layers: 1, ..LabyrinthCfg::scaled(Scale::Tiny) };
        let mut occ = vec![0u64; cfg.cells()];
        occ[1] = 9; // wall in the middle of a 3x1 corridor
        assert!(route(&cfg, &occ, 0, 2).is_none());
    }

    #[test]
    fn requests_are_deterministic() {
        let cfg = LabyrinthCfg::scaled(Scale::Tiny);
        assert_eq!(gen_requests(&cfg), gen_requests(&cfg));
    }
}
