//! `labyrinth`: maze routing with transactional path claims.
//!
//! Mirrors STAMP `labyrinth`: each route is computed on a volatile mirror
//! of the grid (breadth-first search — heavy compute), then one large
//! transaction claims every cell of the path (Table 2's biggest write sets:
//! ~1.4 KB of 8-byte cell updates).
//!
//! The claim transaction body (`try_claim`) and the driver ([`run`]) are
//! written once against [`TxAccess`]. Like STAMP, the claim *revalidates*
//! the path inside the transaction: the body re-reads every cell and
//! claims nothing if another route got there first. Routing on one handle
//! uses a mirror that is never stale, so there a failed claim is an error.

use std::iter::successors;

use specpmt_txn::{run_tx, TxAccess};

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

/// The mark of border and claimed cells: above every search generation.
const BLOCKED: u32 = u32::MAX;

/// Breadth-first router over a copy of the grid padded by one blocked cell
/// on every side, so a cell's neighbours are `c ± 1`, `c ± pw` and
/// `c ± plane`, with no edge tests and no division per visited cell. One
/// router serves a run: a search stamps the cells it reaches with its own
/// generation, and keeps its FIFO whole (its length is the visited count).
struct Router {
    width: usize,
    height: usize,
    mark: Vec<u32>,
    /// The padded cell each cell was reached from in the current search.
    prev: Vec<u32>,
    queue: Vec<u32>,
    generation: u32,
}

impl Router {
    fn new(cfg: &LabyrinthCfg) -> Self {
        let cells = (cfg.width + 2) * (cfg.height + 2) * (cfg.layers + 2);
        assert!(cells < BLOCKED as usize && cfg.routes < BLOCKED as usize, "grid too large");
        let (mark, prev) = (vec![BLOCKED; cells], vec![0; cells]);
        let mut r =
            Self { width: cfg.width, height: cfg.height, mark, prev, queue: vec![], generation: 0 };
        for c in 0..cfg.cells() {
            let p = r.pad(c);
            r.mark[p] = 0;
        }
        r
    }

    /// Padded row and layer strides.
    fn strides(&self) -> (usize, usize) {
        (self.width + 2, (self.width + 2) * (self.height + 2))
    }

    fn pad(&self, c: usize) -> usize {
        let ((pw, plane), (x, yz)) = (self.strides(), (c % self.width, c / self.width));
        (yz / self.height + 1) * plane + (yz % self.height + 1) * pw + x + 1
    }

    fn unpad(&self, p: usize) -> usize {
        let (pw, plane) = self.strides();
        ((p / plane - 1) * self.height + p % plane / pw - 1) * self.width + p % pw - 1
    }

    fn claim(&mut self, path: &[usize]) {
        for &c in path {
            let p = self.pad(c);
            self.mark[p] = BLOCKED;
        }
    }

    /// Shortest path over free cells from `src` to `dst`, as cell indices
    /// src→dst, with the number of cells the search visited; `None` if
    /// either end is claimed. FIFO order, neighbours x−1, x+1, y−1, y+1,
    /// z−1, z+1.
    fn route(&mut self, src: usize, dst: usize) -> Option<(Vec<usize>, usize)> {
        let (s, t) = (self.pad(src), self.pad(dst));
        if self.mark[s] == BLOCKED || self.mark[t] == BLOCKED {
            return None;
        }
        self.generation += 1;
        let ((pw, plane), generation) = (self.strides(), self.generation);
        self.mark[s] = generation;
        self.queue.clear();
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&c) = self.queue.get(head) {
            let c = c as usize;
            if c == t {
                let back = successors(Some(t), |&p| (p != s).then(|| self.prev[p] as usize));
                let mut path: Vec<usize> = back.map(|p| self.unpad(p)).collect();
                path.reverse();
                return Some((path, self.queue.len()));
            }
            for n in [c - 1, c + 1, c - pw, c + pw, c - plane, c + plane] {
                if self.mark[n] < generation {
                    self.mark[n] = generation;
                    self.prev[n] = c as u32;
                    self.queue.push(n as u32);
                }
            }
            head += 1;
        }
        None
    }
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

/// Claim transaction body: revalidate every path cell, then claim them
/// all and bump the routed counter. Returns whether the claim succeeded;
/// on `false` nothing was written.
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

/// Runs the workload on one handle; returns the verification outcome.
///
/// Each request is routed on the volatile `Router` mirror (its visited
/// cells charged as compute) and claimed transactionally.
///
/// Verification: the persistent grid holds exactly the committed claims
/// (each path's cells carry its unique id, all other cells zero) and the
/// routed counter equals the number of successful claims.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &LabyrinthCfg) -> Result<(), String> {
    let grid_bytes = cfg.cells() * 8;
    let base = setup_region(rt, grid_bytes + 8, 64);
    let routed_count_a = base + grid_bytes;
    let requests = gen_requests(cfg);
    // Volatile occupancy mirror, updated after each committed claim.
    let mut router = Router::new(cfg);
    let mut claims = Vec::<(u64, Vec<usize>)>::new();

    for (path_id, &(src, dst)) in requests.iter().enumerate() {
        let id = path_id as u64 + 1;
        let Some((path, visited)) = router.route(src, dst) else {
            continue;
        };
        rt.compute(cfg.visit_compute_ns * visited as u64);
        if !run_tx(rt, |tx| try_claim(tx, base, routed_count_a, &path, id)) {
            return Err(format!("route {path_id}: sequential claim revalidation failed"));
        }
        router.claim(&path);
        claims.push((id, path));
    }

    let mut want = vec![0u64; cfg.cells()];
    for (id, path) in &claims {
        for &c in path {
            if want[c] != 0 {
                return Err(format!("cell {c}: claimed by both {} and {id}", want[c]));
            }
            want[c] = *id;
        }
    }
    rt.untimed(|rt| {
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
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The router this module used before [`Router`]: a fresh
    /// `usize::MAX` map and a `VecDeque` per route, bounds-checked
    /// neighbours. Kept as the reference `Router` must match exactly.
    fn reference_route(
        cfg: &LabyrinthCfg,
        occ: &[u64],
        src: usize,
        dst: usize,
    ) -> Option<(Vec<usize>, usize)> {
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

    /// Routes `src`→`dst` on both routers (the reference needs both ends
    /// free), asserts the same `(path, visited)`, and returns it.
    fn both(
        router: &mut Router,
        cfg: &LabyrinthCfg,
        occ: &[u64],
        src: usize,
        dst: usize,
    ) -> Option<(Vec<usize>, usize)> {
        let got = router.route(src, dst);
        assert_eq!(got, reference_route(cfg, occ, src, dst), "{src} -> {dst}");
        got
    }

    #[test]
    fn router_matches_reference_on_random_walled_grids() {
        let (mut routed, mut unroutable) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let cfg = LabyrinthCfg {
                width: 1 + rng.below(12),
                height: 1 + rng.below(12),
                layers: 1 + rng.below(3),
                ..LabyrinthCfg::scaled(Scale::Tiny)
            };
            let mut router = Router::new(&cfg);
            let mut occ = vec![0u64; cfg.cells()];
            let density = rng.below(60);
            let walls: Vec<usize> = (0..cfg.cells()).filter(|_| rng.below(100) < density).collect();
            walls.iter().for_each(|&c| occ[c] = 1);
            router.claim(&walls);
            for _ in 0..8 {
                let (src, dst) = (rng.below(cfg.cells()), rng.below(cfg.cells()));
                if occ[src] != 0 || occ[dst] != 0 {
                    assert_eq!(router.route(src, dst), None);
                    continue;
                }
                match both(&mut router, &cfg, &occ, src, dst) {
                    Some(_) => routed += 1,
                    None => unroutable += 1,
                }
            }
        }
        assert!(routed > 100 && unroutable > 50, "routed {routed}, unroutable {unroutable}");
    }

    #[test]
    fn router_matches_reference_on_the_presets() {
        for scale in [Scale::Tiny, Scale::Small] {
            let cfg = LabyrinthCfg::scaled(scale);
            let mut router = Router::new(&cfg);
            let mut occ = vec![0u64; cfg.cells()];
            let mut routed = 0;
            for (id, (src, dst)) in (1..).zip(gen_requests(&cfg)) {
                if occ[src] != 0 || occ[dst] != 0 {
                    assert_eq!(router.route(src, dst), None);
                    continue;
                }
                if let Some((path, _)) = both(&mut router, &cfg, &occ, src, dst) {
                    path.iter().for_each(|&c| occ[c] = id);
                    router.claim(&path);
                    routed += 1;
                }
            }
            assert!(routed > 0, "{scale:?}");
        }
    }

    #[test]
    fn bfs_finds_shortest_manhattan_path_on_empty_grid() {
        let cfg = LabyrinthCfg::scaled(Scale::Tiny);
        let src = idx(&cfg, 0, 0, 0);
        let dst = idx(&cfg, 5, 7, 0);
        let (path, _) = Router::new(&cfg).route(src, dst).unwrap();
        assert_eq!(path.len(), 5 + 7 + 1);
        assert_eq!(path[0], src);
        assert_eq!(*path.last().unwrap(), dst);
    }

    #[test]
    fn blocked_route_returns_none() {
        let cfg =
            LabyrinthCfg { width: 3, height: 1, layers: 1, ..LabyrinthCfg::scaled(Scale::Tiny) };
        let mut router = Router::new(&cfg);
        router.claim(&[1]); // wall in the middle of a 3x1 corridor
        assert!(router.route(0, 2).is_none());
    }

    #[test]
    fn requests_are_deterministic() {
        let cfg = LabyrinthCfg::scaled(Scale::Tiny);
        assert_eq!(gen_requests(&cfg), gen_requests(&cfg));
    }
}
