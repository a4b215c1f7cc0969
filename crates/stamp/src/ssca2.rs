//! `ssca2`: graph adjacency construction (SSCA2 kernel 1).
//!
//! Mirrors STAMP `ssca2`: the transactional kernel inserts edges into
//! per-vertex adjacency arrays — four 4-byte updates (slot + degree for
//! both endpoints) per transaction, the 16-byte profile of Table 2.
//!
//! The transaction body (`insert_edge`) and the one driver (`execute`)
//! are written once against [`TxAccess`]: the sequential [`run`] is that
//! driver on one handle, the real-thread [`crate::run_app_mt`] the same driver on a
//! fleet. Under concurrency the adjacency slot order depends on the
//! interleaving, so verification compares neighbor *multisets* per vertex
//! and demands slot-exact contents only of one handle.

use specpmt_txn::{run_tx, TxAccess};

use crate::mt::{Committed, Fleet, Solo};
use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Configuration for the ssca2 workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ssca2Cfg {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count (transactions).
    pub edges: usize,
    /// Adjacency capacity per vertex.
    pub max_degree: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost charged per edge for index computation (ns).
    pub edge_compute_ns: u64,
}

impl Ssca2Cfg {
    /// Preset for a scale.
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => {
                Self { vertices: 32, edges: 80, max_degree: 32, seed: 7, edge_compute_ns: 600 }
            }
            Scale::Small => {
                Self { vertices: 1024, edges: 8000, max_degree: 96, seed: 7, edge_compute_ns: 600 }
            }
        }
    }
}

struct Layout {
    degrees: usize, // vertices * 4
    adj: usize,     // vertices * max_degree * 4
}

fn layout(cfg: &Ssca2Cfg, base: usize) -> Layout {
    Layout { degrees: base, adj: base + cfg.vertices * 4 }
}

/// Generates the deterministic edge list (no self-loops; degree-capped on
/// both sides so the transactional run never overflows a slot array).
fn gen_edges(cfg: &Ssca2Cfg) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut degree = vec![0usize; cfg.vertices];
    let mut edges = Vec::with_capacity(cfg.edges);
    while edges.len() < cfg.edges {
        let u = rng.below(cfg.vertices);
        let v = rng.below(cfg.vertices);
        if u == v || degree[u] >= cfg.max_degree || degree[v] >= cfg.max_degree {
            continue;
        }
        degree[u] += 1;
        degree[v] += 1;
        edges.push((u as u32, v as u32));
    }
    edges
}

/// Edge-insertion transaction body: append each endpoint to the other's
/// adjacency array and bump both degrees (STAMP's kernel-1 update).
///
/// Doom-safe: a doomed degree read returns 0 and the slot/degree writes
/// are dropped; the driver aborts and retries.
fn insert_edge<A: TxAccess>(tx: &mut A, lay: &Layout, max_degree: usize, u: u32, v: u32) {
    for (a, b) in [(u as usize, v), (v as usize, u)] {
        let da = lay.degrees + a * 4;
        let deg = tx.read_u32(da) as usize;
        tx.write_u32(lay.adj + (a * max_degree + deg) * 4, b);
        tx.write_u32(da, (deg + 1) as u32);
    }
}

/// Expected final degrees and (sequential-order) adjacency contents.
fn reference(cfg: &Ssca2Cfg, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut want_deg = vec![0u32; cfg.vertices];
    let mut want_adj = vec![0u32; cfg.vertices * cfg.max_degree];
    for &(u, v) in edges {
        for (a, b) in [(u as usize, v), (v as usize, u)] {
            want_adj[a * cfg.max_degree + want_deg[a] as usize] = b;
            want_deg[a] += 1;
        }
    }
    (want_deg, want_adj)
}

/// Runs the workload sequentially on one handle; returns the verification
/// outcome.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &Ssca2Cfg) -> Result<(), String> {
    execute(&mut Solo(rt), cfg).map(drop)
}

/// The one driver: edge inserts, partitioned round-robin, race over the
/// shared adjacency arrays.
///
/// Verification: each vertex's final degree equals its incident-edge
/// count and its adjacency slice holds exactly the expected neighbor
/// multiset; on one handle the slices must match the sequential
/// reference slot for slot.
pub(crate) fn execute<F: Fleet + ?Sized>(fleet: &mut F, cfg: &Ssca2Cfg) -> Committed {
    let threads = fleet.threads();
    let bytes = cfg.vertices * 4 + cfg.vertices * cfg.max_degree * 4;
    let base = setup_region(fleet.first(), bytes, 64);
    let lay = layout(cfg, base);
    let edges = gen_edges(cfg);

    let commits = fleet.each(|t, h| {
        let mine = edges.iter().skip(t).step_by(threads);
        let n = mine.len() as u64;
        for &(u, v) in mine {
            h.compute(cfg.edge_compute_ns);
            run_tx(h, |tx| insert_edge(tx, &lay, cfg.max_degree, u, v));
        }
        Ok(n)
    })?;

    let (want_deg, want_adj) = reference(cfg, &edges);
    let (mut got_nbrs, mut want_nbrs) = (Vec::new(), Vec::new());
    fleet.first().untimed(|rt| {
        for (vtx, &want) in want_deg.iter().enumerate() {
            let got = rt.read_u32(lay.degrees + vtx * 4);
            if got != want {
                return Err(format!("vertex {vtx}: degree {got} != {want}"));
            }
            let slots = vtx * cfg.max_degree..vtx * cfg.max_degree + got as usize;
            got_nbrs.clear();
            got_nbrs.extend(slots.clone().map(|s| rt.read_u32(lay.adj + s * 4)));
            want_nbrs.clear();
            want_nbrs.extend_from_slice(&want_adj[slots]);
            if threads == 1 && got_nbrs != want_nbrs {
                return Err(format!("vertex {vtx}: adjacency differs from the sequential order"));
            }
            got_nbrs.sort_unstable();
            want_nbrs.sort_unstable();
            if got_nbrs != want_nbrs {
                return Err(format!("vertex {vtx}: neighbor multiset mismatch"));
            }
        }
        Ok(commits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_generation_is_deterministic_and_capped() {
        let cfg = Ssca2Cfg::scaled(Scale::Tiny);
        let a = gen_edges(&cfg);
        let b = gen_edges(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.edges);
        let mut deg = vec![0usize; cfg.vertices];
        for &(u, v) in &a {
            assert_ne!(u, v);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d <= cfg.max_degree));
    }

    #[test]
    fn degree_sum_is_twice_edges() {
        let cfg = Ssca2Cfg::scaled(Scale::Tiny);
        let edges = gen_edges(&cfg);
        let mut deg = vec![0usize; cfg.vertices];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert_eq!(deg.iter().sum::<usize>(), 2 * cfg.edges);
    }
}
