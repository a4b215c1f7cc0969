//! `yada`: Delaunay-style mesh refinement.
//!
//! Mirrors STAMP `yada`: a work queue of poor-quality triangles; refining
//! one retires it and inserts new triangles into the mesh store — a
//! mid-size transaction (~176 B, ~24 updates per Table 2) of record-field
//! writes. The refinement rule here is a deterministic quality function
//! rather than true geometric cavity re-triangulation, preserving the
//! transaction profile and a machine-checkable termination/quality
//! invariant.
//!
//! The transaction bodies (`seed_tri`, `refine_tri`) and the driver
//! ([`run`]) are written once against [`TxAccess`]. Child slots are
//! allocated by a read-modify-write of the persistent triangle count
//! *inside* the refinement transaction, so the run reproduces the
//! reference ids exactly.

use std::collections::VecDeque;

use specpmt_txn::{run_tx, TxAccess};

use crate::util::{setup_region, SplitMix64};
use crate::Scale;

/// Quality threshold: triangles below it are "bad" and get refined.
pub const QUALITY_MIN: u32 = 60;

/// Children created per refinement.
pub const CHILDREN: usize = 3;

/// Bytes per triangle record.
pub const TRI_BYTES: usize = 32;

/// Configuration for the yada workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YadaCfg {
    /// Initial triangles.
    pub initial: usize,
    /// Capacity of the triangle store.
    pub capacity: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost per refinement (cavity computation), ns.
    pub refine_compute_ns: u64,
}

impl YadaCfg {
    /// Preset for a scale.
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self { initial: 24, capacity: 4096, seed: 61, refine_compute_ns: 2500 },
            Scale::Small => {
                Self { initial: 400, capacity: 65536, seed: 61, refine_compute_ns: 2500 }
            }
        }
    }
}

/// Deterministic child quality: strictly increasing so refinement
/// terminates.
fn child_quality(parent_q: u32, parent_id: usize, child: usize) -> u32 {
    let h = crate::util::hash64(
        &[(parent_id as u64).to_le_bytes(), (child as u64).to_le_bytes()].concat(),
    );
    (parent_q + 15 + (h % 20) as u32).min(100)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tri {
    quality: u32,
    v: [u32; 3],
    alive: bool,
    gen: u32,
    /// Neighbor links (cavity adjacency).
    n: [u32; 2],
}

fn initial_tris(cfg: &YadaCfg) -> Vec<Tri> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.initial)
        .map(|i| Tri {
            quality: rng.below(100) as u32,
            v: [i as u32, i as u32 + 1, i as u32 + 2],
            alive: true,
            gen: 0,
            n: [i as u32, 0],
        })
        .collect()
}

/// Volatile reference refinement.
fn reference(cfg: &YadaCfg) -> Vec<Tri> {
    let mut tris = initial_tris(cfg);
    let mut queue: VecDeque<usize> =
        (0..cfg.initial).filter(|&i| tris[i].quality < QUALITY_MIN).collect();
    while let Some(t) = queue.pop_front() {
        if !tris[t].alive || tris[t].quality >= QUALITY_MIN {
            continue;
        }
        tris[t].alive = false;
        for c in 0..CHILDREN {
            let q = child_quality(tris[t].quality, t, c);
            let id = tris.len();
            assert!(id < cfg.capacity, "triangle store overflow");
            tris.push(Tri {
                quality: q,
                v: [t as u32, id as u32, c as u32],
                alive: true,
                gen: tris[t].gen + 1,
                n: [t as u32, c as u32],
            });
            if q < QUALITY_MIN {
                queue.push_back(id);
            }
        }
    }
    tris
}

struct Layout {
    tris: usize,
    count: usize, // u32 triangle count
}

fn layout(cfg: &YadaCfg, base: usize) -> Layout {
    Layout { tris: base, count: base + cfg.capacity * TRI_BYTES }
}

fn write_tri<A: TxAccess>(tx: &mut A, at: usize, t: &Tri) {
    // Field-by-field writes: the small-update profile of mesh codes.
    tx.write_u32(at, t.quality);
    tx.write_u32(at + 4, t.v[0]);
    tx.write_u32(at + 8, t.v[1]);
    tx.write_u32(at + 12, t.v[2]);
    tx.write_u32(at + 16, u32::from(t.alive));
    tx.write_u32(at + 20, t.gen);
    tx.write_u32(at + 24, t.n[0]);
    tx.write_u32(at + 28, t.n[1]);
}

/// Mesh-loading transaction body: store initial triangle `i` (a fixed
/// slot) and bump the triangle count by read-modify-write.
fn seed_tri<A: TxAccess>(tx: &mut A, lay: &Layout, i: usize, t: &Tri) {
    write_tri(tx, lay.tris + i * TRI_BYTES, t);
    let count = tx.read_u32(lay.count);
    tx.write_u32(lay.count, count + 1);
}

/// Refinement transaction body: retire parent `t` (known quality/gen from
/// the work-queue item), allocate `CHILDREN` slots by read-modify-write
/// of the persistent count, and insert the children. Returns the first
/// child id, or `None` if the parent was already retired (the driver's
/// "refined twice" error).
///
/// Doom-safe: a doomed read shows the parent dead, so the body writes
/// nothing; [`run_tx`] aborts and retries the attempt anyway.
///
/// # Panics
///
/// Panics if the triangle store would overflow.
fn refine_tri<A: TxAccess>(
    tx: &mut A,
    lay: &Layout,
    capacity: usize,
    t: usize,
    parent_q: u32,
    parent_gen: u32,
) -> Option<usize> {
    let at = lay.tris + t * TRI_BYTES;
    if tx.read_u32(at + 16) == 0 {
        return None;
    }
    // Retire the parent and relink its neighborhood.
    let base_id = tx.read_u32(lay.count) as usize;
    assert!(base_id + CHILDREN <= capacity, "triangle store overflow");
    tx.write_u32(at + 16, 0);
    tx.write_u32(at + 24, base_id as u32);
    tx.write_u32(at + 28, parent_gen + 1);
    // Insert the children.
    for c in 0..CHILDREN {
        let id = base_id + c;
        let child = Tri {
            quality: child_quality(parent_q, t, c),
            v: [t as u32, id as u32, c as u32],
            alive: true,
            gen: parent_gen + 1,
            n: [t as u32, c as u32],
        };
        write_tri(tx, lay.tris + id * TRI_BYTES, &child);
    }
    tx.write_u32(lay.count, (base_id + CHILDREN) as u32);
    Some(base_id)
}

/// Runs the workload on one handle; returns the verification outcome.
///
/// Seeds (one transaction per initial triangle, like mesh loading) are
/// stored first, then a FIFO work queue of `(id, quality, gen)` items for
/// bad triangles is drained; each id is enqueued at most once.
///
/// Verification: every live triangle meets the quality bar, the final
/// count equals `initial + CHILDREN × retired`, and every triangle
/// matches the reference's slot allocations exactly.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &YadaCfg) -> Result<(), String> {
    let base = setup_region(rt, cfg.capacity * TRI_BYTES + 4, 64);
    let lay = layout(cfg, base);
    let seeds = initial_tris(cfg);
    let mut queue = VecDeque::<(usize, u32, u32)>::new();

    for (i, tri) in seeds.iter().enumerate() {
        run_tx(rt, |tx| seed_tri(tx, &lay, i, tri));
        if tri.quality < QUALITY_MIN {
            queue.push_back((i, tri.quality, tri.gen));
        }
    }
    while let Some((tri, q, gen)) = queue.pop_front() {
        rt.compute(cfg.refine_compute_ns);
        let Some(base_id) = run_tx(rt, |tx| refine_tri(tx, &lay, cfg.capacity, tri, q, gen)) else {
            return Err(format!("triangle {tri}: refined twice"));
        };
        for c in 0..CHILDREN {
            let cq = child_quality(q, tri, c);
            if cq < QUALITY_MIN {
                queue.push_back((base_id + c, cq, gen + 1));
            }
        }
    }

    let want = reference(cfg);
    rt.untimed(|rt| {
        let got_count = rt.read_u32(lay.count) as usize;
        if got_count > cfg.capacity || got_count < cfg.initial {
            return Err(format!("triangle count {got_count} out of range"));
        }
        if got_count != want.len() {
            return Err(format!("triangle count {got_count} != {}", want.len()));
        }
        let mut retired = 0usize;
        for (i, w) in want.iter().enumerate() {
            let at = lay.tris + i * TRI_BYTES;
            let got = Tri {
                quality: rt.read_u32(at),
                v: [rt.read_u32(at + 4), rt.read_u32(at + 8), rt.read_u32(at + 12)],
                alive: rt.read_u32(at + 16) != 0,
                gen: rt.read_u32(at + 20),
                n: [0; 2], // neighbor links mutate on retirement
            };
            if got != (Tri { n: [0; 2], ..*w }) {
                return Err(format!("triangle {i}: {got:?} != {w:?}"));
            }
            if got.alive && got.quality < QUALITY_MIN {
                return Err(format!("triangle {i} alive but below quality threshold"));
            }
            if !got.alive {
                retired += 1;
            }
        }
        if got_count != cfg.initial + CHILDREN * retired {
            return Err(format!(
                "count {got_count} != initial {} + {CHILDREN}x{retired} retired",
                cfg.initial
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle is written field by field, eight adjacent `u32`s, and
    /// each field continues the last one's log entry: the record holds one
    /// entry, an 8-byte header and 32 value bytes, where one header per
    /// field sealed 96 bytes.
    #[test]
    fn a_triangle_seals_one_entry_of_40_bytes() {
        use specpmt_core::{forensics, SpecConfig, SpecSpmt};
        use specpmt_pmem::{CrashControl, CrashPolicy, PmemConfig, PmemDevice, PmemPool};
        use specpmt_txn::{Recover, TxRuntime};
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = SpecSpmt::new(pool, SpecConfig::default());
        let at = rt.setup_alloc(TRI_BYTES, 64);
        let t = Tri { quality: 7, v: [1, 2, 3], alive: true, gen: 4, n: [5, 6] };
        rt.begin();
        write_tri(&mut rt, at, &t);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        let chain = &forensics(&img).chains[0];
        assert_eq!((chain.records, chain.entries, chain.payload_bytes), (1, 1, 40));
        SpecSpmt::recover(&mut img);
        let fields: Vec<u32> = img
            .read_bytes(at, TRI_BYTES)
            .chunks(4)
            .map(|f| u32::from_le_bytes(f.try_into().unwrap()))
            .collect();
        assert_eq!(fields, [7, 1, 2, 3, 1, 4, 5, 6]);
    }

    #[test]
    fn refinement_terminates_with_all_good_triangles() {
        let tris = reference(&YadaCfg::scaled(Scale::Tiny));
        assert!(tris.iter().filter(|t| t.alive).all(|t| t.quality >= QUALITY_MIN));
        assert!(tris.iter().any(|t| !t.alive), "some triangle must have been refined");
    }

    #[test]
    fn child_quality_strictly_increases() {
        for q in 0..QUALITY_MIN {
            for c in 0..CHILDREN {
                assert!(child_quality(q, 7, c) > q);
            }
        }
    }

    #[test]
    fn reference_is_deterministic() {
        let cfg = YadaCfg::scaled(Scale::Tiny);
        assert_eq!(reference(&cfg), reference(&cfg));
    }

    #[test]
    fn reference_count_matches_retirement_invariant() {
        let cfg = YadaCfg::scaled(Scale::Tiny);
        let tris = reference(&cfg);
        let retired = tris.iter().filter(|t| !t.alive).count();
        assert_eq!(tris.len(), cfg.initial + CHILDREN * retired);
    }
}
