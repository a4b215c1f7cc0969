//! `genome`: gene-sequence assembly.
//!
//! Mirrors STAMP `genome`: phase 1 deduplicates DNA segments by inserting
//! them into a hash set (here a persistent open-addressing table — small
//! transactional writes, ~7 B average per Table 2); phase 2 links unique
//! segments into an assembly chain (single pointer write per transaction).
//!
//! The transaction bodies (`insert_segment`, `link_segment`) and the
//! one driver (`execute`) are written once against [`TxAccess`]: the
//! sequential [`run`] is that driver on one handle, the real-thread
//! [`crate::run_app_mt`] the same driver on a fleet.

use std::collections::HashSet;
use std::sync::Mutex;

use specpmt_txn::{run_tx, TxAccess};

use crate::mt::{Committed, Fleet, Solo};
use crate::util::{hash64, setup_region, SplitMix64};
use crate::Scale;

/// Configuration for the genome workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenomeCfg {
    /// Genome length in bases.
    pub genome_len: usize,
    /// Segment length in bases.
    pub segment_len: usize,
    /// Number of sampled segments (phase-1 transactions).
    pub segments: usize,
    /// Hash-table capacity (power of two, > unique segments).
    pub table_cap: usize,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost per segment hash/compare (ns).
    pub hash_compute_ns: u64,
}

impl GenomeCfg {
    /// Preset for a scale.
    pub fn scaled(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Self {
                genome_len: 256,
                segment_len: 16,
                segments: 80,
                table_cap: 256,
                seed: 31,
                hash_compute_ns: 600,
            },
            Scale::Small => Self {
                genome_len: 8192,
                segment_len: 16,
                segments: 2500,
                table_cap: 8192,
                seed: 31,
                hash_compute_ns: 600,
            },
        }
    }
}

struct Layout {
    /// Hash table: `table_cap` entries of 8 B (segment fingerprint; 0 = empty).
    table: usize,
    /// Unique-segment count (u32) — thread 0's counter, and so the
    /// sequential run's.
    unique: usize,
    /// Chain links: `table_cap` × u32 (next unique segment's slot + 1).
    links: usize,
    /// Chain head slot (u32).
    head: usize,
    /// Unique-counter shards of threads 1 and up (u32 each), allocated
    /// past the sequential region; one shared counter would serialize
    /// every insert.
    shards: usize,
}

fn layout(cfg: &GenomeCfg, base: usize) -> Layout {
    let table = base;
    let unique = table + cfg.table_cap * 8;
    let links = unique + 4;
    let head = links + cfg.table_cap * 4;
    Layout { table, unique, links, head, shards: head + 4 }
}

fn region_bytes(cfg: &GenomeCfg) -> usize {
    cfg.table_cap * 8 + 4 + cfg.table_cap * 4 + 4
}

fn gen_genome(cfg: &GenomeCfg) -> Vec<u8> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.genome_len).map(|_| b"ACGT"[rng.below(4)]).collect()
}

fn gen_segments(cfg: &GenomeCfg, genome: &[u8]) -> Vec<u64> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5E65);
    (0..cfg.segments)
        .map(|_| {
            let at = rng.below(genome.len() - cfg.segment_len);
            // Fingerprint the segment; reserve 0 as the empty marker.
            hash64(&genome[at..at + cfg.segment_len]) | 1
        })
        .collect()
}

/// Volatile reference: insertion order of unique fingerprints and their
/// final table slots (slots are only meaningful for a sequential run —
/// under concurrency, probe placement depends on the interleaving).
fn reference(cfg: &GenomeCfg, segments: &[u64]) -> (Vec<u64>, Vec<usize>) {
    let mask = cfg.table_cap - 1;
    let mut table = vec![0u64; cfg.table_cap];
    let mut uniques = Vec::new();
    let mut slots = Vec::new();
    for &fp in segments {
        let mut idx = (fp as usize) & mask;
        loop {
            if table[idx] == fp {
                break; // duplicate
            }
            if table[idx] == 0 {
                table[idx] = fp;
                uniques.push(fp);
                slots.push(idx);
                break;
            }
            idx = (idx + 1) & mask;
        }
    }
    (uniques, slots)
}

/// Phase-1 transaction body: deduplicating insert of one fingerprint, with
/// the calling thread's unique counter at `unique_ctr`. Returns the slot
/// it filled, or `None` for a duplicate.
///
/// Doom-safe: when a doomed access returns zeros, the probe loop
/// terminates at the first slot and every write is dropped — the driver
/// aborts and retries.
fn insert_segment<A: TxAccess>(
    tx: &mut A,
    lay: &Layout,
    mask: usize,
    fp: u64,
    unique_ctr: usize,
) -> Option<usize> {
    let mut idx = (fp as usize) & mask;
    loop {
        let a = lay.table + idx * 8;
        let cur = tx.read_u64(a);
        if cur == fp {
            return None; // duplicate — nothing to write
        }
        if cur == 0 {
            tx.write_u64(a, fp);
            let cnt = tx.read_u32(unique_ctr);
            tx.write_u32(unique_ctr, cnt + 1);
            return Some(idx);
        }
        idx = (idx + 1) & mask;
    }
}

/// Phase-2 transaction body: link `slot` after `prev` in the assembly
/// chain (one pointer write — mimics overlap chaining).
fn link_segment<A: TxAccess>(tx: &mut A, lay: &Layout, prev: Option<usize>, slot: usize) {
    let val = (slot + 1) as u32;
    match prev {
        None => tx.write_u32(lay.head, val),
        Some(p) => tx.write_u32(lay.links + p * 4, val),
    }
}

/// Runs the workload sequentially on one handle; returns the verification
/// outcome.
///
/// # Panics
///
/// Panics if `table_cap` is not a power of two.
pub fn run<A: TxAccess>(rt: &mut A, cfg: &GenomeCfg) -> Result<(), String> {
    execute(&mut Solo(rt), cfg).map(drop)
}

/// The one driver: phase-1 inserts race over the shared hash table,
/// segments partitioned round-robin, each thread bumping its own unique
/// counter (thread 0 the sequential one). Phase 2, chain linking, is
/// inherently sequential (each link names its predecessor), so handle 0
/// performs it, as STAMP's sequential epilogue phases do.
///
/// Verification is order-independent: the table holds exactly the set of
/// unique fingerprints, the counters sum to the unique count, and the
/// chain visits each unique slot exactly once. On one handle, slots and
/// chain order must also match the sequential reference exactly.
pub(crate) fn execute<F: Fleet + ?Sized>(fleet: &mut F, cfg: &GenomeCfg) -> Committed {
    assert!(cfg.table_cap.is_power_of_two(), "table_cap must be a power of two");
    let threads = fleet.threads();
    let base = setup_region(fleet.first(), region_bytes(cfg) + (threads - 1) * 4, 64);
    let lay = layout(cfg, base);
    let genome = gen_genome(cfg);
    let segments = gen_segments(cfg, &genome);
    let mask = cfg.table_cap - 1;
    let counter = |t: usize| if t == 0 { lay.unique } else { lay.shards + (t - 1) * 4 };

    // The slots each thread's committed inserts filled, in its order.
    let filled: Vec<Mutex<Vec<usize>>> = (0..threads).map(|_| Mutex::default()).collect();
    let mut commits = fleet.each(|t, h| {
        let mut mine = filled[t].lock().unwrap();
        let mut n = 0u64;
        for &fp in segments.iter().skip(t).step_by(threads) {
            h.compute(cfg.hash_compute_ns);
            mine.extend(run_tx(h, |tx| insert_segment(tx, &lay, mask, fp, counter(t))));
            n += 1;
        }
        Ok(n)
    })?;

    // Link the filled slots thread by thread in insertion order: on one
    // handle, the reference's order.
    let h0 = fleet.first();
    let mut prev: Option<usize> = None;
    for slot in filled.into_iter().flat_map(|m| m.into_inner().unwrap()) {
        h0.compute(cfg.hash_compute_ns / 2);
        run_tx(h0, |tx| link_segment(tx, &lay, prev, slot));
        commits += 1;
        prev = Some(slot);
    }

    let (uniques, ref_slots) = reference(cfg, &segments);
    let want: HashSet<u64> = uniques.iter().copied().collect();
    h0.untimed(|rt| {
        let count: u32 = (0..threads).map(|t| rt.read_u32(counter(t))).sum();
        if count as usize != want.len() {
            return Err(format!("unique count {count} != {}", want.len()));
        }
        let mut got = HashSet::new();
        for slot in 0..cfg.table_cap {
            let fp = rt.read_u64(lay.table + slot * 8);
            if fp != 0 && !got.insert(fp) {
                return Err(format!("fingerprint {fp:#x} stored twice"));
            }
        }
        if got != want {
            return Err(format!("table holds {} fingerprints, want {}", got.len(), want.len()));
        }
        // The chain must visit every unique slot exactly once.
        let mut chain = Vec::with_capacity(want.len());
        let mut seen = vec![false; cfg.table_cap];
        let mut cur = rt.read_u32(lay.head) as usize;
        while cur != 0 {
            let slot = cur - 1;
            if std::mem::replace(&mut seen[slot], true) {
                return Err(format!("chain revisits slot {slot}"));
            }
            if rt.read_u64(lay.table + slot * 8) == 0 {
                return Err(format!("chain visits empty slot {slot}"));
            }
            chain.push(slot);
            cur = rt.read_u32(lay.links + slot * 4) as usize;
        }
        if chain.len() != want.len() {
            return Err(format!("chain visits {} slots, want {}", chain.len(), want.len()));
        }
        // One handle replays the reference: its slots, in its chain order.
        if threads == 1 {
            for (i, (&slot, &fp)) in ref_slots.iter().zip(&uniques).enumerate() {
                let got = rt.read_u64(lay.table + slot * 8);
                if got != fp || chain[i] != slot {
                    return Err(format!(
                        "chain position {i}: slot {} (slot {slot} holds {got:#x}, want {fp:#x})",
                        chain[i]
                    ));
                }
            }
        }
        Ok(commits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_dedups() {
        let cfg = GenomeCfg::scaled(Scale::Tiny);
        let genome = gen_genome(&cfg);
        let segs = gen_segments(&cfg, &genome);
        let (uniques, slots) = reference(&cfg, &segs);
        assert_eq!(uniques.len(), slots.len());
        assert!(uniques.len() <= segs.len());
        let set: std::collections::HashSet<_> = uniques.iter().collect();
        assert_eq!(set.len(), uniques.len());
    }

    #[test]
    fn fingerprints_never_zero() {
        let cfg = GenomeCfg::scaled(Scale::Tiny);
        let genome = gen_genome(&cfg);
        for fp in gen_segments(&cfg, &genome) {
            assert_ne!(fp, 0);
        }
    }

    #[test]
    fn genome_is_valid_dna() {
        let cfg = GenomeCfg::scaled(Scale::Tiny);
        assert!(gen_genome(&cfg).iter().all(|b| b"ACGT".contains(b)));
    }
}
