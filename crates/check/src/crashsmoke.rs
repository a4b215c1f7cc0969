//! Canonical enumeration smoke workloads.
//!
//! The crash-point enumerator ([`crate::crashenum`]) is generic over a
//! *runner* closure; this module provides the two runners the repo's
//! smoke tier drives — one per runtime — sized so that together they reach
//! **every** labeled crash site in [`specpmt_pmem::sites`]:
//!
//! * [`run_seq_smoke`] — [`SpecSpmt`] with small log blocks, a tiny
//!   reclamation threshold, and inline reclamation, so a short random
//!   stream walks the full commit sequence (`seq/commit/*`), repeated
//!   compaction cycles (`seq/reclaim/*`), and the layout head-pointer
//!   writes (`layout/*`). The stream draws write-free transactions between
//!   the writers.
//! * [`run_mt_smoke`] — [`SpecSpmtShared`] on four real threads with a
//!   post-run compaction cycle and a checkpoint write, covering
//!   `mt/commit/*` (group commit off) or `mt/group/*` (group commit on)
//!   plus `mt/reclaim/*` and `ckpt/*`. Run it once per group-commit
//!   setting and [`EnumReport::merge`] the reports to cover both commit
//!   paths. Every writer is preceded by a write-free transaction (committed
//!   or aborted), and one transaction stays open, still write-free, across
//!   the compaction cycle and the checkpoint before it writes and commits;
//!   one more cycle after that commit leaves the checkpoint's anchor for
//!   its chain stale.
//!
//! Both runners execute the workload **fresh** (new device, pool, and
//! runtime per call), recover from the captured image, and verify atomic
//! durability, which is exactly the contract [`enumerate`] expects. They
//! also recover every image twice — once with the reference replay
//! ([`specpmt_core::recovery::recover_image`]), once with the engine every
//! runtime's `recover` runs — and assert the two images are
//! bit-identical, so each enumerated crash case doubles as a check of
//! production recovery against its executable specification.
//!
//! [`EnumReport::merge`]: crate::EnumReport::merge
//! [`enumerate`]: crate::enumerate

use specpmt_core::recovery::{self, RecoveryOptions};
use specpmt_core::{
    forensics, ConcurrentConfig, ReclaimMode, SpecConfig, SpecSpmt, SpecSpmtShared, TxHandle,
};
use specpmt_pmem::{CrashControl, CrashImage, CrashPlan, PmemConfig, SharedPmemDevice};

use crate::driver::{check_crash_atomicity, StreamSpec};
use crate::{bracket, end_run, run_threads, Bracket, RunSummary};

/// Recovers `image` through the reference replay — named explicitly:
/// `SpecSpmt::recover` is the engine, and would compare it with itself —
/// then recovers a pristine clone through the engine (merge,
/// checkpoint-bounded, last writer wins) and asserts bit-identity: the
/// acceptance contract that production recovery matches the reference on
/// *every* enumerated crash case.
///
/// Every image also runs through [`forensics`]: the decode must
/// never fail (torn ring slots degrade to counts), the
/// receipt-ahead-of-durability check must come back clean, and the event
/// record must be consistent with what recovery reported. That makes each
/// enumerated crash case double as a black-box soundness check.
fn recover_and_check_equivalence(image: &mut CrashImage) {
    let mut optimized = image.clone();
    recovery::recover_image(image);
    let report = recovery::recover_image_opts(&mut optimized, &RecoveryOptions::default());
    assert_eq!(*image, optimized, "the recovery engine diverged from the reference replay");
    let fx = forensics(image);
    assert!(fx.is_clean(), "forensic violations on a correct runtime: {:?}\n{fx}", fx.violations);
    let issues = fx.check_against(&report);
    assert!(issues.is_empty(), "forensics inconsistent with recovery: {issues:?}\n{fx}");
}

/// Region bytes of the sequential smoke stream.
const SEQ_REGION: usize = 64;

/// Threads driven by the multi-threaded smoke workload.
pub const MT_THREADS: usize = 4;
/// Transactions each multi-threaded smoke thread commits.
pub const MT_TXS: usize = 6;
const MT_REGION: usize = 128;

/// Runs the sequential smoke workload with `plan` armed and returns the
/// run summary plus the recovered crash image (for bit-exact replay
/// checks).
///
/// The workload is fully deterministic: a fixed-seed 56-transaction stream
/// over a 64-byte region on a [`SpecSpmt`] with 256-byte log blocks and
/// inline reclamation above a 1 KiB footprint, so compaction (and its
/// splice into the layout head slots) happens twice mid-stream.
///
/// # Errors
///
/// Returns the first atomic-durability violation found in the recovered
/// image.
pub fn run_seq_smoke_with_image(plan: CrashPlan) -> Result<(RunSummary, CrashImage), String> {
    let cfg = SpecConfig {
        block_bytes: 256,
        reclaim_threshold_bytes: 1024,
        reclaim_mode: ReclaimMode::Inline,
        ..SpecConfig::default()
    };
    let spec = StreamSpec {
        txs: 56,
        max_writes_per_tx: 4,
        max_write_len: 8,
        region_len: SEQ_REGION,
        seed: 0xC0DE,
    };
    let make = |pool| SpecSpmt::new(pool, cfg);
    let outcome = check_crash_atomicity(make, &spec, plan, recover_and_check_equivalence)?;
    Ok((outcome.run, outcome.image))
}

/// [`run_seq_smoke_with_image`] without the image — the exact shape
/// [`enumerate`](crate::enumerate) wants.
///
/// # Errors
///
/// Returns the first atomic-durability violation found in the recovered
/// image.
pub fn run_seq_smoke(plan: CrashPlan) -> Result<RunSummary, String> {
    run_seq_smoke_with_image(plan).map(|(summary, _)| summary)
}

/// The monotone value thread `t`'s `k`-th transaction writes (1-based
/// `k`); recovery checks rest on the values increasing within a thread.
fn mt_value(t: usize, k: usize) -> u64 {
    ((t as u64 + 1) << 32) | k as u64
}

/// Runs the multi-threaded smoke workload with `plan` armed.
///
/// [`MT_THREADS`] real threads each commit [`MT_TXS`] transactions into a
/// disjoint region; every transaction writes the same *pair* of words
/// (base and base+64), so a torn pair after recovery is an atomicity
/// violation and the pair value must be at least the thread's last
/// definitely-committed transaction (crash-epoch bracketing classifies
/// definite commits). Before each of them the thread runs a write-free
/// transaction — a read that commits, or a bare `begin; abort` — which
/// must leave the chain untouched. After the threads join, thread 0 opens
/// one more transaction and reads; with it open, one [`SpecSpmtShared::
/// reclaim_cycle`] compacts the churned chains (thread 0's included: a
/// transaction that has not written pins nothing), deterministically
/// walking the `mt/reclaim/*` splice protocol, and a checkpoint is
/// written. Only then does the transaction write its pair — reserving its
/// record in the compacted chain — and commit, and a second cycle splices
/// thread 0's chain again, leaving the checkpoint's anchor for it stale.
/// The whole straggler runs in one bracket; once the image is taken it
/// does not run at all.
///
/// With `group_commit` the commits funnel through the batched-fence group
/// path (`mt/group/*` sites); without it each commit seals solo
/// (`mt/commit/flush`, `mt/commit/fence`).
///
/// # Errors
///
/// Returns the first torn pair or lost definitely-committed transaction
/// found in the recovered image.
pub fn run_mt_smoke(plan: CrashPlan, group_commit: bool) -> Result<RunSummary, String> {
    let dev = SharedPmemDevice::new(PmemConfig::new(1 << 22));
    // The flight recorder runs with a deliberately tiny ring so the smoke
    // stream wraps every ring, covering the `bbox/*` sites and the
    // overwrite path in one enumeration.
    let cfg = ConcurrentConfig::builder()
        .threads(MT_THREADS)
        .group_commit(group_commit)
        .reclaim_threshold_bytes(1024)
        .flight_recorder(true)
        .bbox_capacity(32)
        .build();
    let shared = SpecSpmtShared::open_or_format(dev.clone(), cfg);
    let bases: Vec<usize> = (0..MT_THREADS)
        .map(|_| shared.pool().alloc_direct(MT_REGION, 64).expect("pool holds all regions"))
        .collect();
    let mut handles: Vec<TxHandle> = (0..MT_THREADS).map(|t| shared.tx_handle(t)).collect();

    // Committed snapshot of zeros per region before the crash is armed.
    let zeros = vec![0u8; MT_REGION];
    for (h, &base) in handles.iter_mut().zip(&bases) {
        h.begin();
        h.write(base, &zeros);
        h.commit();
    }

    dev.arm(plan);
    let txs: Vec<usize> = (1..=MT_TXS).collect();
    let mut runs = run_threads(&dev, handles, &vec![txs; MT_THREADS], |t, h, &k| {
        h.begin();
        if k % 2 == 0 {
            h.read(bases[t], &mut [0u8; 8]);
            h.commit();
        } else {
            h.abort();
        }
        let v = mt_value(t, k).to_le_bytes();
        h.begin();
        h.write(bases[t], &v);
        h.write(bases[t] + 64, &v);
        h.commit();
    });

    // Thread 0's last transaction is open, and still write-free, across
    // the compaction and the checkpoint below.
    let straggler = &mut runs[0];
    let last = bracket(&dev, || {
        let h = &mut straggler.handle;
        h.begin();
        h.read(bases[0], &mut [0u8; 8]);
        // Each chain now holds MT_TXS-fold churn on two words: one
        // compaction cycle rewrites every chain through the two-fence
        // splice.
        shared.reclaim_cycle();
        // One checkpoint write walks the ckpt/* splice protocol; recovery
        // of the captured image then exercises checkpoint-bounded replay
        // (or its torn-checkpoint fallback, when the crash lands
        // mid-protocol).
        shared.write_checkpoint();
        let v = mt_value(0, MT_TXS + 1).to_le_bytes();
        h.write(bases[0], &v);
        h.write(bases[0] + 64, &v);
        h.commit();
        // The commit made thread 0's checkpointed record stale: a second
        // cycle splices its chain and frees the block the checkpoint's
        // anchor names, bytes intact, so the final image recovers through a
        // stale anchor — recovery must read that chain from its head.
        shared.reclaim_cycle();
    });
    if last == Bracket::Definite {
        straggler.definite += 1;
    }

    let (summary, mut image) = end_run(&dev, |d| *d, |d| d.flush_everything());
    recover_and_check_equivalence(&mut image);
    // The recorder was formatted before the crash armed, so the region
    // must decode on every enumerated image.
    let fx = forensics(&image);
    assert!(fx.recorder_present, "flight-recorder region missing from the mt crash image");

    for (t, (&base, run)) in bases.iter().zip(&runs).enumerate() {
        let last_definite = run.definite;
        let (a, b) = (image.read_u64(base), image.read_u64(base + 64));
        if a != b {
            return Err(format!("thread {t}: torn pair {a:#x} / {b:#x} after recovery"));
        }
        let floor = if last_definite == 0 { 0 } else { mt_value(t, last_definite) };
        if a < floor {
            return Err(format!(
                "thread {t}: definitely-committed tx {last_definite} lost \
                 (recovered {a:#x} < {floor:#x})"
            ));
        }
        let last = if t == 0 { MT_TXS + 1 } else { MT_TXS };
        if a != 0 && a > mt_value(t, last) {
            return Err(format!("thread {t}: recovered value {a:#x} was never written"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate, EnumConfig, EnumReport};
    use specpmt_pmem::{sites, Site};

    #[test]
    fn seq_smoke_enumerates_every_seq_and_layout_site() {
        let cfg = EnumConfig::new("crashenum");
        let report = enumerate(&cfg, run_seq_smoke).expect("observe pass");
        assert!(report.passed(), "failures:\n{}", report.failure_lines().join("\n"));
        // Single-threaded determinism: every targeted case fires.
        assert_eq!(report.fired_cases(), report.cases.len());
        let unvisited = report.unvisited(&["seq-commit", "seq-reclaim", "layout"]);
        assert!(unvisited.is_empty(), "unvisited labeled sites: {unvisited:?}");
        // Reclamation runs at least twice, so a cap of two crashes each
        // reclaim and layout site at its first hit and at a later one.
        let once: Vec<_> = report
            .discovered
            .iter()
            .filter(|(site, hits)| {
                ["seq-reclaim", "layout"].contains(&site.subsystem()) && *hits < 2
            })
            .collect();
        assert!(once.is_empty(), "sites the stream reaches only once: {once:?}");
    }

    #[test]
    fn mt_smoke_enumerates_every_mt_site_across_both_commit_paths() {
        let cfg = EnumConfig::new("crashenum");
        let mut merged = EnumReport::default();
        for group in [false, true] {
            let report = enumerate(&cfg, |plan| run_mt_smoke(plan, group)).expect("observe pass");
            assert!(
                report.passed(),
                "group={group} failures:\n{}",
                report.failure_lines().join("\n")
            );
            merged.merge(report);
        }
        let unvisited =
            merged.unvisited(&["mt-commit", "mt-group", "mt-reclaim", "ckpt", "layout"]);
        assert!(unvisited.is_empty(), "unvisited labeled sites: {unvisited:?}");
    }

    #[test]
    fn smoke_workloads_cover_the_entire_site_inventory() {
        // The zero-unvisited-labels acceptance check: merged across the
        // smoke workloads, every site in the inventory is reachable.
        let cfg = EnumConfig { max_hits_per_site: 0, ..EnumConfig::new("inventory") };
        let mut merged = EnumReport::default();
        merged.merge(enumerate(&cfg, run_seq_smoke).expect("seq observe"));
        for group in [false, true] {
            merged.merge(enumerate(&cfg, |plan| run_mt_smoke(plan, group)).expect("mt observe"));
        }
        let all: Vec<&str> = sites::ALL.iter().map(|s| s.subsystem()).collect();
        let unvisited = merged.unvisited(&all);
        assert!(unvisited.is_empty(), "unvisited labeled sites: {unvisited:?}");
    }

    #[test]
    fn targeted_seq_replay_is_bit_identical() {
        // Exact-repro contract: enumerate, pick a covered site, re-run via
        // a parsed `crashenum --target`-style plan, and the crash image is
        // bit-identical with the same (site, hit).
        let cfg = EnumConfig::new("replay");
        let report = enumerate(&cfg, run_seq_smoke).expect("observe pass");
        let (site, hits) = *report
            .discovered
            .iter()
            .find(|(s, _)| *s == Site::SeqCommitFence)
            .expect("commit fence is reachable");
        let hit = hits.min(3);
        let plan = CrashPlan::parse_target(&format!("{site}:{hit}")).expect("parsable target");
        let (s1, img1) = run_seq_smoke_with_image(plan).expect("first replay");
        let (s2, img2) = run_seq_smoke_with_image(plan).expect("second replay");
        assert_eq!(s1.fired_at, Some((site, hit)));
        assert_eq!(s2.fired_at, Some((site, hit)));
        assert_eq!(img1, img2, "replayed crash images diverged");
    }
}
