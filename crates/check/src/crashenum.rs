//! Deterministic crash-point enumeration (FIRST-style).
//!
//! Fuel sweeps ([`CrashPlan::after_ops`]) crash at *operation counts* —
//! thorough but blind: they cannot say "crash exactly between the batch
//! flush and the batch fence", and when a protocol change shifts the
//! operation numbering every hand-picked fuel value silently tests a
//! different point. This module enumerates the *labeled* crash sites
//! ([`specpmt_pmem::sites`]) a workload actually reaches and crashes at
//! each one deterministically:
//!
//! 1. **Observe pass** — run the workload once with [`CrashPlan::observe`]
//!    armed: every labeled site counts its hits, nothing fires. The result
//!    is the workload's reachable site set with exact per-site hit counts.
//! 2. **Targeted passes** — for each discovered `(site, hit)` pair (hits
//!    capped by [`EnumConfig::max_hits_per_site`]), re-run the workload
//!    fresh with [`CrashPlan::at_site`] armed. The run crashes precisely
//!    there, recovers, and verifies atomic durability + exactly-once
//!    receipts.
//! 3. **Report** — an [`EnumReport`] of every case: which sites were
//!    visited, which passed, and for each failure an exact repro command
//!    (`<cmd> --target <site>:<hit>`) that replays the same crash point
//!    deterministically.
//!
//! Hand-rolled fuel sweeps plug into the same report via
//! [`run_fuel_sweep`], so both flavors of crash testing share one
//! coverage/failure format.
//!
//! The [`selftest`] submodule contains a deliberately tiny group-commit
//! workload with a switchable ordering bug (receipt published *before*
//! the batch fence). The enumerator must catch the bug and name the
//! violated site — a self-test that the harness can actually detect the
//! class of bug it exists for.

use specpmt_pmem::{sites, CrashPlan, CrashPolicy, Site};

use crate::RunSummary;

/// Enumeration parameters.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// Crash policy applied at each targeted site.
    pub policy: CrashPolicy,
    /// Cap on targeted hits per site: a site hit 10 000 times in the
    /// observe pass gets this many targeted runs, not 10 000. The early
    /// hits of a site cover its distinct protocol states; later hits
    /// repeat them.
    pub max_hits_per_site: u64,
    /// Command that re-runs this workload, used to print exact repro
    /// lines (`<cmd> --target <site>:<hit>`).
    pub repro: String,
}

impl EnumConfig {
    /// Config with the adversarial all-unflushed-lost policy, a hit cap
    /// of 8, and `repro` as the replay command.
    pub fn new(repro: impl Into<String>) -> Self {
        Self { policy: CrashPolicy::AllLost, max_hits_per_site: 8, repro: repro.into() }
    }
}

/// One enumerated crash case (a targeted `(site, hit)` run or one fuel
/// step of a sweep).
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Display label: `site:hit` for targeted runs, `fuel:n` for sweeps.
    pub label: String,
    /// The targeted site (`None` for fuel cases).
    pub site: Option<Site>,
    /// Whether the armed crash actually fired. A targeted multi-threaded
    /// run may legitimately not fire when the interleaving shifts; the
    /// runner then degrades to orderly-shutdown verification and the case
    /// counts as unfired-but-verified.
    pub fired: bool,
    /// Whether recovery + verification passed.
    pub passed: bool,
    /// The first atomicity violation, for failed cases.
    pub error: Option<String>,
    /// Exact replay command, for failed cases.
    pub repro: Option<String>,
}

/// The enumeration outcome: discovered sites and every case run.
#[derive(Debug, Clone, Default)]
pub struct EnumReport {
    /// Sites the observe pass discovered, with total hit counts.
    pub discovered: Vec<(Site, u64)>,
    /// Every targeted / fuel case, in execution order.
    pub cases: Vec<CaseResult>,
}

impl EnumReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed)
    }

    /// The failed cases.
    pub fn failures(&self) -> impl Iterator<Item = &CaseResult> {
        self.cases.iter().filter(|c| !c.passed)
    }

    /// Number of cases whose armed crash actually fired.
    pub fn fired_cases(&self) -> usize {
        self.cases.iter().filter(|c| c.fired).count()
    }

    /// Sites visited (hit at least once) by the observe pass.
    pub fn visited(&self) -> Vec<Site> {
        self.discovered.iter().filter(|&&(_, n)| n > 0).map(|&(s, _)| s).collect()
    }

    /// Inventory sites in `subsystems` that no observe pass visited —
    /// the zero-unvisited-labels check. Pass the subsystems the workload
    /// can reach (a sequential workload cannot reach `mt-*` sites).
    pub fn unvisited(&self, subsystems: &[&str]) -> Vec<Site> {
        let visited = self.visited();
        sites::ALL
            .iter()
            .copied()
            .filter(|s| subsystems.contains(&s.subsystem()))
            .filter(|s| !visited.contains(s))
            .collect()
    }

    /// Folds `other` into `self` (union of discoveries, concatenated
    /// cases) so multi-workload drives can assert coverage of the full
    /// inventory from one merged report.
    pub fn merge(&mut self, other: EnumReport) {
        for (site, n) in other.discovered {
            match self.discovered.iter_mut().find(|(s, _)| *s == site) {
                Some((_, total)) => *total += n,
                None => self.discovered.push((site, n)),
            }
        }
        self.cases.extend(other.cases);
    }

    /// One-line summaries of every failure, each ending with its repro
    /// command.
    pub fn failure_lines(&self) -> Vec<String> {
        self.failures()
            .map(|c| {
                let repro = c.repro.as_deref().unwrap_or("");
                let error = c.error.as_deref().unwrap_or("unknown failure");
                format!("{}: {error}\n  repro: {repro}", c.label)
            })
            .collect()
    }
}

/// Enumerates every labeled crash site `run` reaches and crashes at each
/// deterministically.
///
/// `run` executes the workload **fresh** (new device, new pool, new
/// runtime) with the given plan armed, recovers if the crash fired, and
/// verifies atomic durability + exactly-once receipts; it returns the
/// run's [`RunSummary`] or the first violation. The enumerator performs
/// one observe pass plus one targeted pass per discovered `(site, hit ≤
/// cap)` pair.
///
/// # Errors
///
/// Returns the observe pass's error verbatim — a workload that cannot
/// even run crash-free is broken, not crash-unsafe. Targeted-pass
/// failures are *not* errors; they land in the report with repro
/// commands.
pub fn enumerate<F>(cfg: &EnumConfig, mut run: F) -> Result<EnumReport, String>
where
    F: FnMut(CrashPlan) -> Result<RunSummary, String>,
{
    let observed = run(CrashPlan::observe()).map_err(|e| format!("observe pass failed: {e}"))?;
    let mut report = EnumReport { discovered: observed.site_hits.clone(), cases: Vec::new() };
    for &(site, count) in &observed.site_hits {
        for hit in 1..=count.min(cfg.max_hits_per_site) {
            let plan = CrashPlan::at_site(site, hit).with_policy(cfg.policy);
            let label = format!("{site}:{hit}");
            let case = match run(plan) {
                Ok(summary) => {
                    if let Some((s, h)) = summary.fired_at {
                        if (s, h) != (site, hit) {
                            fail_case(cfg, site, hit, label,
                                format!("armed {site}:{hit} but fired at {s}:{h} — site targeting is not deterministic"))
                        } else {
                            pass_case(site, label, true)
                        }
                    } else {
                        // The interleaving never reached the target (possible
                        // under real threads); the runner degraded to
                        // orderly-shutdown verification, which passed.
                        pass_case(site, label, summary.fired)
                    }
                }
                Err(e) => fail_case(cfg, site, hit, label, e),
            };
            report.cases.push(case);
        }
    }
    Ok(report)
}

fn pass_case(site: Site, label: String, fired: bool) -> CaseResult {
    CaseResult { label, site: Some(site), fired, passed: true, error: None, repro: None }
}

fn fail_case(cfg: &EnumConfig, site: Site, hit: u64, label: String, error: String) -> CaseResult {
    CaseResult {
        label,
        site: Some(site),
        fired: true,
        passed: false,
        error: Some(error),
        repro: Some(format!("{} --target {site}:{hit}", cfg.repro)),
    }
}

/// Runs a fuel sweep (one fresh run per [`CrashPlan::after_ops`] plan in
/// `plans`, typically built with [`CrashPlan::sweep_fuel`]) into the same
/// report format the enumerator produces, so fuel sweeps and site
/// enumeration share coverage and failure reporting.
pub fn run_fuel_sweep<F>(plans: &[CrashPlan], repro: &str, mut run: F) -> EnumReport
where
    F: FnMut(CrashPlan) -> Result<RunSummary, String>,
{
    let mut report = EnumReport::default();
    for &plan in plans {
        let fuel = match plan.trigger() {
            specpmt_pmem::CrashTrigger::AfterOps(n) => n,
            _ => panic!("run_fuel_sweep takes after_ops plans"),
        };
        let label = format!("fuel:{fuel}");
        let case = match run(plan) {
            Ok(summary) => CaseResult {
                label,
                site: None,
                fired: summary.fired,
                passed: true,
                error: None,
                repro: None,
            },
            Err(e) => CaseResult {
                label,
                site: None,
                fired: true,
                passed: false,
                error: Some(e),
                repro: Some(format!("{repro} (crash fuel {fuel})")),
            },
        };
        report.cases.push(case);
    }
    report
}

/// A deliberately tiny group-commit workload with a switchable ordering
/// bug, proving the enumerator catches the class of bug it exists for.
pub mod selftest {
    use crate::{end_run, RunSummary};
    use specpmt_pmem::{line_of, CrashControl, CrashPlan, PmemConfig, SharedPmemDevice, Site};
    use specpmt_txn::GroupCommitter;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Transactions the workload commits.
    pub const TXS: usize = 4;

    const PAYLOAD_BASE: usize = 256;
    const RECEIPT_BASE: usize = 1024;

    fn payload_addr(k: usize) -> usize {
        PAYLOAD_BASE + k * 64
    }

    fn receipt_addr(k: usize) -> usize {
        RECEIPT_BASE + k * 64
    }

    fn value(k: usize) -> u64 {
        0xA5A5_0000_0000_0000 | (k as u64 + 1)
    }

    /// Runs a one-committer group-commit workload with `plan` armed: each
    /// transaction writes a payload, stages its log line with the
    /// [`GroupCommitter`], and persists an exactly-once receipt after the
    /// batch fence retires. A drain thread drains every batch, carrying
    /// the real `mt/group/*` crash-point labels.
    ///
    /// With `reorder_receipt` the receipt is persisted **before** the
    /// batch fence — the ordering bug this harness exists to catch: a
    /// crash between the reordered receipt and the fence leaves a durable
    /// receipt for a payload that never became durable.
    ///
    /// # Errors
    ///
    /// Returns the first receipt/payload invariant violation found in the
    /// (recovered) crash image.
    pub fn run_group_workload(
        plan: CrashPlan,
        reorder_receipt: bool,
    ) -> Result<RunSummary, String> {
        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 16));
        let h = dev.handle();
        let gc = GroupCommitter::new();
        let done = AtomicBool::new(false);
        dev.arm(plan);
        std::thread::scope(|s| {
            let (drain_dev, gc, done, dev) = (dev.handle(), &gc, &done, &dev);
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    gc.drain_next(Duration::from_millis(1), |batch| {
                        dev.crash_point(Site::MtGroupPreFence);
                        drain_dev.clwb_lines(&batch.log_lines);
                        drain_dev.sfence();
                        dev.crash_point(Site::MtGroupBatchFence);
                    });
                }
            });
            for k in 0..TXS {
                let v = value(k).to_le_bytes();
                h.write(payload_addr(k), &v);
                dev.crash_point(Site::MtGroupStage);
                if reorder_receipt {
                    // BUG (deliberate): the receipt becomes durable before
                    // the batch fence covers the payload.
                    h.write(receipt_addr(k), &v);
                    h.persist_range(receipt_addr(k), 8);
                }
                gc.commit(&[line_of(payload_addr(k))]);
                if !reorder_receipt {
                    h.write(receipt_addr(k), &v);
                    h.persist_range(receipt_addr(k), 8);
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let (summary, image) = end_run(&dev, |d| *d, |d| d.flush_everything());
        // Recovery for this toy protocol is vacuous (no log replay); the
        // receipt/payload implication is the whole invariant.
        for k in 0..TXS {
            let v = value(k);
            let receipt = image.read_u64(receipt_addr(k));
            if receipt != 0 && receipt != v {
                return Err(format!("tx {k}: torn receipt {receipt:#x}"));
            }
            if receipt == v && image.read_u64(payload_addr(k)) != v {
                return Err(format!(
                    "tx {k}: receipt durable without its payload (receipt published before the batch fence)"
                ));
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_group_workload_enumerates_clean() {
        let cfg = EnumConfig::new("crashenum --selftest-reorder");
        let report = enumerate(&cfg, |plan| selftest::run_group_workload(plan, false))
            .expect("observe pass");
        assert!(report.passed(), "failures: {:?}", report.failure_lines());
        // The single-threaded toy is deterministic: every targeted case
        // must actually fire.
        assert_eq!(report.fired_cases(), report.cases.len());
        // All three group sites are reachable, TXS hits each.
        for site in [Site::MtGroupStage, Site::MtGroupPreFence, Site::MtGroupBatchFence] {
            let (_, n) = report
                .discovered
                .iter()
                .find(|(s, _)| *s == site)
                .unwrap_or_else(|| panic!("{site} not discovered"));
            assert_eq!(*n, selftest::TXS as u64);
        }
        assert!(report.unvisited(&["mt-group"]).is_empty());
    }

    #[test]
    fn reordered_receipt_is_caught_and_named() {
        let cfg = EnumConfig::new("crashenum --selftest-reorder");
        let report = enumerate(&cfg, |plan| selftest::run_group_workload(plan, true))
            .expect("observe pass (the bug only bites under a crash)");
        assert!(!report.passed(), "the injected ordering bug must be caught");
        let sites: Vec<_> = report.failures().filter_map(|c| c.site).collect();
        assert!(
            sites.contains(&Site::MtGroupPreFence),
            "the violated fence site must be named, got {sites:?}"
        );
        // Every failure prints an exact repro command.
        for case in report.failures() {
            let repro = case.repro.as_deref().expect("failures carry repro commands");
            let site = case.site.expect("targeted cases name their site");
            assert!(repro.contains(&format!(" --target {site}:")), "got {repro}");
        }
    }

    #[test]
    fn fuel_sweep_shares_the_report_format() {
        let plans = CrashPlan::sweep_fuel(1..=12, CrashPolicy::AllLost);
        let report = run_fuel_sweep(&plans, "cargo test -q -p specpmt-check crashenum", |plan| {
            selftest::run_group_workload(plan, false)
        });
        assert_eq!(report.cases.len(), 12);
        assert!(report.passed(), "failures: {:?}", report.failure_lines());
        assert!(report.fired_cases() > 0, "low fuels must fire");
        // And the buggy variant fails somewhere in the same sweep.
        let buggy =
            run_fuel_sweep(&plans, "selftest", |plan| selftest::run_group_workload(plan, true));
        assert!(!buggy.passed(), "fuel sweeps must also catch the reorder bug");
    }

    #[test]
    fn merged_reports_union_discoveries() {
        let mut a = EnumReport {
            discovered: vec![(Site::SeqCommitFlush, 2)],
            cases: vec![CaseResult {
                label: "seq/commit/flush:1".into(),
                site: Some(Site::SeqCommitFlush),
                fired: true,
                passed: true,
                error: None,
                repro: None,
            }],
        };
        let b = EnumReport {
            discovered: vec![(Site::SeqCommitFlush, 1), (Site::SeqCommitFence, 3)],
            cases: Vec::new(),
        };
        a.merge(b);
        assert_eq!(a.discovered, vec![(Site::SeqCommitFlush, 3), (Site::SeqCommitFence, 3)]);
        assert_eq!(a.cases.len(), 1);
        let unv = a.unvisited(&["seq-commit"]);
        assert_eq!(unv.len(), 2, "seal + append still unvisited: {unv:?}");
    }
}
