//! `crashenum`: deterministic crash-point enumeration driver.
//!
//! Drives the canonical smoke workloads
//! ([`specpmt_check::crashsmoke`]) through the FIRST-style enumerator
//! ([`specpmt_check::enumerate`]): one sequential [`SpecSpmt`] workload,
//! plus the 4-thread [`SpecSpmtShared`] workload with group commit off
//! *and* on (the two commit paths reach disjoint `mt/*` sites). Every
//! labeled crash site each workload reaches is crashed at
//! deterministically, recovered, and verified; the merged coverage is
//! printed as one JSON line with a per-workload and a per-subsystem
//! breakdown:
//!
//! ```json
//! {"bench":"crashenum","sites_total":23,"sites_visited":23,"passed":true,
//!  "workloads":[{"name":"seq","cases":18,"crash_points":..},...],
//!  "subsystems":[{"name":"seq-commit","sites":4,"visited":4,...},...]}
//! ```
//!
//! A workload's `crash_points` counts the site hits of its observe pass.
//! Only `seq`'s is deterministic: the `mt` workloads interleave real
//! threads, so their counts and the top-level total vary from run to run.
//!
//! The exit status is non-zero if any case failed **or** any inventory
//! site went unvisited (the zero-unvisited-labels acceptance check); each
//! failure prints an exact `crashenum --target <site>:<hit>` repro command
//! on stderr.
//!
//! `--target <site>:<hit>` is that command: it replays the one crash on
//! the smoke workload that reaches the site, prints where it fired, and
//! exits non-zero if the target is malformed or recovery broke.
//!
//! `--selftest-reorder` instead enumerates the deliberately buggy
//! group-commit workload ([`specpmt_check::crashenum::selftest`], receipt
//! persisted *before* the batch fence) and exits zero only when the
//! enumerator catches the bug and names the violated fence site — CI runs
//! this as a must-fail check on the harness itself.
//!
//! `--selftest-forensics` validates the flight-recorder decode end to
//! end: a correct group-commit run crashed at `mt/group/pre_fence` must
//! decode to a **clean** [`ForensicReport`], while the same run with
//! the receipt-before-fence bug forged from outside (a durable receipt
//! for the commit about to crash) must produce a report whose violation
//! names `mt/group/pre_fence`. Exits zero only when both arms behave.
//!
//! `--cap N` bounds targeted runs per site (default 8, at least 1; any
//! other value exits 2); CI uses a small cap to keep the smoke tier fast.
//! Any other argument prints the usage line and exits 2.
//!
//! [`ForensicReport`]: specpmt_core::ForensicReport
//!
//! [`SpecSpmt`]: specpmt_core::SpecSpmt
//! [`SpecSpmtShared`]: specpmt_core::SpecSpmtShared

use specpmt_check::crashenum::selftest;
use specpmt_check::crashsmoke::{run_mt_smoke, run_seq_smoke};
use specpmt_check::{enumerate, EnumConfig, EnumReport, RunSummary};
use specpmt_pmem::{sites, CrashPlan, CrashTrigger, Site};
use specpmt_telemetry::JsonWriter;

/// What every repro line starts with (the enumerator appends the target).
const REPRO: &str = "cargo run --release -q -p specpmt-check --bin crashenum --";

const USAGE: &str = "usage: crashenum [--cap N] [--target <site>:<hit>] \
                     [--selftest-reorder] [--selftest-forensics]";

/// The command line. Any other argument is an error, so a misspelt flag
/// never runs the default enumeration.
#[derive(Debug, Default, PartialEq)]
struct Args {
    target: Option<String>,
    cap: Option<String>,
    reorder: bool,
    forensics: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--selftest-reorder" => parsed.reorder = true,
            "--selftest-forensics" => parsed.forensics = true,
            "--target" | "--cap" => {
                let value = args.next().ok_or_else(|| format!("{arg} takes a value"))?;
                let slot = if arg == "--target" { &mut parsed.target } else { &mut parsed.cap };
                *slot = Some(value);
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(parsed)
}

/// Enumerates the injected-ordering-bug workload; exits zero only when
/// the harness catches it and names the violated site.
fn selftest_reorder() -> i32 {
    let cfg = EnumConfig::new(format!("{REPRO} --selftest-reorder"));
    let report = match enumerate(&cfg, |plan| selftest::run_group_workload(plan, true)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selftest observe pass failed (the bug only bites under a crash): {e}");
            return 1;
        }
    };
    let caught = !report.passed();
    let named: Vec<Site> = report.failures().filter_map(|c| c.site).collect();
    let fence_named = named.contains(&Site::MtGroupPreFence);
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "crashenum_selftest")
        .field_bool("bug_caught", caught)
        .field_bool("fence_site_named", fence_named);
    w.begin_array_field("failure_sites");
    for s in &named {
        w.value_str(s.name());
    }
    w.end_array();
    if let Some(repro) = report.failures().find_map(|c| c.repro.as_deref()) {
        w.field_str("sample_repro", repro);
    }
    w.end_object();
    println!("{}", w.finish());
    if caught && fence_named {
        0
    } else {
        eprintln!(
            "SELFTEST FAILED: injected receipt-before-fence bug was {} (named sites: {named:?})",
            if caught { "caught but misattributed" } else { "not caught" }
        );
        1
    }
}

/// One arm of the forensics selftest: a short group-commit run on the
/// real runtime (recorder on), crashed at the combiner's pre-fence
/// point, decoded by [`specpmt_core::forensics`].
fn forensics_arm(buggy: bool) -> specpmt_core::ForensicReport {
    use specpmt_core::{ConcurrentConfig, SpecSpmtShared};
    use specpmt_pmem::blackbox::BbKind;
    use specpmt_pmem::CrashControl;
    use specpmt_txn::TxAccess as _;

    let rt = SpecSpmtShared::open_or_format(
        1usize << 20,
        ConcurrentConfig::builder()
            .threads(1)
            .group_commit(true)
            .flight_recorder(true)
            .bbox_capacity(64)
            .build(),
    );
    let base = rt.pool().alloc_direct(64, 64).expect("alloc");
    rt.pool().handle().persist_range(base, 64);
    let mut h = rt.tx_handle(0);
    // Warm-up commits give the ring durable history and a real
    // durability frontier for the decoder to check receipts against.
    let mut last_ts = 0;
    for i in 0..3u64 {
        h.begin();
        h.write_u64(base, i);
        last_ts = h.commit().ts();
    }
    if buggy {
        // The receipt-before-fence bug, forged through public API: the
        // next commit's receipt is durable before that commit fences.
        h.record_event(BbKind::TxCommit, last_ts + 1, Site::MtGroupPreFence as u64, 1);
        rt.device().flush_everything();
    }
    // Crash the next commit at the pre-fence point: its record is
    // appended but unfenced. Correct run → no receipt exists yet → clean
    // report. Forged run → the receipt outruns the durability frontier →
    // violation at this site.
    rt.device().arm(CrashPlan::at_site(Site::MtGroupPreFence, 1));
    h.begin();
    h.write_u64(base, 42);
    h.commit();
    drop(h);
    let img = rt.device().take_image().expect("every group commit crosses pre_fence");
    specpmt_core::forensics(&img)
}

/// Runs both selftest arms and reports whether forensics can tell a
/// correct runtime from a reordered one.
fn selftest_forensics() -> i32 {
    let clean = forensics_arm(false);
    let buggy = forensics_arm(true);
    let clean_ok = clean.recorder_present && clean.is_clean();
    let bug_caught = !buggy.is_clean();
    let site_named = buggy.violations.iter().any(|v| v.site == Site::MtGroupPreFence.name());
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "selftest_forensics")
        .field_bool("clean_ok", clean_ok)
        .field_bool("bug_caught", bug_caught)
        .field_bool("site_named", site_named);
    if let Some(v) = buggy.violations.first() {
        w.field_str(
            "sample_violation",
            &format!("tid {} seq {} commit_ts {} at {}", v.tid, v.seq, v.commit_ts, v.site),
        );
    }
    w.end_object();
    println!("{}", w.finish());
    if clean_ok && bug_caught && site_named {
        0
    } else {
        eprintln!(
            "SELFTEST FAILED: clean_ok={clean_ok} bug_caught={bug_caught} \
             site_named={site_named}\n--- clean ---\n{clean}\n--- buggy ---\n{buggy}"
        );
        1
    }
}

/// `--target`: replays one labeled crash on the smoke workload that
/// reaches its site (`reorder`: on the buggy toy workload). An MT target
/// can race past its crash point; `fired_at` is then `None`.
fn replay(target: &str, reorder: bool) -> Result<RunSummary, String> {
    let plan = CrashPlan::parse_target(target)?;
    let CrashTrigger::AtSite { site, .. } = plan.trigger() else {
        unreachable!("parse_target builds labeled plans")
    };
    match site.subsystem() {
        _ if reorder => selftest::run_group_workload(plan, true),
        "mt-group" | "bbox" => run_mt_smoke(plan, true),
        s if s.starts_with("mt-") || s == "ckpt" => run_mt_smoke(plan, false),
        _ => run_seq_smoke(plan),
    }
}

/// `--cap`'s value: an integer ≥ 1. A cap of 0 would run the observe pass
/// and no targeted case — a green run that crashed nothing.
fn parse_cap(v: &str) -> Result<u64, String> {
    match v.parse() {
        Ok(cap) if cap >= 1 => Ok(cap),
        _ => Err(format!("usage: crashenum --cap N (an integer >= 1), got {v:?}")),
    }
}

/// Labeled-site hits the observe pass(es) behind `report` counted. The
/// runtimes never count these themselves (a disarmed crash point is a
/// single flag check), so the figure is exactly the enumeration's doing.
/// The `seq` workload's figure is deterministic; the `mt` workloads
/// interleave real threads, so theirs, and the total, vary run to run.
fn crash_points(report: &EnumReport) -> u64 {
    report.discovered.iter().map(|&(_, n)| n).sum()
}

/// One workload's enumeration, tagged for the merged report.
fn workload(
    name: &'static str,
    cap: u64,
    run: impl FnMut(CrashPlan) -> Result<RunSummary, String>,
) -> Result<(EnumReport, &'static str), String> {
    let cfg = EnumConfig { max_hits_per_site: cap, ..EnumConfig::new(REPRO) };
    enumerate(&cfg, run).map(|r| (r, name)).map_err(|e| format!("{name}: {e}"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("crashenum: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let reorder = args.reorder;
    if let Some(target) = args.target {
        let summary = replay(&target, reorder).unwrap_or_else(|e| {
            eprintln!("{target}: {e}");
            std::process::exit(1)
        });
        let fired_at = summary.fired_at.map_or(String::new(), |(s, h)| format!("{s}:{h}"));
        println!(r#"{{"bench":"crashenum_target","target":"{target}","fired_at":"{fired_at}"}}"#);
        return;
    }
    if reorder {
        std::process::exit(selftest_reorder());
    }
    if args.forensics {
        std::process::exit(selftest_forensics());
    }
    let cap = args.cap.map_or(Ok(8), |v| parse_cap(&v)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });

    let mut merged = EnumReport::default();
    let mut workload_lines = Vec::new();
    let runs = [
        workload("seq", cap, run_seq_smoke),
        workload("mt", cap, |plan| run_mt_smoke(plan, false)),
        workload("mt-group", cap, |plan| run_mt_smoke(plan, true)),
    ];
    for res in runs {
        let (report, name) = match res {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("observe pass failed: {e}");
                std::process::exit(1);
            }
        };
        let points = crash_points(&report);
        workload_lines.push((
            name,
            report.cases.len(),
            report.fired_cases(),
            points,
            report.passed(),
        ));
        merged.merge(report);
    }

    let visited = merged.visited();
    let all_subsystems: Vec<&str> = {
        let mut v: Vec<&str> = sites::ALL.iter().map(|s| s.subsystem()).collect();
        v.dedup();
        v
    };
    let unvisited = merged.unvisited(&all_subsystems);

    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "crashenum")
        .field_u64("sites_total", sites::ALL.len() as u64)
        .field_u64("sites_visited", visited.len() as u64)
        .field_u64("cases", merged.cases.len() as u64)
        .field_u64("fired_cases", merged.fired_cases() as u64)
        .field_u64("crash_points", crash_points(&merged))
        .field_bool("passed", merged.passed() && unvisited.is_empty());
    w.begin_array_field("workloads");
    for (name, cases, fired, points, passed) in &workload_lines {
        w.begin_object()
            .field_str("name", name)
            .field_u64("cases", *cases as u64)
            .field_u64("fired_cases", *fired as u64)
            .field_u64("crash_points", *points)
            .field_bool("passed", *passed)
            .end_object();
    }
    w.end_array();
    w.begin_array_field("subsystems");
    for &sub in &all_subsystems {
        let in_sub = |s: &Site| s.subsystem() == sub;
        let sites_n = sites::ALL.iter().filter(|s| in_sub(s)).count();
        let visited_n = visited.iter().filter(|s| in_sub(s)).count();
        let cases = merged.cases.iter().filter(|c| c.site.as_ref().is_some_and(in_sub)).count();
        let failed = merged.failures().filter(|c| c.site.as_ref().is_some_and(in_sub)).count();
        w.begin_object()
            .field_str("name", sub)
            .field_u64("sites", sites_n as u64)
            .field_u64("visited", visited_n as u64)
            .field_u64("cases", cases as u64)
            .field_bool("passed", failed == 0)
            .end_object();
    }
    w.end_array();
    w.begin_array_field("unvisited");
    for site in &unvisited {
        w.value_str(site.name());
    }
    w.end_array();
    w.end_object();
    println!("{}", w.finish());

    let mut failed = false;
    for line in merged.failure_lines() {
        eprintln!("{line}");
        failed = true;
    }
    if !unvisited.is_empty() {
        eprintln!(
            "unvisited labeled sites: {:?}",
            unvisited.iter().map(|s| s.name()).collect::<Vec<_>>()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_replays_the_named_crash_on_the_smoke_workload_that_reaches_it() {
        let summary = replay("seq/commit/fence:1", false).expect("recovery holds at the fence");
        assert_eq!(summary.fired_at, Some((Site::SeqCommitFence, 1)), "seq targets always fire");
        // An MT target either fires exactly where it was aimed or races
        // past and verifies the orderly shutdown; both recover.
        let summary = replay("mt/group/pre_fence:1", false).expect("recovery holds pre-fence");
        assert!(summary.fired_at.is_none_or(|at| at == (Site::MtGroupPreFence, 1)));
        assert!(replay("no/such/site:1", false).is_err(), "a bad target is an error, not a run");
        // The toy workload's injected bug bites at exactly this point.
        assert!(replay("mt/group/pre_fence:1", true).is_err());
    }

    #[test]
    fn cap_must_be_a_positive_integer() {
        assert_eq!(parse_cap("2"), Ok(2));
        assert!(parse_cap("0").is_err(), "a zero cap crashes nothing");
        assert!(parse_cap("abc").is_err());
    }

    #[test]
    fn only_known_arguments_parse() {
        let args = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let want =
            Args { target: Some("seq/commit/fence:1".into()), reorder: true, ..Args::default() };
        assert_eq!(args(&["--selftest-reorder", "--target", "seq/commit/fence:1"]), Ok(want));
        assert_eq!(args(&["--cap", "2"]).map(|a| a.cap), Ok(Some("2".into())));
        assert!(args(&["--cap"]).is_err(), "a flag that takes a value must get one");
        assert!(args(&["--cap", "2", "--chek"]).is_err(), "a misspelt flag is an error");
    }
}
