//! `crashenum`: deterministic crash-point enumeration driver.
//!
//! Drives the canonical smoke workloads
//! ([`specpmt_core::crashsmoke`]) through the FIRST-style enumerator
//! ([`specpmt_txn::enumerate`]): one sequential [`SpecSpmt`] workload with
//! inline reclamation, plus the 4-thread [`SpecSpmtShared`] workload with
//! group commit off *and* on (the two commit paths reach disjoint `mt/*`
//! sites). Every labeled crash site each workload reaches is crashed at
//! deterministically, recovered, and verified; the merged coverage is
//! printed as one JSON line with a per-subsystem breakdown:
//!
//! ```json
//! {"bench":"crashenum","sites_total":18,"sites_visited":18,"passed":true,
//!  "subsystems":[{"name":"seq-commit","sites":4,"visited":4,...},...]}
//! ```
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
//! group-commit workload ([`specpmt_txn::crashenum::selftest`], receipt
//! persisted *before* the batch fence) and exits zero only when the
//! enumerator catches the bug and names the violated fence site — CI runs
//! this as a must-fail check on the harness itself.
//!
//! `--selftest-forensics` validates the flight-recorder decode end to
//! end: a correct group-commit run crashed at `mt/group/pre_fence` must
//! decode to a **clean** [`ForensicReport`], while the same run with
//! PR 7's receipt-before-fence bug forged from outside (a durable receipt
//! for the commit about to crash) must produce a report whose violation
//! names `mt/group/pre_fence`. Exits zero only when both arms behave.
//!
//! `--cap N` bounds targeted runs per site (default 8); CI uses a small
//! cap to keep the smoke tier fast.
//!
//! [`ForensicReport`]: specpmt_core::ForensicReport
//!
//! [`SpecSpmt`]: specpmt_core::SpecSpmt
//! [`SpecSpmtShared`]: specpmt_core::SpecSpmtShared

use specpmt_core::crashsmoke::{run_mt_smoke, run_seq_smoke};
use specpmt_pmem::{sites, CrashPlan};
use specpmt_telemetry::{JsonWriter, Metric, Registry};
use specpmt_txn::crashenum::selftest;
use specpmt_txn::{enumerate, EnumConfig, EnumReport, RunSummary};

/// What every repro line starts with (the enumerator appends the target).
const REPRO: &str = "cargo run --release -q -p specpmt-bench --bin crashenum --";

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
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
    let named: Vec<&str> = report.failures().filter_map(|c| c.site).collect();
    let fence_named = named.contains(&"mt/group/pre_fence");
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("bench", "crashenum_selftest")
        .field_bool("bug_caught", caught)
        .field_bool("fence_site_named", fence_named);
    w.begin_array_field("failure_sites");
    for s in &named {
        w.value_str(s);
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
    use specpmt_pmem::CrashControl;
    use specpmt_telemetry::BbKind;
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
        // PR 7's receipt-before-fence bug, forged through public API: the
        // next commit's receipt is durable before that commit fences.
        let site = sites::index_of("mt/group/pre_fence").expect("known site") as u64;
        h.record_event(BbKind::TxCommit, last_ts + 1, site, 1);
        rt.device().flush_everything();
    }
    // Crash the next commit at the pre-fence point: its record is
    // appended but unfenced. Correct run → no receipt exists yet → clean
    // report. Forged run → the receipt outruns the durability frontier →
    // violation at this site.
    rt.device().arm(CrashPlan::parse_target("mt/group/pre_fence:1").expect("known site"));
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
    let site_named = buggy.violations.iter().any(|v| v.site == "mt/group/pre_fence");
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
    let (name, _) = target.rsplit_once(':').expect("parse_target checked the form");
    match sites::lookup(name).expect("parse_target checked the site").subsystem {
        _ if reorder => selftest::run_group_workload(plan, true),
        "mt-group" | "bbox" => run_mt_smoke(plan, true),
        s if s.starts_with("mt-") || s == "ckpt" => run_mt_smoke(plan, false),
        _ => run_seq_smoke(plan),
    }
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reorder = args.iter().any(|a| a == "--selftest-reorder");
    if let Some(target) = arg_value(&args, "--target") {
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
    if args.iter().any(|a| a == "--selftest-forensics") {
        std::process::exit(selftest_forensics());
    }
    let cap: u64 = arg_value(&args, "--cap").map_or(8, |v| v.parse().expect("--cap takes a u64"));

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
        workload_lines.push((name, report.cases.len(), report.fired_cases(), report.passed()));
        merged.merge(report);
    }

    // Harness-side telemetry: total labeled-site hits observed while
    // armed. The runtimes never record this metric themselves (a disarmed
    // crash point is a single flag check), so the counter is exactly the
    // enumeration's doing.
    let registry = Registry::new(1);
    registry.set_enabled(true);
    let total_hits: u64 = merged.discovered.iter().map(|&(_, n)| n).sum();
    registry.add(0, Metric::CrashPoints, total_hits);

    let visited = merged.visited();
    let all_subsystems: Vec<&str> = {
        let mut v: Vec<&str> = sites::ALL.iter().map(|s| s.subsystem).collect();
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
        .field_u64("crash_points", registry.counter(Metric::CrashPoints))
        .field_bool("passed", merged.passed() && unvisited.is_empty());
    w.begin_array_field("workloads");
    for (name, cases, fired, passed) in &workload_lines {
        w.begin_object()
            .field_str("name", name)
            .field_u64("cases", *cases as u64)
            .field_u64("fired_cases", *fired as u64)
            .field_bool("passed", *passed)
            .end_object();
    }
    w.end_array();
    w.begin_array_field("subsystems");
    for &sub in &all_subsystems {
        let in_sub: Vec<_> = sites::ALL.iter().filter(|s| s.subsystem == sub).collect();
        let visited_n = in_sub.iter().filter(|s| visited.contains(&s.name)).count();
        let cases = merged
            .cases
            .iter()
            .filter(|c| c.site.is_some_and(|n| in_sub.iter().any(|s| s.name == n)))
            .count();
        let failed = merged
            .failures()
            .filter(|c| c.site.is_some_and(|n| in_sub.iter().any(|s| s.name == n)))
            .count();
        w.begin_object()
            .field_str("name", sub)
            .field_u64("sites", in_sub.len() as u64)
            .field_u64("visited", visited_n as u64)
            .field_u64("cases", cases as u64)
            .field_bool("passed", failed == 0)
            .end_object();
    }
    w.end_array();
    w.begin_array_field("unvisited");
    for site in &unvisited {
        w.value_str(site.name);
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
            unvisited.iter().map(|s| s.name).collect::<Vec<_>>()
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
        assert_eq!(summary.fired_at, Some(("seq/commit/fence", 1)), "seq targets always fire");
        // An MT target either fires exactly where it was aimed or races
        // past and verifies the orderly shutdown; both recover.
        let summary = replay("mt/group/pre_fence:1", false).expect("recovery holds pre-fence");
        assert!(summary.fired_at.is_none_or(|at| at == ("mt/group/pre_fence", 1)));
        assert!(replay("no/such/site:1", false).is_err(), "a bad target is an error, not a run");
        // The toy workload's injected bug bites at exactly this point.
        assert!(replay("mt/group/pre_fence:1", true).is_err());
    }
}
