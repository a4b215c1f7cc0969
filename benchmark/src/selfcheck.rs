//! `benchmark selfcheck`: does the benchmark repeat?
//!
//! Runs every workload twice, each run in a fresh process, and holds the
//! two result lines against each other: a deterministic metric may not
//! differ at all, any other may not differ by more than its own bound.

use std::process::Command;

use crate::harness::Plan;
use crate::report::{count_in, end_to_end, value_in, DETERMINISTIC};

/// One untraced run of `workload` in a child process; its result line.
fn child_run(workload: &str, plan: &Plan) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()]);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}:\n{stdout}", out.status));
    }
    stdout.lines().last().map(str::to_string).ok_or_else(|| format!("{workload} printed nothing"))
}

/// Compares two result lines; prints them side by side. Returns whether
/// they agree.
fn compare(workload: &str, a: &str, b: &str) -> bool {
    let mut ok = true;
    println!("{workload}");
    for field in ["attempted", "failed"] {
        let (x, y) = (count_in(a, field), count_in(b, field));
        println!("  {field:<24} {:>20} {:>20}", x.unwrap_or(0), y.unwrap_or(0));
        ok &= x.is_some() && y.is_some();
    }
    ok &= count_in(a, "failed") == Some(0) && count_in(b, "failed") == Some(0);
    for def in end_to_end() {
        let (Some(x), Some(y)) = (value_in(a, &def.name), value_in(b, &def.name)) else {
            println!("  {:<24} missing from a result line", def.name);
            ok = false;
            continue;
        };
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        let verdict = if DETERMINISTIC.contains(&def.name.as_str()) {
            if x == y {
                "identical"
            } else {
                ok = false;
                "DIFFERS (must be identical)"
            }
        } else if (x - y).abs() <= bound * x.min(y) {
            "within bound"
        } else {
            ok = false;
            "OUTSIDE BOUND"
        };
        println!(
            "  {:<24} {x:>20.4} {y:>20.4}  {:>+7.2}%  {verdict} ({} {:.0}%)",
            def.name,
            (y / x - 1.0) * 100.0,
            def.unit,
            bound * 100.0
        );
    }
    ok
}

/// Runs the check over `workloads`; `false` if any pair disagrees.
pub fn run(workloads: &[&str], plan: &Plan) -> bool {
    let mut ok = true;
    for workload in workloads {
        match (child_run(workload, plan), child_run(workload, plan)) {
            (Ok(a), Ok(b)) => ok &= compare(workload, &a, &b),
            (Err(why), _) | (_, Err(why)) => {
                println!("{workload}: {why}");
                ok = false;
            }
        }
    }
    println!("selfcheck: {}", if ok { "the benchmark repeats" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, Outcome};

    fn line(host: f64, sim: f64) -> String {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for def in end_to_end() {
            o.set(def.name, 1.0);
        }
        o.set("host_ns_per_op", host);
        o.set("sim_ns_per_op", sim);
        result_line(&o, &end_to_end())
    }

    #[test]
    fn host_metrics_get_their_bound_and_deterministic_ones_get_none() {
        assert!(compare("w", &line(100.0, 5.0), &line(124.0, 5.0)));
        assert!(!compare("w", &line(100.0, 5.0), &line(127.0, 5.0)), "27 % is outside 25 %");
        assert!(!compare("w", &line(100.0, 5.0), &line(100.0, 5.000001)));
    }
}
