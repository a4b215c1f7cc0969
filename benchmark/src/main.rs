//! The two-clock benchmark: five single-threaded workloads measured on
//! the simulated clock (deterministic) and on the host clock (fast
//! decile of equal segments), plus a traced run that attributes the cost
//! to layers from outside the program. See `README.md`.

mod alloc;
mod estimator;
mod harness;
mod kv;
mod ladder;
mod layers;
mod probes;
mod recovery;
mod report;
mod selfcheck;
mod stamp;
mod timed;

use std::process::ExitCode;

use harness::Plan;
use report::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seconds one run measures when `--seconds` is not given; also written
/// to `BENCHMARK.json` as `run_seconds`.
const RUN_SECONDS: u32 = 10;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The workloads and why each exists (the `why` of `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 5] = [
    (
        "stamp_sw",
        "Fig. 12 headline: 9 STAMP apps on sequential SpecSpmt; all time is core::runtime + PmemDevice, so kv, 2PL and the shared device do no work here",
    ),
    (
        "stamp_hw",
        "Fig. 13 path: the same apps on HwSpecPmt; hwsim cache/TLB + hwtx::spec do the work and the software runtime none, so a core change must not show",
    ),
    (
        "kv_read",
        "service path (kv, 2PL, SpecSpmtShared, SharedPmemDevice) under read-only transactions on a hot skewed key set: 90% get, zipf 0.99",
    ),
    (
        "kv_write",
        "the same layers used the other way: write-sets, checksums, log growth and compaction (put 50, cas 25, delete 10, get 15, zipf 0.6)",
    ),
    (
        "recovery",
        "time-to-recover a 32-chain 65k-record image through the default serial entry: only core::recovery/record parse, checkpoint and replay run",
    ),
];

fn run_workload(name: &str, plan: &Plan) -> Option<Outcome> {
    Some(match name {
        "stamp_sw" => stamp::run_sw(plan),
        "stamp_hw" => stamp::run_hw(plan),
        "kv_read" => kv::run(&kv::READ, plan),
        "kv_write" => kv::run(&kv::WRITE, plan),
        "recovery" => recovery::run(plan),
        _ => return None,
    })
}

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark selfcheck [--seed N] [--seconds S] [--smoke]
  benchmark manifest        print BENCHMARK.json from the metric catalogue
  benchmark names           print workload and metric names, one per line
workloads: stamp_sw stamp_hw kv_read kv_write recovery";

struct Cli {
    workload: Option<String>,
    plan: Plan,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        plan: Plan {
            seed: DEFAULT_SEED,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.plan.seconds = s;
            }
            "--trace" => {
                cli.plan.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => cli.plan.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn print_outcome(name: &str, plan: &Plan, outcome: &Outcome) {
    let defs = if plan.trace { report::per_layer() } else { report::end_to_end() };
    println!(
        "workload {name} seed {} seconds {} trace {} smoke {}",
        plan.seed, plan.seconds, plan.trace as u8, plan.smoke
    );
    for (def, value) in report::ordered(outcome, &defs) {
        println!("  {:<46} {value:>16.4} {}", def.name, def.unit);
    }
    println!("  ops_attempted {} ops_failed {}", outcome.attempted, outcome.failed);
    for why in &outcome.failures {
        println!("  FAILED: {why}");
    }
    for what in &outcome.warnings {
        println!("  WARNING: {what}");
    }
    println!("{}", report::result_line(outcome, &defs));
}

fn main() -> ExitCode {
    // The program reads `SPECPMT_*` knobs from the environment once, on
    // first use; the benchmark's configuration must not depend on them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SPECPMT_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("selfcheck" | "manifest" | "names")) => (cmd, &args[1..]),
        _ => ("run", &args[..]),
    };
    let cli = match parse(rest) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        "manifest" => print!("{}", report::manifest(&WORKLOADS, RUN_SECONDS)),
        "names" => {
            for (name, _) in WORKLOADS {
                println!("workload {name}");
            }
            for def in report::end_to_end() {
                println!("end_to_end {}", def.name);
            }
            for def in report::per_layer() {
                println!("per_layer {}", def.name);
            }
        }
        "selfcheck" => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            if !selfcheck::run(&names, &cli.plan) {
                return ExitCode::FAILURE;
            }
        }
        _ => {
            let Some(name) = cli.workload.as_deref() else {
                eprintln!("--workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let Some(outcome) = run_workload(name, &cli.plan) else {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            };
            print_outcome(name, &cli.plan, &outcome);
            if !outcome.correct() {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
