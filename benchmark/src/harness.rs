//! What every workload shares: the run plan, repeated set-up, the
//! measurement loop's stopping rule, and the process-level readings.

use std::time::Instant;

use crate::alloc::AllocCount;

/// How one invocation is to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub seed: u64,
    /// Wall-clock length of the measured phase.
    pub seconds: f64,
    /// The separate traced run that reports the per-layer metrics.
    pub trace: bool,
    /// A fiftieth of the time, segment minimums waived: for `check.sh`
    /// and the tests, never for numbers anyone compares.
    pub smoke: bool,
}

impl Plan {
    /// The measured phase's length after the smoke reduction.
    pub fn budget_s(&self) -> f64 {
        if self.smoke {
            self.seconds / 50.0
        } else {
            self.seconds
        }
    }

    /// `full` schedule cycles, or one under `--smoke`.
    pub fn min_cycles(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// How often a workload's set-up procedure is executed per run.
pub const SETUP_RUNS: usize = 5;

/// Executes `setup` [`SETUP_RUNS`] times back to back, tearing down all
/// but the last, and returns the last state with the median duration in
/// seconds. Set-up is one-shot by nature, so one execution would report
/// whatever the host was doing in that half second.
pub fn setup_repeated<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(SETUP_RUNS);
    let mut state = None;
    for _ in 0..SETUP_RUNS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (state.expect("SETUP_RUNS is at least one"), secs[secs.len() / 2])
}

/// Times one call into the program: host nanoseconds and what it
/// allocated. Nothing but `f` runs between the two clock reads.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, AllocCount) {
    let a0 = AllocCount::now();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    (out, ns, AllocCount::now().since(a0))
}

/// The measurement loop's stopping rule: whole schedule cycles until the
/// time budget is spent, and never fewer than `min_cycles`.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    budget_s: f64,
    min_cycles: usize,
}

impl Clock {
    pub fn start(budget_s: f64, min_cycles: usize) -> Self {
        Self { start: Instant::now(), budget_s, min_cycles }
    }

    pub fn another_cycle(&self, cycles_done: usize) -> bool {
        cycles_done < self.min_cycles || self.start.elapsed().as_secs_f64() < self.budget_s
    }
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 finalizer: spreads a small `--seed` over all 64 bits before
/// it is mixed into the program's own input seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_honours_the_cycle_minimum_even_with_no_time() {
        let c = Clock::start(0.0, 3);
        assert!(c.another_cycle(0));
        assert!(c.another_cycle(2));
        assert!(!c.another_cycle(3));
    }

    #[test]
    fn setup_runs_the_procedure_the_stated_number_of_times() {
        let mut runs = 0;
        let (state, secs) = setup_repeated(|| {
            runs += 1;
            runs
        });
        assert_eq!((state, runs), (SETUP_RUNS, SETUP_RUNS));
        assert!(secs >= 0.0);
    }

    #[test]
    fn smoke_waives_minimums_and_shrinks_the_budget() {
        let plan = Plan { seed: 1, seconds: 10.0, trace: false, smoke: true };
        assert_eq!(plan.min_cycles(60), 1);
        assert!((plan.budget_s() - 0.2).abs() < 1e-12);
        let full = Plan { smoke: false, ..plan };
        assert_eq!(full.min_cycles(60), 60);
        assert_eq!(full.budget_s(), 10.0);
    }
}
