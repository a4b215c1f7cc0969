//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds offline with **zero** registry dependencies, so the
//! bench targets cannot use `criterion`. This harness provides what the
//! experiments need and nothing more: median-of-K wall-clock samples with a
//! machine-readable JSON line per result.
//!
//! Bench targets declare `harness = false` and run under both `cargo bench`
//! and `cargo test` (cargo executes bench binaries with `--test` in the
//! latter). [`smoke_mode`] detects that case so mains can shrink their
//! workloads to a smoke check and keep the test suite fast.

use std::time::Instant;

/// `true` when the binary should run a fast smoke pass rather than a full
/// measurement: under `cargo test` (cargo passes `--test` to `harness =
/// false` bench targets) or when `--smoke` is on the command line.
pub fn smoke_mode() -> bool {
    std::env::args().skip(1).any(|a| a == "--test" || a == "--smoke")
}

/// One benchmark's samples. `samples[i]` is the wall-clock nanoseconds of
/// one sample of `iters` iterations.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name (printed in the JSON line).
    pub name: String,
    /// Per-sample wall-clock nanoseconds.
    pub samples: Vec<u64>,
    /// Iterations per sample.
    pub iters: u64,
}

impl BenchReport {
    /// Median sample in nanoseconds.
    pub fn median_ns(&self) -> u64 {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }

    /// Fastest sample in nanoseconds.
    pub fn min_ns(&self) -> u64 {
        *self.samples.iter().min().expect("at least one sample")
    }

    /// Slowest sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        *self.samples.iter().max().expect("at least one sample")
    }

    /// Median nanoseconds per iteration.
    pub fn per_iter_ns(&self) -> f64 {
        self.median_ns() as f64 / self.iters as f64
    }

    /// Prints the result as one JSON line on stdout:
    /// `{"bench":NAME,"iters":N,"median_ns":...,"min_ns":...,"max_ns":...,"per_iter_ns":...}`.
    pub fn emit(&self) {
        println!(
            "{{\"bench\":\"{}\",\"iters\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"per_iter_ns\":{:.1}}}",
            self.name,
            self.iters,
            self.median_ns(),
            self.min_ns(),
            self.max_ns(),
            self.per_iter_ns(),
        );
    }
}

/// Times `iters` calls of `f` per sample, `samples` times (after one
/// untimed warm-up iteration), and emits the JSON line.
///
/// # Panics
///
/// Panics if `samples` or `iters` is zero.
pub fn bench<F: FnMut()>(name: &str, samples: usize, iters: u64, mut f: F) -> BenchReport {
    assert!(samples > 0 && iters > 0, "empty benchmark");
    f(); // warm-up
    let samples: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    let report = BenchReport { name: name.to_string(), samples, iters };
    report.emit();
    report
}

/// Like [`bench`], but each sample runs `setup()` untimed and then times a
/// single `routine(input)` call — for benchmarks whose routine consumes its
/// input (e.g. recovery over a crash image).
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn bench_with_setup<T, S, R>(
    name: &str,
    samples: usize,
    mut setup: S,
    mut routine: R,
) -> BenchReport
where
    S: FnMut() -> T,
    R: FnMut(T),
{
    assert!(samples > 0, "empty benchmark");
    routine(setup()); // warm-up
    let samples: Vec<u64> = (0..samples)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            routine(input);
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    let report = BenchReport { name: name.to_string(), samples, iters: 1 };
    report.emit();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_are_ordered() {
        let r = BenchReport { name: "t".into(), samples: vec![30, 10, 20], iters: 2 };
        assert_eq!(r.median_ns(), 20);
        assert_eq!(r.min_ns(), 10);
        assert_eq!(r.max_ns(), 30);
        assert!((r.per_iter_ns() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bench_runs_requested_counts() {
        let mut calls = 0u64;
        let r = bench("count", 3, 5, || calls += 1);
        // 1 warm-up + 3 samples * 5 iters.
        assert_eq!(calls, 16);
        assert_eq!(r.samples.len(), 3);
    }

    #[test]
    fn bench_with_setup_times_routine_only() {
        let mut setups = 0u64;
        let r = bench_with_setup(
            "setup",
            2,
            || {
                setups += 1;
                42u64
            },
            |v| assert_eq!(v, 42),
        );
        assert_eq!(setups, 3); // warm-up + 2 samples
        assert_eq!(r.iters, 1);
    }
}
