//! The host-time rule: segment classes and the fast-decile composite.
//!
//! On this box memory-bound code flips between a fast regime and one
//! about 40 % slower that lasts seconds, so the mean and even the median
//! of segment times move with how much of a run the slow regime covered.
//! The 10th percentile of a class's segment times is the program on the
//! undisturbed machine (a min-of-K that a single lucky segment cannot
//! set), and a workload's cost is those per-class fast times recombined
//! in the proportions of its schedule.

/// The quantile the host metric is built from.
pub const FAST_Q: f64 = 0.10;

/// A segment whose time exceeds its class's fast time by this factor is
/// counted as disturbed in `host.slow_segment_share`.
const SLOW_FACTOR: f64 = 1.25;

/// One kind of timed segment: every segment of a class does the same
/// amount of work, so their times differ only by what the host did.
#[derive(Debug, Clone)]
pub struct SegmentClass {
    pub name: &'static str,
    /// Segments of this class in one schedule cycle.
    pub per_cycle: f64,
    /// Host nanoseconds of every segment measured.
    pub ns: Vec<u64>,
}

impl SegmentClass {
    pub fn new(name: &'static str, per_cycle: f64) -> Self {
        Self { name, per_cycle, ns: Vec::new() }
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }

    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
    }
}

/// Linearly interpolated quantile of an ascending slice (0.0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Host cost per op of one schedule cycle when every class runs at its
/// `q`-quantile segment time.
pub fn composite(classes: &[SegmentClass], ops_per_cycle: f64, q: f64) -> f64 {
    classes.iter().map(|c| c.per_cycle * c.quantile(q)).sum::<f64>() / ops_per_cycle
}

/// The per-layer `host.*` view of the same segments: how far the run as a
/// whole sat from its fast decile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpread {
    pub fast_ns_per_op: f64,
    pub median_ns_per_op: f64,
    pub mean_over_fast: f64,
    pub slow_segment_share: f64,
}

pub fn host_spread(classes: &[SegmentClass], ops_per_cycle: f64) -> HostSpread {
    let fast = composite(classes, ops_per_cycle, FAST_Q);
    let mean = classes.iter().map(|c| c.per_cycle * c.mean()).sum::<f64>() / ops_per_cycle;
    let (mut slow, mut total) = (0usize, 0usize);
    for c in classes {
        let limit = c.quantile(FAST_Q) * SLOW_FACTOR;
        slow += c.ns.iter().filter(|&&ns| ns as f64 > limit).count();
        total += c.ns.len();
    }
    HostSpread {
        fast_ns_per_op: fast,
        median_ns_per_op: composite(classes, ops_per_cycle, 0.5),
        mean_over_fast: if fast > 0.0 { mean / fast } else { 0.0 },
        slow_segment_share: if total > 0 { slow as f64 / total as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &'static str, per_cycle: f64, ns: &[u64]) -> SegmentClass {
        SegmentClass { name, per_cycle, ns: ns.to_vec() }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<u64> = (0..=10).map(|i| i * 10).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.10), 10.0);
        assert_eq!(quantile(&v, 0.15), 15.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.1), 7.0);
    }

    #[test]
    fn composite_weights_classes_by_their_share_of_a_cycle() {
        // 5 op segments of 1000 ns and 2 reclaim segments of 500 ns per
        // cycle of 100 ops: (5*1000 + 2*500) / 100.
        let classes = [class("ops", 5.0, &[1000; 20]), class("reclaim", 2.0, &[500; 8])];
        assert_eq!(composite(&classes, 100.0, FAST_Q), 60.0);
    }

    #[test]
    fn fast_decile_ignores_a_slow_regime_and_a_lucky_outlier() {
        // 100 segments: one impossibly fast, 59 undisturbed at ~1000 ns,
        // 40 in a 40 % slower regime. The mean moves by 16 %, the fast
        // decile stays on the undisturbed cost.
        let mut ns = vec![100u64];
        ns.extend((0..59).map(|i| 1000 + i % 3));
        ns.extend(std::iter::repeat_n(1400, 40));
        let c = [class("ops", 1.0, &ns)];
        let fast = composite(&c, 1.0, FAST_Q);
        assert!((1000.0..=1002.0).contains(&fast), "{fast}");
        let spread = host_spread(&c, 1.0);
        assert!(spread.mean_over_fast > 1.14, "{spread:?}");
        assert!((spread.slow_segment_share - 0.40).abs() < 1e-9, "{spread:?}");
        assert!(spread.median_ns_per_op <= 1002.0);
    }
}
