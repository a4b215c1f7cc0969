//! Deterministic zipfian open-loop load generation.
//!
//! The generator follows the classic Gray et al. / YCSB construction: a
//! rank sampler whose inverse-CDF approximation needs only the
//! precomputed harmonic sums `zeta(2, θ)` and `zeta(n, θ)`, driven by a
//! [`SplitMix64`] stream so the same seed replays a bit-identical op
//! sequence on any host. θ = 0 degenerates to the uniform distribution;
//! θ = 0.99 is the YCSB default "skewed" workload where a handful of hot
//! keys absorb most of the traffic.
//!
//! Ranks are scrambled through a fixed 64-bit mix before being reduced to
//! the key space, so the popular keys are scattered across the table (and
//! across shards) instead of clustering at low addresses.

use specpmt_pmem::SplitMix64;

/// The five operation classes the KV front-end serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point lookup.
    Get,
    /// Insert-or-update.
    Put,
    /// Tombstone the key.
    Delete,
    /// Compare-and-swap on the current value.
    Cas,
    /// Bounded snapshot of a tenant's keys near a probe point.
    Scan,
}

/// Every class, in the order used by stats arrays and JSON keys.
pub const OP_CLASSES: [OpClass; 5] =
    [OpClass::Get, OpClass::Put, OpClass::Delete, OpClass::Cas, OpClass::Scan];

impl OpClass {
    /// Stable lowercase name, used in telemetry and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Put => "put",
            OpClass::Delete => "delete",
            OpClass::Cas => "cas",
            OpClass::Scan => "scan",
        }
    }

    /// Index into [`OP_CLASSES`]-ordered arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Delete => 2,
            OpClass::Cas => 3,
            OpClass::Scan => 4,
        }
    }
}

/// Operation-class percentages; must sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percent of ops that are point lookups.
    pub get_pct: u32,
    /// Percent of ops that are inserts/updates.
    pub put_pct: u32,
    /// Percent of ops that are deletes.
    pub delete_pct: u32,
    /// Percent of ops that are compare-and-swaps.
    pub cas_pct: u32,
    /// Percent of ops that are scans.
    pub scan_pct: u32,
}

impl Default for OpMix {
    /// A read-mostly service mix: 70% get, 20% put, 2% delete, 5% cas,
    /// 3% scan.
    fn default() -> Self {
        Self { get_pct: 70, put_pct: 20, delete_pct: 2, cas_pct: 5, scan_pct: 3 }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.get_pct + self.put_pct + self.delete_pct + self.cas_pct + self.scan_pct
    }

    fn pick(&self, roll: u32) -> OpClass {
        let mut edge = self.get_pct;
        if roll < edge {
            return OpClass::Get;
        }
        edge += self.put_pct;
        if roll < edge {
            return OpClass::Put;
        }
        edge += self.delete_pct;
        if roll < edge {
            return OpClass::Delete;
        }
        edge += self.cas_pct;
        if roll < edge {
            return OpClass::Cas;
        }
        OpClass::Scan
    }
}

/// Gray et al. zipfian rank sampler over `0..n`.
///
/// Rank 0 is the most popular; the probability of rank `i` is
/// proportional to `1 / (i+1)^θ`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Precomputes the harmonic sums for a key space of `n` ranks at skew
    /// `theta` (0 ≤ θ < 1; θ = 0 is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian key space must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1), got {theta}");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self { n, alpha, zetan, eta, half_pow_theta: 0.5f64.powf(theta) }
    }

    /// Draws the next rank in `0..n` (0 = hottest).
    pub fn next_rank(&self, rng: &mut SplitMix64) -> u64 {
        // 53 uniform bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    /// Issuing tenant.
    pub tenant: u32,
    /// Operation class.
    pub class: OpClass,
    /// Target key (already scrambled into the key space).
    pub key: u64,
    /// Payload for put / the proposed value for cas; scan limit for scans.
    pub value: u64,
}

/// Parameters of a deterministic load stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// PRNG seed; equal seeds yield bit-identical op streams.
    pub seed: u64,
    /// Number of tenants (round-robin-uniform across ops).
    pub tenants: u32,
    /// Distinct keys per tenant.
    pub key_space: u64,
    /// Zipfian skew θ in `[0, 1)`.
    pub theta: f64,
    /// Operation-class percentages.
    pub mix: OpMix,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self { seed: 0x5EED_CAFE, tenants: 2, key_space: 8192, theta: 0.99, mix: OpMix::default() }
    }
}

/// Deterministic open-loop op-stream generator.
///
/// "Open loop" here means the stream is independent of service feedback:
/// the generator never waits on completions, so under overload the service
/// must shed (reject) rather than silently slow the offered rate.
#[derive(Debug, Clone)]
pub struct LoadGen {
    spec: WorkloadSpec,
    zipf: Zipfian,
    rng: SplitMix64,
}

impl LoadGen {
    /// Builds the generator; precomputes the zipfian tables once.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not sum to 100, `tenants` is zero, or the
    /// zipfian parameters are out of range.
    pub fn new(spec: WorkloadSpec) -> Self {
        assert_eq!(spec.mix.total(), 100, "op mix percentages must sum to 100");
        assert!(spec.tenants > 0, "at least one tenant");
        let zipf = Zipfian::new(spec.key_space, spec.theta);
        let rng = SplitMix64::new(spec.seed);
        Self { spec, zipf, rng }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draws the next request.
    pub fn next_op(&mut self) -> KvOp {
        let tenant = self.rng.below(self.spec.tenants as u64) as u32;
        let class = self.spec.mix.pick(self.rng.below(100) as u32);
        let rank = self.zipf.next_rank(&mut self.rng);
        let key = SplitMix64::mix(rank) % self.spec.key_space;
        let value = match class {
            // Bounded scans: 1..=8 entries.
            OpClass::Scan => 1 + self.rng.below(8),
            _ => self.rng.next_u64(),
        };
        KvOp { tenant, class, key, value }
    }

    /// Draws the next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<KvOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight recorder names an in-flight op by the code kv stores in
    /// its `aux` byte; that name is the op class's stats name.
    #[test]
    fn recorder_op_names_match_stats_names() {
        for c in OP_CLASSES {
            assert_eq!(specpmt_pmem::blackbox::kv_op_name(c.index() as u8), c.as_str());
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let spec = WorkloadSpec { seed: 42, ..WorkloadSpec::default() };
        let a = LoadGen::new(spec).take(1000);
        let b = LoadGen::new(spec).take(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_diverges() {
        let a = LoadGen::new(WorkloadSpec { seed: 1, ..WorkloadSpec::default() }).take(64);
        let b = LoadGen::new(WorkloadSpec { seed: 2, ..WorkloadSpec::default() }).take(64);
        assert_ne!(a, b);
    }

    fn rank_counts(theta: f64, draws: usize) -> Vec<u64> {
        let z = Zipfian::new(1024, theta);
        let mut rng = SplitMix64::new(0xFEED);
        let mut counts = vec![0u64; 1024];
        for _ in 0..draws {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let counts = rank_counts(0.0, 200_000);
        let expected = 200_000.0 / 1024.0;
        // Every rank within ±50% of the uniform expectation — far looser
        // than the binomial bound, so it never flakes, yet far tighter
        // than any zipfian skew would allow for the head ranks.
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.5,
                "rank {rank}: {c} draws vs uniform expectation {expected:.0}"
            );
        }
    }

    #[test]
    fn theta_099_is_head_heavy_and_rank_ordered() {
        let counts = rank_counts(0.99, 200_000);
        // Rank 0 dominates: at θ=0.99 over a 1024-key space it should
        // hold roughly 1/zeta(1024, .99) ≈ 12% of the mass.
        assert!(counts[0] > 15_000, "rank 0 drew only {}", counts[0]);
        // Frequency must (weakly) follow rank order across decades.
        assert!(counts[0] > counts[7] && counts[7] > counts[63] && counts[63] > counts[511]);
        // And the head must crush the uniform expectation.
        assert!(counts[0] > 10 * (200_000 / 1024));
    }

    #[test]
    fn ops_respect_spec_bounds() {
        let spec = WorkloadSpec { tenants: 3, key_space: 512, ..WorkloadSpec::default() };
        let mut g = LoadGen::new(spec);
        for _ in 0..2000 {
            let op = g.next_op();
            assert!(op.tenant < 3);
            assert!(op.key < 512);
            if op.class == OpClass::Scan {
                assert!((1..=8).contains(&op.value));
            }
        }
    }

    #[test]
    fn mix_is_respected_within_tolerance() {
        let mut g = LoadGen::new(WorkloadSpec::default());
        let mut per_class = [0u64; 5];
        let n = 100_000;
        for _ in 0..n {
            per_class[g.next_op().class.index()] += 1;
        }
        let pct = |c: u64| c as f64 * 100.0 / n as f64;
        assert!((pct(per_class[0]) - 70.0).abs() < 2.0, "get {}", per_class[0]);
        assert!((pct(per_class[1]) - 20.0).abs() < 2.0, "put {}", per_class[1]);
        assert!((pct(per_class[3]) - 5.0).abs() < 1.0, "cas {}", per_class[3]);
    }
}
