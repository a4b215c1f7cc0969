//! Deterministic PRNG and hashing helpers shared by the workloads.

/// SplitMix64: tiny, fast, deterministic PRNG — every workload is seeded so
/// runs are byte-reproducible across runtimes (required for verification
/// against the volatile reference execution). The workspace's one mixer,
/// with this crate's own seeding offset and reductions.
#[derive(Debug, Clone)]
pub struct SplitMix64(specpmt_pmem::SplitMix64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(specpmt_pmem::SplitMix64::new(seed.wrapping_add(specpmt_pmem::SplitMix64::GAMMA)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Allocates and persists a zeroed region during an untimed setup phase.
///
/// # Panics
///
/// Panics if the pool heap cannot hold the region.
pub fn setup_region<A: specpmt_txn::TxAccess>(rt: &mut A, bytes: usize, align: usize) -> usize {
    rt.setup_alloc(bytes, align)
}

/// 64-bit FNV-1a (workload-side key hashing).
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn unit_f32_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = r.unit_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
