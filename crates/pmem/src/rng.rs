//! A tiny deterministic pseudo-random number generator.
//!
//! The workspace is intentionally **zero-dependency** (the build must
//! succeed offline), so crash nondeterminism and test-stream generation use
//! this std-only [SplitMix64] generator instead of the `rand` crate. It is
//! seed-deterministic, passes through 64 bits of state per draw, and is
//! plenty for simulation nondeterminism — it is *not* cryptographic.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

/// Deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The state increment of every draw (2^64 / φ, odd).
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }

    /// The SplitMix64 finalizer: a bijective 64-bit scramble of `z`, what
    /// a draw returns for its state — also a hash of its own.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift reduction; bias is negligible for simulation use.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below((hi - lo) as u64 + 1) as usize
    }

    /// Fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_is_inclusive_and_covers_endpoints() {
        let mut r = SplitMix64::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range_usize(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn bools_are_mixed() {
        let mut r = SplitMix64::new(11);
        let trues = (0..1000).filter(|_| r.next_bool()).count();
        assert!((300..=700).contains(&trues), "suspicious coin: {trues}/1000");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn zero_bound_panics() {
        SplitMix64::new(0).below(0);
    }
}
