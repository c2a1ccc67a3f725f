//! Deterministic pseudo-random number generation.
//!
//! The simulator only needs modest statistical quality (arbitration jitter, workload value
//! initialisation) but it absolutely needs reproducibility: an experiment must produce identical
//! cycle counts on every run. [`SimRng`] implements the SplitMix64 generator, which is tiny,
//! fast, passes BigCrush when used as a 64-bit generator, and — unlike `rand`'s `StdRng` — is
//! guaranteed never to change behaviour underneath us.

/// A deterministic 64-bit pseudo-random number generator (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Two generators created from the same seed produce the
    /// same sequence forever.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift rejection-free mapping is fine for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range lo must not exceed hi");
        lo + self.below(hi - lo + 1)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`; NaN never succeeds).
    ///
    /// Exactly `self.next_f64() < p`, answered with an integer compare:
    /// `chance(p) == chance_below(chance_threshold(p))` for every `p` and every state.
    pub fn chance(&mut self, p: f64) -> bool {
        self.chance_below(Self::chance_threshold(p))
    }

    /// The integer form of a [`chance`](Self::chance) probability, for callers that draw many
    /// times against one `p`.
    ///
    /// [`next_f64`](Self::next_f64) is `m · 2⁻⁵³` for the 53-bit integer `m = next_u64() >> 11`,
    /// and scaling by a power of two is exact, so `m · 2⁻⁵³ < p` holds exactly when
    /// `m < ceil(p · 2⁵³)`. A NaN `p` maps to 0 (`as` saturates NaN to zero), matching the
    /// float compare, which is false for NaN.
    pub fn chance_threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// Draws once and returns `true` when the draw's top 53 bits fall below `threshold` — a
    /// [`chance`](Self::chance) draw with the probability already converted by
    /// [`chance_threshold`](Self::chance_threshold).
    pub fn chance_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }

    /// Derives an independent generator for a named sub-component.
    ///
    /// Mixing the label keeps component streams statistically decoupled even though they share
    /// a root seed, so adding a new consumer never perturbs existing ones.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let h = fnv1a(label);
        SimRng::new(self.next_u64() ^ h)
    }

    /// Derives the generator for element `index` of a named stream family **without** advancing
    /// `self`.
    ///
    /// Unlike [`fork`](Self::fork), which consumes state (so the stream a consumer receives
    /// depends on how many forks happened before it), `stream` is a pure function of
    /// `(current state, label, index)`. This is what the `tis-exp` sweep runner uses to give
    /// every grid cell its own RNG: any worker thread can re-derive cell `i`'s stream in any
    /// order and always obtain the same generator, which keeps parallel sweeps bit-identical to
    /// sequential ones.
    pub fn stream(&self, label: &str, index: u64) -> SimRng {
        let h = fnv1a(label);
        // Two SplitMix64 output rounds over (state ⊕ label-hash, +index-offset) decorrelate
        // adjacent indices and labels; a plain XOR would leave neighbouring cells on nearly
        // identical trajectories.
        let mut mix = SimRng::new(self.state ^ h);
        let base = mix.next_u64();
        let mut cell = SimRng::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        SimRng::new(cell.next_u64())
    }
}

/// FNV-1a over a label, used to decouple named RNG streams.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Default for SimRng {
    fn default() -> Self {
        SimRng::new(0x5EED_5EED_5EED_5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_panics() {
        SimRng::new(1).below(0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = SimRng::new(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi, "both endpoints should be reachable");
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn stream_is_pure_and_order_independent() {
        let root = SimRng::new(1234);
        // Deriving the same (label, index) twice — or in any order — yields the same generator,
        // and the root is never advanced.
        let mut a = root.stream("cell", 7);
        let mut c = root.stream("cell", 3);
        let mut b = root.stream("cell", 7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(root, SimRng::new(1234), "stream() must not mutate the parent");
        // Different indices and labels diverge.
        assert_ne!(a.next_u64(), c.next_u64());
        let mut d = root.stream("other", 7);
        let mut e = root.stream("cell", 7);
        e.next_u64();
        assert_ne!(d.next_u64(), e.next_u64());
    }

    #[test]
    fn stream_indices_are_statistically_decoupled() {
        // Adjacent indices must not produce correlated first draws.
        let root = SimRng::new(42);
        let mut values: Vec<u64> = (0..64).map(|i| root.stream("axis", i).next_u64()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 64, "adjacent stream indices collided");
    }

    #[test]
    fn fork_streams_are_decoupled_but_deterministic() {
        let mut root1 = SimRng::new(99);
        let mut root2 = SimRng::new(99);
        let mut a1 = root1.fork("picos");
        let mut a2 = root2.fork("picos");
        let mut b = SimRng::new(99).fork("memory");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The integer-threshold `chance` draws exactly what the float compare it replaced
        /// draws, at the edges of the probability range and at random probabilities.
        #[test]
        fn chance_matches_the_float_compare(state in any::<u64>(), bits in any::<u64>()) {
            let random = (bits >> 11) as f64 / (1u64 << 53) as f64;
            // The first draw's own value, and the next float above it: the compare's boundary.
            let first = SimRng::new(state).next_f64();
            let probabilities = [
                first,
                f64::from_bits(first.to_bits() + 1),
                0.0,
                -0.0,
                1.0,
                -1.0,
                2.0,
                f64::NAN,
                f64::MIN_POSITIVE / 2.0,
                5e-324,
                1.0 - f64::EPSILON,
                1.0 - f64::EPSILON / 2.0,
                random,
                f64::from_bits(bits),
            ];
            for p in probabilities {
                let mut float = SimRng::new(state);
                let mut int = SimRng::new(state);
                for _ in 0..4 {
                    prop_assert_eq!(int.chance(p), float.next_f64() < p.clamp(0.0, 1.0), "p = {p:e}");
                }
                prop_assert_eq!(&int, &float, "one draw per chance, p = {p:e}");
            }
        }
    }

    #[test]
    fn chance_threshold_at_the_boundary() {
        // `next_f64` returns m / 2^53; a p just above m / 2^53 must admit m, and p == m / 2^53
        // must not.
        let m = 12_345u64;
        let p = m as f64 / (1u64 << 53) as f64;
        assert_eq!(SimRng::chance_threshold(p), m);
        assert_eq!(SimRng::chance_threshold(f64::from_bits(p.to_bits() + 1)), m + 1);
        assert_eq!(SimRng::chance_threshold(1.0), 1 << 53);
        assert_eq!(SimRng::chance_threshold(f64::NAN), 0);
    }
}
