//! Seeded random sampling for the simulation.

use crate::Duration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The simulation's random source: a seeded PRNG with the samplers the
/// experiments need.
///
/// Every experiment takes an explicit seed, so runs are exactly
/// reproducible; sweeps vary the seed to obtain independent replications.
///
/// ```rust
/// use anycast_sim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each
    /// subcomponent (arrivals, holding times, selection) its own stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.rng.gen())
    }

    /// Derives the seed of the `index`-th replication substream of a
    /// master seed.
    ///
    /// A SplitMix64-style finalizer over `master + (index+1)·γ` (γ the
    /// golden-ratio gamma of Steele et al., *Fast Splittable Pseudorandom
    /// Number Generators*): consecutive indices land in well-separated
    /// generator states, so every `(sweep point, replication)` job can be
    /// handed an independent stream whose identity is a pure function of
    /// `(master, index)` — never of which worker thread happens to run
    /// it. This is what makes parallel sweeps bit-identical to serial
    /// ones.
    pub fn substream_seed(master: u64, index: u64) -> u64 {
        const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A generator positioned on the `index`-th replication substream of
    /// `master`; shorthand for seeding from
    /// [`substream_seed`](SimRng::substream_seed).
    pub fn substream(master: u64, index: u64) -> SimRng {
        SimRng::seed_from(SimRng::substream_seed(master, index))
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.rng.gen_range(0..n)
    }

    /// An exponentially distributed duration with the given mean — flow
    /// lifetimes in §5.1 are `Exp(mean = 180 s)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs` is not positive and finite.
    pub fn exp_duration(&mut self, mean_secs: f64) -> Duration {
        Duration::from_secs(self.exp(mean_secs))
    }

    /// An exponentially distributed value with the given mean, via
    /// inversion: `-mean · ln(1 - U)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        let u: f64 = self.rng.gen(); // in [0, 1)
        -mean * (1.0 - u).ln()
    }

    /// Samples an index from a categorical distribution given by
    /// non-negative `weights`. Weights need not be normalised.
    ///
    /// Returns `None` when all weights are zero (or the slice is empty) —
    /// in the admission-control setting this means "no viable destination".
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "weights must be finite and non-negative, got {w}"
                );
                w
            })
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// Samples an index from `weights` restricted to positions where
    /// `eligible` is `true` — the without-replacement re-trial draw of §4.5
    /// (already-tried destinations are masked out and the remaining weights
    /// renormalise implicitly).
    ///
    /// Returns `None` when no eligible position has positive weight.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, or on invalid weights.
    pub fn choose_weighted_masked(&mut self, weights: &[f64], eligible: &[bool]) -> Option<usize> {
        assert_eq!(
            weights.len(),
            eligible.len(),
            "weights and eligibility mask must have equal length"
        );
        // One pass over the pairs instead of a masked copy: skipping an
        // ineligible entry is exactly adding (and subtracting) 0.0, and
        // the walk's target never goes negative, so the pick and the RNG
        // draws are those of `choose_weighted` on the masked weights.
        let total: f64 = weights
            .iter()
            .zip(eligible)
            .filter(|&(_, &e)| e)
            .map(|(&w, _)| {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "weights must be finite and non-negative, got {w}"
                );
                w
            })
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, (&w, &e)) in weights.iter().zip(eligible).enumerate() {
            if e {
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating-point slack: fall back to the last eligible positive weight.
        weights
            .iter()
            .zip(eligible)
            .rposition(|(&w, &e)| e && w > 0.0)
    }

    /// A raw 64-bit sample.
    #[cfg(test)]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The masked draw as it was first written: choose from a masked copy.
    /// The reference the in-place walk must match pick for pick.
    fn choose_weighted_masked_by_copy(
        rng: &mut SimRng,
        weights: &[f64],
        eligible: &[bool],
    ) -> Option<usize> {
        let masked: Vec<f64> = weights
            .iter()
            .zip(eligible)
            .map(|(&w, &e)| if e { w } else { 0.0 })
            .collect();
        rng.choose_weighted(&masked)
    }

    /// Weights with zeros and subnormal-scale values mixed in, each with
    /// a mask bit; about one case in four has an all-false mask.
    fn weight_and_mask() -> impl Strategy<Value = Vec<(f64, bool)>> {
        let weight = (any::<u8>(), 0.0f64..10.0).prop_map(|(kind, w)| match kind % 4 {
            0 => 0.0,
            1 => w * 1e-300,
            _ => w,
        });
        (
            any::<u8>(),
            proptest::collection::vec((weight, any::<bool>()), 0..20),
        )
            .prop_map(|(kind, pairs)| match kind % 4 {
                0 => pairs.into_iter().map(|(w, _)| (w, false)).collect(),
                _ => pairs,
            })
    }

    proptest! {
        /// The in-place masked draw returns the masked copy's index and
        /// leaves the generator where the copy leaves it.
        #[test]
        fn masked_draw_matches_the_masked_copy(
            seed in any::<u64>(),
            pairs in weight_and_mask(),
            draws in 1usize..4,
        ) {
            let weights: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let mask: Vec<bool> = pairs.iter().map(|p| p.1).collect();
            let mut in_place = SimRng::seed_from(seed);
            let mut by_copy = SimRng::seed_from(seed);
            for _ in 0..draws {
                prop_assert_eq!(
                    in_place.choose_weighted_masked(&weights, &mask),
                    choose_weighted_masked_by_copy(&mut by_copy, &weights, &mask)
                );
            }
            prop_assert_eq!(in_place.next_u64(), by_copy.next_u64());
        }
    }

    #[test]
    fn determinism_and_forking() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
        // Fork and parent produce different streams.
        assert_ne!(a.next_u64(), fa.next_u64());
    }

    #[test]
    fn substreams_are_deterministic_and_distinct() {
        // Pure function of (master, index)...
        assert_eq!(SimRng::substream_seed(42, 3), SimRng::substream_seed(42, 3));
        // ...distinct across indices and masters...
        let seeds: Vec<u64> = (0..64).map(|i| SimRng::substream_seed(7, i)).collect();
        let unique: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "substream seeds must not collide"
        );
        assert_ne!(SimRng::substream_seed(1, 0), SimRng::substream_seed(2, 0));
        // ...and substream() is exactly seed_from(substream_seed()).
        let mut a = SimRng::substream(7, 5);
        let mut b = SimRng::seed_from(SimRng::substream_seed(7, 5));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from(42);
        let n = 200_000;
        let mean = 180.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.02,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_memoryless_shape() {
        // P(X > mean) should be about e^-1.
        let mut rng = SimRng::seed_from(43);
        let n = 100_000;
        let above = (0..n).filter(|_| rng.exp(1.0) > 1.0).count();
        let p = above as f64 / n as f64;
        assert!((p - (-1.0f64).exp()).abs() < 0.01, "P(X>mean) = {p}");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from(44);
        let weights = [0.1, 0.0, 0.6, 0.3];
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.choose_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight index must never be chosen");
        for (i, &w) in weights.iter().enumerate() {
            let p = counts[i] as f64 / n as f64;
            assert!((p - w).abs() < 0.01, "index {i}: p={p}, w={w}");
        }
    }

    #[test]
    fn weighted_choice_all_zero_is_none() {
        let mut rng = SimRng::seed_from(45);
        assert_eq!(rng.choose_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.choose_weighted(&[]), None);
    }

    #[test]
    fn masked_choice_skips_ineligible() {
        let mut rng = SimRng::seed_from(46);
        let weights = [0.5, 0.5, 0.0];
        for _ in 0..1_000 {
            let pick = rng
                .choose_weighted_masked(&weights, &[false, true, true])
                .unwrap();
            assert_eq!(pick, 1);
        }
        assert_eq!(
            rng.choose_weighted_masked(&weights, &[false, false, true]),
            None
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = SimRng::seed_from(47);
        for _ in 0..1_000 {
            assert!(rng.below(9) < 9);
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn exp_rejects_zero_mean() {
        let mut rng = SimRng::seed_from(48);
        let _ = rng.exp(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_rejects_negative() {
        let mut rng = SimRng::seed_from(49);
        let _ = rng.choose_weighted(&[0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn masked_rejects_length_mismatch() {
        let mut rng = SimRng::seed_from(50);
        let _ = rng.choose_weighted_masked(&[0.5], &[true, false]);
    }
}
