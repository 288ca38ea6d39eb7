//! Deterministic randomness and statistical distributions.
//!
//! The synthetic world generators need Normal, Poisson and Weibull variates
//! plus an Ornstein-Uhlenbeck process for mean-reverting weather/price noise.
//! Only the `rand` core crate is available offline, so the samplers are
//! implemented here (Box-Muller, Knuth/normal-approximation, inverse-CDF).
//!
//! Everything is seeded: identical seeds reproduce identical worlds, which the
//! test suite and the experiment harness rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random source used throughout the workspace.
///
/// A thin wrapper over [`rand::rngs::StdRng`] adding the domain samplers.
///
/// # Example
///
/// ```
/// use ect_types::rng::EctRng;
/// let mut a = EctRng::seed_from(42);
/// let mut b = EctRng::seed_from(42);
/// assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct EctRng {
    inner: StdRng,
}

impl EctRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG for a named sub-stream.
    ///
    /// Different `stream` values yield decorrelated streams, so e.g. the
    /// weather of hub 3 does not change when hub 2 gains a wind turbine.
    pub fn fork(&self, stream: u64) -> Self {
        // SplitMix64-style mixing of the stream id into a fresh seed.
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mixed = z ^ (z >> 31);
        Self {
            inner: StdRng::seed_from_u64(mixed ^ self.base_entropy()),
        }
    }

    fn base_entropy(&self) -> u64 {
        // Clone so forking does not advance this generator's own stream.
        let mut probe = self.inner.clone();
        probe.gen()
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Normal variate via the Box-Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0` or either parameter is non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "bad normal parameters ({mean}, {std_dev})"
        );
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Poisson variate.
    ///
    /// Uses Knuth's product method for small `lambda` and a rounded normal
    /// approximation for `lambda > 30` (error negligible for our workloads).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda.is_finite() && lambda >= 0.0, "bad lambda {lambda}");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        let threshold = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= threshold {
                return k;
            }
            k += 1;
        }
    }

    /// Weibull variate via inverse-CDF sampling.
    ///
    /// `shape` (k) and `scale` (λ) follow the usual parameterisation; wind
    /// speeds are classically Weibull with k ≈ 2.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive or non-finite.
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0,
            "bad weibull parameters ({shape}, {scale})"
        );
        let u = 1.0 - self.uniform(); // in (0, 1]
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Samples an index from unnormalised non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value, or
    /// sums to zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "empty categorical");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "categorical weights sum to zero");
        // The first index whose weight the running remainder falls below
        // (the last index if rounding leaves none).
        let mut u = self.uniform() * total;
        if weights.len() > 4 {
            // A long draw (road weights) stops at its hit.
            for (i, &w) in weights.iter().enumerate() {
                if u < w {
                    return i;
                }
                u -= w;
            }
            return weights.len() - 1;
        }
        // A short draw (strata, actions) scans every weight without a
        // data-dependent branch, so a random outcome mispredicts nothing.
        let (mut index, mut found) = (0, false);
        for &w in weights {
            found |= u < w;
            index += usize::from(!found);
            u -= w;
        }
        index.min(weights.len() - 1)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Mean-reverting Ornstein-Uhlenbeck process sampled at the slot cadence.
///
/// `x_{t+1} = x_t + theta * (mean - x_t) + sigma * N(0, 1)`.
///
/// Used for cloud-cover, wind-speed and price noise: it produces volatility
/// with realistic autocorrelation instead of white noise.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    mean: f64,
    theta: f64,
    sigma: f64,
    state: f64,
}

impl OrnsteinUhlenbeck {
    /// Creates a process starting at its long-run `mean`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < theta <= 1` and `sigma >= 0`.
    pub fn new(mean: f64, theta: f64, sigma: f64) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "mean-reversion rate must be in (0, 1], got {theta}"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        Self {
            mean,
            theta,
            sigma,
            state: mean,
        }
    }

    /// Overrides the current state (e.g. to start a scenario off-mean).
    pub fn with_state(mut self, state: f64) -> Self {
        self.state = state;
        self
    }

    /// Current value without advancing.
    pub fn current(&self) -> f64 {
        self.state
    }

    /// Advances one slot and returns the new value.
    pub fn step(&mut self, rng: &mut EctRng) -> f64 {
        let noise = rng.normal(0.0, self.sigma);
        self.state += self.theta * (self.mean - self.state) + noise;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = EctRng::seed_from(7);
        let mut b = EctRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let root = EctRng::seed_from(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.uniform().to_bits(), f1b.uniform().to_bits());
        assert_ne!(f1.uniform().to_bits(), f2.uniform().to_bits());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = EctRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = EctRng::seed_from(13);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < 0.15 * lambda.max(1.0),
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = EctRng::seed_from(1);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn weibull_mean_matches_theory() {
        // For k = 2, mean = scale * Γ(1.5) = scale * √π / 2.
        let mut rng = EctRng::seed_from(17);
        let scale = 8.0;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.weibull(2.0, scale)).sum::<f64>() / n as f64;
        let expect = scale * (std::f64::consts::PI.sqrt() / 2.0);
        assert!((mean - expect).abs() < 0.15, "mean {mean} vs {expect}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = EctRng::seed_from(19);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.categorical(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let p2 = counts[2] as f64 / 30_000.0;
        assert!((p2 - 0.7).abs() < 0.02, "p2 {p2}");
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_rejects_zero_mass() {
        EctRng::seed_from(1).categorical(&[0.0, 0.0]);
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut rng = EctRng::seed_from(23);
        let mut ou = OrnsteinUhlenbeck::new(10.0, 0.2, 0.0).with_state(0.0);
        for _ in 0..100 {
            ou.step(&mut rng);
        }
        assert!((ou.current() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ou_with_noise_stays_near_mean() {
        let mut rng = EctRng::seed_from(29);
        let mut ou = OrnsteinUhlenbeck::new(0.0, 0.1, 0.05);
        let mut acc = 0.0;
        let n = 10_000;
        for _ in 0..n {
            acc += ou.step(&mut rng);
        }
        assert!((acc / n as f64).abs() < 0.05);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = EctRng::seed_from(31);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    proptest! {
        #[test]
        fn uniform_in_respects_bounds(lo in -100.0f64..100.0, width in 0.001f64..50.0, seed in 0u64..1000) {
            let mut rng = EctRng::seed_from(seed);
            let hi = lo + width;
            let x = rng.uniform_in(lo, hi);
            prop_assert!(x >= lo && x < hi);
        }

        #[test]
        fn weibull_is_positive(seed in 0u64..500, shape in 0.5f64..5.0, scale in 0.1f64..20.0) {
            let mut rng = EctRng::seed_from(seed);
            prop_assert!(rng.weibull(shape, scale) >= 0.0);
        }

        #[test]
        fn categorical_in_bounds(seed in 0u64..500, n in 1usize..10) {
            let mut rng = EctRng::seed_from(seed);
            let w: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            prop_assert!(rng.categorical(&w) < n);
        }

        /// Short and long draws pick what an early-returning scan picks,
        /// zero weights and the rounding fall-through included.
        #[test]
        fn categorical_matches_an_early_return_scan(
            seed in 0u64..500,
            w in proptest::collection::vec(0.0f64..3.0, 1..14),
            zero in 0usize..14,
        ) {
            let mut w = w;
            let z = zero % w.len();
            w[z] = 0.0;
            if w.iter().sum::<f64>() > 0.0 {
                let mut rng = EctRng::seed_from(seed);
                let mut u = rng.clone().uniform() * w.iter().sum::<f64>();
                let expected = w
                    .iter()
                    .position(|&x| {
                        let hit = u < x;
                        u -= x;
                        hit
                    })
                    .unwrap_or(w.len() - 1);
                prop_assert_eq!(rng.categorical(&w), expected);
            }
        }
    }
}
