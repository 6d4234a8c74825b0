//! Seeded distribution samplers.
//!
//! The network fluctuation models of `ices-netsim` need gaussian,
//! lognormal, exponential and Pareto variates. They are implemented here on
//! top of any [`rand::Rng`] so the workspace does not depend on
//! `rand_distr`, and so every distribution used in an experiment is
//! unit-tested in-tree.

use rand::{Rng, RngExt};

/// The accepted point `(u, s = u² + v²)` of one Marsaglia polar draw:
/// everything a normal variate takes from the RNG, before any libm call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolarPoint {
    /// The first uniform of the accepted pair, in `(-1, 1)`.
    pub u: f64,
    /// `u² + v²`, in `(0, 1)`.
    pub s: f64,
}

impl PolarPoint {
    /// Whether the polar method accepts the point: `0 < s < 1`.
    #[inline]
    pub fn accepted(self) -> bool {
        self.s > 0.0 && self.s < 1.0
    }
}

/// One attempt of the polar method: two uniforms on `(-1, 1)`, whether
/// or not the point they make is [`PolarPoint::accepted`].
#[inline]
pub fn polar_attempt<R: Rng + ?Sized>(rng: &mut R) -> PolarPoint {
    let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
    let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
    PolarPoint {
        u,
        s: u * u + v * v,
    }
}

/// The draw half of [`standard_normal`]: the RNG draws of the polar
/// method up to its first accepted point. [`polar_normal`] finishes the
/// variate, so a caller can make all of a batch's draws before any of
/// its `ln`/`sqrt` calls.
pub fn polar_draw<R: Rng + ?Sized>(rng: &mut R) -> PolarPoint {
    loop {
        let point = polar_attempt(rng);
        if point.accepted() {
            return point;
        }
    }
}

/// The transform half of [`standard_normal`]: `u·√(−2 ln s / s)`.
#[inline]
pub fn polar_normal(point: PolarPoint) -> f64 {
    polar_normal_ln(point, point.s.ln())
}

/// [`polar_normal`] with `ln s` already taken: everything after its
/// one libm call, so a batch can take all of its logarithms in one
/// pass and the rest in another.
#[inline]
fn polar_normal_ln(point: PolarPoint, ln_s: f64) -> f64 {
    let PolarPoint { u, s } = point;
    u * (-2.0 * ln_s / s).sqrt()
}

/// Draw a standard-normal variate using the Marsaglia polar method.
///
/// The polar method is branch-heavy but has no trig calls and no state.
/// It is [`polar_normal`] of [`polar_draw`]; the RTT noise model calls
/// the two halves separately so that a batch of probes can run all of
/// its draws, then all of its transcendentals.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    polar_normal(polar_draw(rng))
}

/// A normal variate with the given mean and standard deviation from an
/// accepted polar point: [`normal`] without its RNG draws.
///
/// # Panics
/// Panics if `std_dev` is negative or non-finite.
#[inline]
pub fn normal_from(point: PolarPoint, mean: f64, std_dev: f64) -> f64 {
    normal_from_ln(point, point.s.ln(), mean, StdDev::new(std_dev))
}

/// A standard deviation checked once: finite and non-negative. A batch
/// of variates sharing one takes [`normal_from_ln`] without a check per
/// variate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdDev(f64);

impl StdDev {
    /// Check `std_dev`.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or non-finite.
    #[inline]
    pub fn new(std_dev: f64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "normal std_dev must be finite and non-negative, got {std_dev}"
        );
        Self(std_dev)
    }
}

/// [`normal_from`] with `ln s` of the point already taken and the
/// standard deviation already checked, so a batch can take all of its
/// logarithms in one pass and check its σ once.
#[inline]
pub fn normal_from_ln(point: PolarPoint, ln_s: f64, mean: f64, std_dev: StdDev) -> f64 {
    mean + std_dev.0 * polar_normal_ln(point, ln_s)
}

/// Draw a normal variate with the given mean and standard deviation.
///
/// # Panics
/// Panics if `std_dev` is negative or non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    normal_from(polar_draw(rng), mean, std_dev)
}

/// A lognormal variate `exp(N(mu, sigma))` from an accepted polar
/// point: [`lognormal`] without its RNG draws.
#[inline]
pub fn lognormal_from(point: PolarPoint, mu: f64, sigma: f64) -> f64 {
    normal_from(point, mu, sigma).exp()
}

/// Draw a lognormal variate: `exp(N(mu, sigma))`.
///
/// `mu` and `sigma` parameterize the underlying normal, i.e. the median of
/// the lognormal is `exp(mu)`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    lognormal_from(polar_draw(rng), mu, sigma)
}

/// Draw an exponential variate with the given rate `λ` (mean `1/λ`).
///
/// # Panics
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    // Inverse-CDF; (1 - u) avoids ln(0) since u ∈ [0, 1).
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// A Pareto variate with scale `x_m > 0` and shape `alpha > 0` from its
/// uniform `u ∈ [0, 1)`: [`pareto`] without its RNG draw.
///
/// # Panics
/// Panics if either parameter is not strictly positive.
#[inline]
pub fn pareto_from(u: f64, scale: f64, shape: f64) -> f64 {
    assert!(scale > 0.0, "pareto scale must be positive, got {scale}");
    assert!(shape > 0.0, "pareto shape must be positive, got {shape}");
    scale / (1.0 - u).powf(1.0 / shape)
}

/// Draw a Pareto variate with scale `x_m > 0` and shape `alpha > 0`.
///
/// Used to model the rare, heavy-tailed RTT spikes (OS scheduling stalls,
/// transient congestion) observed on PlanetLab.
///
/// # Panics
/// Panics if either parameter is not strictly positive.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, scale: f64, shape: f64) -> f64 {
    pareto_from(rng.random(), scale, shape)
}

/// Draw a uniform variate in `[low, high)`.
///
/// # Panics
/// Panics if `low > high`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
    assert!(low <= high, "uniform requires low <= high ({low} > {high})");
    low + (high - low) * rng.random::<f64>()
}

/// Sample `k` distinct indices from `0..n` (a partial Fisher–Yates).
///
/// Step `i` draws `j` uniformly from `i..n` and swaps pool positions `i`
/// and `j`; the first `k` positions are the sample. When `k` is small
/// against `n` the pool `0..n` is never built: a short list of the
/// positions the swaps have displaced stands in for it, with the same
/// draws and the same output.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    // A lookup scans the displaced list, so the sparse pool costs about
    // k²/2 comparisons against the dense pool's n writes.
    if k.saturating_mul(k) / 2 > n {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.random_range(0..n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        return pool;
    }
    // `(position, value)` for every position at or past `i` whose value
    // is no longer the position itself.
    let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(k);
    let mut sample = Vec::with_capacity(k);
    for i in 0..k {
        let j = i + rng.random_range(0..n - i);
        // Position `i` is final after this step, so its entry goes.
        let value_i = match displaced.iter().position(|&(p, _)| p == i) {
            Some(e) => displaced.swap_remove(e).1,
            None => i,
        };
        if j == i {
            sample.push(value_i);
            continue;
        }
        match displaced.iter_mut().find(|(p, _)| *p == j) {
            Some(entry) => sample.push(std::mem::replace(&mut entry.1, value_i)),
            None => {
                sample.push(j);
                displaced.push((j, value_i));
            }
        }
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineStats;
    use crate::rng::stream_rng;
    use proptest::prelude::*;

    fn collect<F: FnMut(&mut rand::rngs::StdRng) -> f64>(
        seed: u64,
        n: usize,
        mut f: F,
    ) -> OnlineStats {
        let mut rng = stream_rng(seed, 0);
        let mut s = OnlineStats::new();
        for _ in 0..n {
            s.push(f(&mut rng));
        }
        s
    }

    #[test]
    fn standard_normal_moments() {
        let s = collect(1, 200_000, standard_normal);
        assert!(s.mean().abs() < 0.02, "mean = {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.03, "var = {}", s.variance());
    }

    #[test]
    fn normal_scales_and_shifts() {
        let s = collect(2, 100_000, |r| normal(r, 5.0, 2.0));
        assert!((s.mean() - 5.0).abs() < 0.05);
        assert!((s.variance() - 4.0).abs() < 0.15);
    }

    #[test]
    fn lognormal_median() {
        let mut rng = stream_rng(3, 0);
        let mut xs: Vec<f64> = (0..100_001)
            .map(|_| lognormal(&mut rng, 1.0, 0.5))
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!(
            (median - 1.0_f64.exp()).abs() < 0.05,
            "median = {median}, want ~e"
        );
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let s = collect(4, 100_000, |r| exponential(r, 0.25));
        assert!((s.mean() - 4.0).abs() < 0.1, "mean = {}", s.mean());
        assert!(s.min() >= 0.0);
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let s = collect(5, 50_000, |r| pareto(r, 3.0, 2.5));
        assert!(s.min() >= 3.0);
        // E[X] = α x_m / (α − 1) = 2.5·3/1.5 = 5.
        assert!((s.mean() - 5.0).abs() < 0.15, "mean = {}", s.mean());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let s = collect(6, 100_000, |r| uniform(r, -2.0, 6.0));
        assert!(s.min() >= -2.0 && s.max() < 6.0);
        assert!((s.mean() - 2.0).abs() < 0.05);
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = stream_rng(7, 0);
        for _ in 0..100 {
            let k = rng.random_range(0..=20);
            let sample = sample_indices(&mut rng, 20, k);
            assert_eq!(sample.len(), k);
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {sample:?}");
            assert!(sample.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_population_is_permutation() {
        let mut rng = stream_rng(8, 0);
        let mut sample = sample_indices(&mut rng, 10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    /// The textbook partial Fisher–Yates over a materialized pool: the
    /// oracle [`sample_indices`] must match draw for draw.
    fn dense_sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.random_range(0..n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sample_indices_matches_the_dense_pool(
            n in 1usize..4097,
            shape in 0u32..6,
            frac in 0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            // k ∈ {0, 1, random, random small (the sparse pool), n−1, n}.
            let small = ((2 * n) as f64).sqrt() as usize;
            let k = match shape {
                0 => 0,
                1 => 1,
                2 => ((n + 1) as f64 * frac) as usize,
                3 => ((small + 1) as f64 * frac) as usize,
                4 => n - 1,
                _ => n,
            }
            .min(n);
            let mut fast = stream_rng(seed, 0);
            let mut oracle = fast.clone();
            prop_assert_eq!(
                sample_indices(&mut fast, n, k),
                dense_sample_indices(&mut oracle, n, k)
            );
            prop_assert_eq!(fast, oracle);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut rng = stream_rng(9, 0);
        sample_indices(&mut rng, 3, 4);
    }

    #[test]
    #[should_panic(expected = "exponential rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = stream_rng(10, 0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = collect(11, 1000, standard_normal);
        let b = collect(11, 1000, standard_normal);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.variance(), b.variance());
    }
}
