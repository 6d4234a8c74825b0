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

/// The draw half of [`standard_normal`]: the RNG draws of the polar
/// method up to its first accepted point. [`polar_normal`] finishes the
/// variate, so a caller can make all of a batch's draws before any of
/// its `ln`/`sqrt` calls.
pub fn polar_draw<R: Rng + ?Sized>(rng: &mut R) -> PolarPoint {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return PolarPoint { u, s };
        }
    }
}

/// The transform half of [`standard_normal`]: `u·√(−2 ln s / s)`.
#[inline]
pub fn polar_normal(point: PolarPoint) -> f64 {
    let PolarPoint { u, s } = point;
    u * (-2.0 * s.ln() / s).sqrt()
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
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "normal std_dev must be finite and non-negative, got {std_dev}"
    );
    mean + std_dev * polar_normal(point)
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

/// Sample `k` distinct indices from `0..n` (a simple partial Fisher–Yates).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.random_range(0..n - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineStats;
    use crate::rng::stream_rng;

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
