//! RTT fluctuation models.
//!
//! §2 of the paper isolates two noise sources on top of the nominal RTT:
//! transient network congestion and operating-system scheduling in the
//! measuring hosts. Following the constancy results of Zhang et al. the
//! process is *stationary* at the timescales embedding operates on. A
//! measurement is modeled as
//!
//! ```text
//! measured = base · C + J + S
//! ```
//!
//! where `C` is a lognormal congestion factor with median 1 (queueing
//! along the path scales with path length), `J` is zero-mean gaussian
//! jitter from timestamping, and `S` is a rare heavy-tailed Pareto spike
//! (an OS scheduling stall — overwhelmingly common on busy PlanetLab
//! hosts, rare in the King measurements). Negative outcomes are clamped
//! to a physical floor.

use ices_stats::sample::{self, PolarPoint};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Parameters of the stationary measurement-noise process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluctuationModel {
    /// σ of the lognormal congestion factor (median factor is 1).
    pub congestion_sigma: f64,
    /// Standard deviation of additive gaussian jitter, in ms.
    pub jitter_ms: f64,
    /// Probability that a probe hits a scheduling spike.
    pub spike_probability: f64,
    /// Pareto scale (minimum spike size), in ms.
    pub spike_scale_ms: f64,
    /// Pareto shape; smaller is heavier-tailed. Must exceed 1 for the
    /// spikes to have finite mean.
    pub spike_shape: f64,
    /// Smallest RTT a measurement can report, in ms.
    pub floor_ms: f64,
}

impl FluctuationModel {
    /// Noise typical of the King measurements: mild congestion spread,
    /// sub-millisecond timestamp jitter, spikes effectively absent.
    pub fn king_default() -> Self {
        Self {
            congestion_sigma: 0.05,
            jitter_ms: 0.3,
            spike_probability: 0.0005,
            spike_scale_ms: 10.0,
            spike_shape: 2.5,
            floor_ms: 0.1,
        }
    }

    /// Noise typical of PlanetLab hosts: visibly noisier timestamps and
    /// frequent scheduling stalls on oversubscribed machines.
    pub fn planetlab_default() -> Self {
        Self {
            congestion_sigma: 0.08,
            jitter_ms: 1.0,
            spike_probability: 0.002,
            spike_scale_ms: 20.0,
            spike_shape: 2.0,
            floor_ms: 0.1,
        }
    }

    /// A noise-free model (measurements return the base RTT exactly);
    /// useful for tests that need determinism of the *embedding* alone.
    pub fn noiseless() -> Self {
        Self {
            congestion_sigma: 0.0,
            jitter_ms: 0.0,
            spike_probability: 0.0,
            spike_scale_ms: 1.0,
            spike_shape: 2.0,
            floor_ms: 0.01,
        }
    }

    /// Validate parameter sanity.
    ///
    /// # Panics
    /// Panics on negative variances/probabilities or a non-positive floor.
    pub fn validate(&self) {
        assert!(self.congestion_sigma >= 0.0, "congestion_sigma < 0");
        assert!(self.jitter_ms >= 0.0, "jitter_ms < 0");
        assert!(
            (0.0..=1.0).contains(&self.spike_probability),
            "spike_probability outside [0,1]"
        );
        assert!(self.spike_scale_ms > 0.0, "spike_scale_ms <= 0");
        assert!(self.spike_shape > 1.0, "spike_shape must exceed 1");
        assert!(self.floor_ms > 0.0, "floor_ms <= 0");
    }

    /// Draw one measured RTT for a path with the given nominal RTT,
    /// with per-endpoint noise amplification `profile`:
    /// [`FluctuationModel::transform`] of [`FluctuationModel::draw`].
    ///
    /// # Panics
    /// Panics unless `base_rtt_ms` is positive and finite.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        base_rtt_ms: f64,
        profile: &NoiseProfile,
        rng: &mut R,
    ) -> f64 {
        self.transform(base_rtt_ms, profile, &self.draw(profile, rng))
    }

    /// The draw half of a measurement: every RNG draw it makes, in
    /// stream order — the congestion and jitter polar points, the spike
    /// uniform and, when the spike fires, the Pareto uniform. A batch of
    /// probes makes all of its draws before any `ln`, `exp` or `powf`.
    pub fn draw<R: Rng + ?Sized>(&self, profile: &NoiseProfile, rng: &mut R) -> NoiseDraw {
        let mut draw = NoiseDraw::default();
        if self.congestion_sigma * profile.congestion_mult > 0.0 {
            draw.congestion = sample::polar_draw(rng);
        }
        if self.jitter_ms * profile.jitter_mult > 0.0 {
            draw.jitter = sample::polar_draw(rng);
        }
        let spike_p = (self.spike_probability * profile.spike_mult).min(1.0);
        if spike_p > 0.0 && rng.random::<f64>() < spike_p {
            draw.spike = Some(rng.random::<f64>());
        }
        draw
    }

    /// The transform half of a measurement: `base · C + J + S`, floored,
    /// from the draws [`FluctuationModel::draw`] made under the same
    /// `profile`.
    ///
    /// # Panics
    /// Panics unless `base_rtt_ms` is positive and finite.
    pub fn transform(&self, base_rtt_ms: f64, profile: &NoiseProfile, draw: &NoiseDraw) -> f64 {
        assert!(
            base_rtt_ms > 0.0 && base_rtt_ms.is_finite(),
            "base RTT must be positive, got {base_rtt_ms}"
        );
        let sigma = self.congestion_sigma * profile.congestion_mult;
        let congestion = if sigma > 0.0 {
            sample::lognormal_from(draw.congestion, 0.0, sigma)
        } else {
            1.0
        };
        let jitter_sd = self.jitter_ms * profile.jitter_mult;
        let jitter = if jitter_sd > 0.0 {
            sample::normal_from(draw.jitter, 0.0, jitter_sd)
        } else {
            0.0
        };
        let spike = match draw.spike {
            Some(u) => sample::pareto_from(u, self.spike_scale_ms, self.spike_shape),
            None => 0.0,
        };
        (base_rtt_ms * congestion + jitter + spike).max(self.floor_ms)
    }
}

/// The RNG draws of one measurement ([`FluctuationModel::draw`]), kept
/// apart from the arithmetic that turns them into an RTT
/// ([`FluctuationModel::transform`]). Draws the model skips stay at
/// their defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseDraw {
    congestion: PolarPoint,
    jitter: PolarPoint,
    /// The Pareto uniform, when the spike fired.
    spike: Option<f64>,
}

/// Per-node noise amplification.
///
/// The fluctuation a probe experiences depends on *both* endpoints (each
/// contributes its own OS scheduling and access congestion); profiles
/// combine multiplicatively-on-average via [`NoiseProfile::combine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseProfile {
    /// Multiplier on the congestion σ.
    pub congestion_mult: f64,
    /// Multiplier on the jitter standard deviation.
    pub jitter_mult: f64,
    /// Multiplier on the spike probability.
    pub spike_mult: f64,
}

impl Default for NoiseProfile {
    fn default() -> Self {
        Self::clean()
    }
}

impl NoiseProfile {
    /// A well-behaved host: the model's base noise, unamplified.
    pub fn clean() -> Self {
        Self {
            congestion_mult: 1.0,
            jitter_mult: 1.0,
            spike_mult: 1.0,
        }
    }

    /// A pathologically noisy host (the paper's "nodes in India" with
    /// adverse network conditions and >0.75 average relative errors).
    pub fn pathological() -> Self {
        Self {
            congestion_mult: 6.0,
            jitter_mult: 10.0,
            spike_mult: 25.0,
        }
    }

    /// Combine the two endpoints' profiles into a per-path profile. The
    /// average of the endpoint multipliers: each endpoint contributes its
    /// own measurement machinery to the probe.
    pub fn combine(&self, other: &NoiseProfile) -> NoiseProfile {
        NoiseProfile {
            congestion_mult: 0.5 * (self.congestion_mult + other.congestion_mult),
            jitter_mult: 0.5 * (self.jitter_mult + other.jitter_mult),
            spike_mult: 0.5 * (self.spike_mult + other.spike_mult),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;
    use ices_stats::OnlineStats;

    fn stats_for(model: &FluctuationModel, profile: &NoiseProfile, base: f64) -> OnlineStats {
        let mut rng = stream_rng(7, 0);
        let mut s = OnlineStats::new();
        for _ in 0..50_000 {
            s.push(model.measure(base, profile, &mut rng));
        }
        s
    }

    /// `measure` as it was before the draw/transform split, samplers
    /// inlined as they were: every draw interleaved with its arithmetic.
    fn reference_measure(
        model: &FluctuationModel,
        base_rtt_ms: f64,
        profile: &NoiseProfile,
        rng: &mut rand::rngs::StdRng,
    ) -> f64 {
        let standard_normal = |rng: &mut rand::rngs::StdRng| loop {
            let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        };
        let sigma = model.congestion_sigma * profile.congestion_mult;
        let congestion = if sigma > 0.0 {
            (0.0 + sigma * standard_normal(rng)).exp()
        } else {
            1.0
        };
        let jitter_sd = model.jitter_ms * profile.jitter_mult;
        let jitter = if jitter_sd > 0.0 {
            0.0 + jitter_sd * standard_normal(rng)
        } else {
            0.0
        };
        let spike_p = (model.spike_probability * profile.spike_mult).min(1.0);
        let spike = if spike_p > 0.0 && rng.random::<f64>() < spike_p {
            let u: f64 = rng.random();
            model.spike_scale_ms / (1.0 - u).powf(1.0 / model.spike_shape)
        } else {
            0.0
        };
        (base_rtt_ms * congestion + jitter + spike).max(model.floor_ms)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `transform(draw(rng))` is the interleaved measurement bit for
        /// bit, and leaves the stream exactly where it leaves it, for
        /// every model (spikes firing often, or no noise at all) and
        /// random endpoint amplification.
        #[test]
        fn transform_of_draw_is_the_interleaved_measurement(
            seed in 0u64..u64::MAX,
            base in 0.05f64..400.0,
            mults in (0.0f64..12.0, 0.0f64..12.0, 0.0f64..400.0),
        ) {
            let mut spiky = FluctuationModel::planetlab_default();
            spiky.spike_probability = 0.05;
            let profile = NoiseProfile {
                congestion_mult: mults.0,
                jitter_mult: mults.1,
                spike_mult: mults.2,
            };
            for model in [
                FluctuationModel::king_default(),
                FluctuationModel::planetlab_default(),
                spiky,
                FluctuationModel::noiseless(),
            ] {
                for profile in [profile, NoiseProfile::clean(), NoiseProfile::pathological()] {
                    let mut split = stream_rng(seed, 3);
                    let mut reference = split.clone();
                    for _ in 0..8 {
                        let draw = model.draw(&profile, &mut split);
                        let got = model.transform(base, &profile, &draw);
                        let want = reference_measure(&model, base, &profile, &mut reference);
                        proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
                        proptest::prop_assert_eq!(&split, &reference);
                    }
                }
            }
        }
    }

    #[test]
    fn noiseless_returns_base_exactly() {
        let m = FluctuationModel::noiseless();
        let mut rng = stream_rng(1, 0);
        for base in [1.0, 50.0, 300.0] {
            assert_eq!(m.measure(base, &NoiseProfile::clean(), &mut rng), base);
        }
    }

    #[test]
    fn king_noise_is_centered_on_base() {
        let m = FluctuationModel::king_default();
        let s = stats_for(&m, &NoiseProfile::clean(), 100.0);
        // Lognormal(0, 0.04) has mean ≈ 1.0008; spikes add ~0.017 on average.
        assert!((s.mean() - 100.0).abs() < 1.0, "mean = {}", s.mean());
        assert!(s.min() >= m.floor_ms);
    }

    #[test]
    fn planetlab_noisier_than_king() {
        let king = stats_for(
            &FluctuationModel::king_default(),
            &NoiseProfile::clean(),
            100.0,
        );
        let pl = stats_for(
            &FluctuationModel::planetlab_default(),
            &NoiseProfile::clean(),
            100.0,
        );
        assert!(
            pl.variance() > 1.3 * king.variance(),
            "planetlab var {} should dominate king var {}",
            pl.variance(),
            king.variance()
        );
    }

    #[test]
    fn pathological_profile_amplifies() {
        let m = FluctuationModel::planetlab_default();
        let clean = stats_for(&m, &NoiseProfile::clean(), 100.0);
        let path = stats_for(&m, &NoiseProfile::pathological(), 100.0);
        assert!(
            path.variance() > 4.0 * clean.variance(),
            "pathological var {} vs clean var {}",
            path.variance(),
            clean.variance()
        );
    }

    #[test]
    fn measurements_never_below_floor() {
        let mut m = FluctuationModel::planetlab_default();
        m.jitter_ms = 50.0; // jitter often exceeds a 1 ms base
        let s = stats_for(&m, &NoiseProfile::clean(), 1.0);
        assert!(s.min() >= m.floor_ms);
    }

    #[test]
    fn combine_averages_multipliers() {
        let c = NoiseProfile::clean().combine(&NoiseProfile::pathological());
        assert!((c.jitter_mult - 5.5).abs() < 1e-12);
        assert!((c.congestion_mult - 3.5).abs() < 1e-12);
        assert!((c.spike_mult - 13.0).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_defaults() {
        FluctuationModel::king_default().validate();
        FluctuationModel::planetlab_default().validate();
        FluctuationModel::noiseless().validate();
    }

    #[test]
    #[should_panic(expected = "spike_shape must exceed 1")]
    fn validate_rejects_infinite_mean_spikes() {
        let mut m = FluctuationModel::king_default();
        m.spike_shape = 0.9;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "base RTT must be positive")]
    fn measure_rejects_zero_base() {
        let m = FluctuationModel::king_default();
        let mut rng = stream_rng(2, 0);
        m.measure(0.0, &NoiseProfile::clean(), &mut rng);
    }
}
