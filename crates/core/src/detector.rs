//! The innovation-based hypothesis test (§4.1 of the paper).
//!
//! At each embedding step the node observes a measured relative error
//! `D_n` and the Kalman filter supplies the prediction `Δ̂_{n|n−1}` with
//! innovation variance `v_η,n`. Under hypothesis `H₀` ("the peer is
//! honest") the innovation `η_n = D_n − Δ̂_{n|n−1}` is zero-mean gaussian
//! with variance `v_η,n`, so for significance level `α` the step is
//! flagged as suspicious when
//!
//! ```text
//! |D_n − Δ̂_{n|n−1}| ≥ t_n = √v_η,n · Q⁻¹(α/2)            (Eq. 5)
//! ```
//!
//! On rejection the step is aborted and `D_n` is **discarded** — it never
//! updates the filter state — so a malicious stream cannot drag the
//! filter toward itself.

use crate::kalman::KalmanFilter;
use crate::model::{ModelError, StateSpaceParams};
use ices_stats::q_inverse;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a [`Detector`] could not be built or consulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorError {
    /// Significance level outside `(0, 1)`.
    InvalidAlpha(f64),
    /// The calibrated parameters violate a model invariant.
    InvalidParams(ModelError),
    /// The observation handed to the test is not a finite number.
    NonFiniteObservation(f64),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::InvalidAlpha(a) => {
                write!(f, "significance level must be in (0, 1), got {a}")
            }
            DetectorError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
            DetectorError::NonFiniteObservation(d) => {
                write!(f, "observation must be finite, got {d}")
            }
        }
    }
}

impl std::error::Error for DetectorError {}

impl From<ModelError> for DetectorError {
    fn from(e: ModelError) -> Self {
        DetectorError::InvalidParams(e)
    }
}

/// Outcome of testing one embedding step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Whether the step was flagged as suspicious (and therefore aborted).
    pub suspicious: bool,
    /// The innovation `η_n` the test evaluated.
    pub innovation: f64,
    /// The threshold `t_n` the innovation was compared against.
    pub threshold: f64,
    /// The predicted relative error `Δ̂_{n|n−1}`.
    pub predicted: f64,
    /// The innovation variance `v_η,n`.
    pub innovation_variance: f64,
}

/// The detector's current outlook: the prediction the *next* observation
/// will be judged against, plus the threshold the test would apply at
/// the configured `α`. Returned by [`Detector::prediction`] so
/// diagnostics never have to fabricate a dummy observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outlook {
    /// The predicted relative error `Δ̂_{n|n−1}`.
    pub predicted: f64,
    /// The innovation variance `v_η,n`.
    pub innovation_variance: f64,
    /// The threshold `t_n = √v_η,n · Q⁻¹(α/2)` at the configured `α`.
    pub threshold: f64,
}

/// Consecutive measurement-free steps (lost/timed-out probes absorbed
/// via [`Detector::coast`]) after which the detector reports sample
/// starvation: the coasted filter has drifted to its stationary prior
/// and should be recalibrated from a Surveyor before its verdicts are
/// trusted again.
pub const SAMPLE_STARVATION_LIMIT: u32 = 64;

/// A Kalman filter armed with the significance-level test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    filter: KalmanFilter,
    alpha: f64,
    /// Current run of coasted (measurement-free) steps.
    starvation_streak: u32,
}

impl Detector {
    /// Build a detector from calibrated parameters and a significance
    /// level `α ∈ (0, 1)` (the paper settles on 5%), rejecting invalid
    /// inputs with a typed error.
    pub fn new(params: StateSpaceParams, alpha: f64) -> Result<Self, DetectorError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DetectorError::InvalidAlpha(alpha));
        }
        Ok(Self {
            filter: KalmanFilter::new(params)?,
            alpha,
            starvation_streak: 0,
        })
    }

    /// The configured significance level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying filter (read access for diagnostics).
    pub fn filter(&self) -> &KalmanFilter {
        &self.filter
    }

    /// Mutable filter access for the batched kernel's scatter phase.
    /// Crate-private: only `crate::batch` writes filter state directly.
    pub(crate) fn filter_mut(&mut self) -> &mut KalmanFilter {
        &mut self.filter
    }

    /// Overwrite the starvation streak from the batched kernel's scatter
    /// phase. Crate-private for the same reason as
    /// [`Detector::filter_mut`].
    pub(crate) fn set_starvation_streak(&mut self, streak: u32) {
        self.starvation_streak = streak;
    }

    /// The current prediction state and the threshold the next
    /// observation will face — side-effect-free, for diagnostics that
    /// previously called `evaluate(0.0)` just to read `predicted` and
    /// `threshold` out of the verdict.
    pub fn prediction(&self) -> Outlook {
        let pred = self.filter.predict();
        Outlook {
            predicted: pred.predicted,
            innovation_variance: pred.innovation_variance,
            threshold: pred.innovation_variance.sqrt() * q_inverse(self.alpha / 2.0),
        }
    }

    /// The threshold `t_n` for an arbitrary significance level given the
    /// current prediction state (used by the reprieve mechanism, which
    /// re-tests at level `e_l·α`), rejecting an out-of-range level with
    /// a typed error.
    pub fn threshold_at(&self, alpha: f64) -> Result<f64, DetectorError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DetectorError::InvalidAlpha(alpha));
        }
        let pred = self.filter.predict();
        Ok(pred.innovation_variance.sqrt() * q_inverse(alpha / 2.0))
    }

    /// Evaluate a measured relative error *without* updating the filter,
    /// rejecting a non-finite observation with a typed error.
    ///
    /// Exposed separately so the reprieve logic can inspect a verdict,
    /// apply a second test, and only then decide whether to accept.
    pub fn evaluate(&self, observation: f64) -> Result<Verdict, DetectorError> {
        if !observation.is_finite() {
            return Err(DetectorError::NonFiniteObservation(observation));
        }
        let pred = self.filter.predict();
        let innovation = observation - pred.predicted;
        let threshold = pred.innovation_variance.sqrt() * q_inverse(self.alpha / 2.0);
        Ok(Verdict {
            suspicious: innovation.abs() >= threshold,
            innovation,
            threshold,
            predicted: pred.predicted,
            innovation_variance: pred.innovation_variance,
        })
    }

    /// Accept an observation: incorporate `D_n` into the filter state.
    /// Call only for steps that passed the test (or were reprieved) —
    /// rejected observations must stay out of the filter.
    pub fn accept(&mut self, observation: f64) {
        self.filter.update(observation);
        self.starvation_streak = 0;
    }

    /// Absorb a missing sample (lost or timed-out probe): the filter
    /// takes a time-update only — the state coasts along the model
    /// dynamics and the variance widens — so the innovation statistics
    /// stay honest instead of the filter treating silence as evidence.
    /// Consecutive coasts accumulate into the sample-starvation signal.
    pub fn coast(&mut self) {
        self.filter.time_update();
        self.starvation_streak = self.starvation_streak.saturating_add(1);
    }

    /// Whether the detector is sample-starved: at least
    /// [`SAMPLE_STARVATION_LIMIT`] consecutive probes produced no
    /// measurement. A starved detector's filter has coasted to its
    /// stationary prior; callers should refresh calibration (or keep a
    /// stale Surveyor calibration, which this signal bounds).
    pub fn starved(&self) -> bool {
        self.starvation_streak >= SAMPLE_STARVATION_LIMIT
    }

    /// Consecutive measurement-free steps so far.
    pub fn starvation_streak(&self) -> u32 {
        self.starvation_streak
    }

    /// Test-and-update in one call: evaluates, and feeds the filter only
    /// if the step is *not* suspicious.
    pub fn assess(&mut self, observation: f64) -> Result<Verdict, DetectorError> {
        let verdict = self.evaluate(observation)?;
        if !verdict.suspicious {
            self.accept(observation);
        }
        Ok(verdict)
    }

    /// Install freshly calibrated parameters (from a Surveyor). Clears
    /// the starvation streak along with the filter state; invalid
    /// parameters are refused and leave the detector as it was.
    pub fn recalibrate(&mut self, params: StateSpaceParams) -> Result<(), ModelError> {
        self.filter.recalibrate(params)?;
        self.starvation_streak = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.85,
            v_w: 0.003,
            v_u: 0.002,
            w_bar: 0.015,
            w0: 0.3,
            p0: 0.02,
        }
    }

    #[test]
    fn threshold_matches_equation_five() {
        let d = Detector::new(params(), 0.05).unwrap();
        let verdict = d.evaluate(0.3).unwrap();
        let want = verdict.innovation_variance.sqrt() * q_inverse(0.025);
        assert!((verdict.threshold - want).abs() < 1e-12);
        // For α = 5%, Q⁻¹(0.025) ≈ 1.96.
        assert!(
            (verdict.threshold / verdict.innovation_variance.sqrt() - 1.959_963_984_540_054).abs()
                < 1e-9
        );
    }

    #[test]
    fn flag_rate_on_clean_data_matches_alpha_without_censoring() {
        // With every observation fed to the filter (no censoring), the
        // fraction of innovations beyond the threshold must equal α.
        let p = params();
        let mut rng = stream_rng(20, 0);
        let trace = p.simulate(20_000, &mut rng);
        let mut d = Detector::new(p, 0.05).unwrap();
        let mut flagged = 0usize;
        for &obs in &trace {
            if d.evaluate(obs).unwrap().suspicious {
                flagged += 1;
            }
            d.accept(obs);
        }
        let rate = flagged as f64 / trace.len() as f64;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "uncensored flag rate {rate} should be ≈ 0.05"
        );
    }

    #[test]
    fn censored_operation_inflates_false_positives_only_mildly() {
        // The protocol discards rejected observations (they never update
        // the filter), which slightly raises the false-positive rate
        // above α on clean data — the cost the paper's Fig 11 quantifies.
        let p = params();
        let mut rng = stream_rng(20, 1);
        let trace = p.simulate(20_000, &mut rng);
        let mut d = Detector::new(p, 0.05).unwrap();
        let mut flagged = 0usize;
        for &obs in &trace {
            if d.assess(obs).unwrap().suspicious {
                flagged += 1;
            }
        }
        let fpr = flagged as f64 / trace.len() as f64;
        assert!(
            (0.04..0.13).contains(&fpr),
            "censored clean-data rejection rate {fpr} out of expected band"
        );
    }

    #[test]
    fn flags_large_deviations() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        // Warm the filter with nominal data.
        for _ in 0..50 {
            d.accept(p.stationary_mean());
        }
        // A blatant lie: relative error far beyond anything nominal.
        let verdict = d.evaluate(5.0).unwrap();
        assert!(verdict.suspicious);
    }

    #[test]
    fn rejected_observations_do_not_move_the_filter() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        for _ in 0..50 {
            d.accept(p.stationary_mean());
        }
        let before = d.filter().clone();
        let verdict = d.assess(10.0).unwrap();
        assert!(verdict.suspicious);
        assert_eq!(
            d.filter(),
            &before,
            "a rejected step must not update filter state"
        );
    }

    #[test]
    fn smaller_alpha_is_more_lenient() {
        let d1 = Detector::new(params(), 0.01).unwrap();
        let d5 = Detector::new(params(), 0.05).unwrap();
        let t1 = d1.prediction().threshold;
        let t5 = d5.prediction().threshold;
        assert!(
            t1 > t5,
            "a stricter significance level has a larger threshold: {t1} vs {t5}"
        );
    }

    #[test]
    fn prediction_matches_evaluate_without_an_observation() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        for obs in [0.35, 0.28, 0.41] {
            d.accept(obs);
        }
        let before = d.filter().clone();
        let outlook = d.prediction();
        assert_eq!(d.filter(), &before, "prediction must be side-effect-free");
        // Bit-for-bit the same numbers evaluate() folds into its verdict.
        let v = d.evaluate(0.0).unwrap();
        assert_eq!(outlook.predicted.to_bits(), v.predicted.to_bits());
        assert_eq!(
            outlook.innovation_variance.to_bits(),
            v.innovation_variance.to_bits()
        );
        assert_eq!(outlook.threshold.to_bits(), v.threshold.to_bits());
    }

    #[test]
    fn threshold_at_is_monotone_decreasing_in_alpha() {
        let d = Detector::new(params(), 0.05).unwrap();
        let mut prev = f64::INFINITY;
        for alpha in [0.001, 0.01, 0.03, 0.05, 0.1, 0.3] {
            let t = d.threshold_at(alpha).unwrap();
            assert!(t < prev, "threshold must shrink as α grows");
            prev = t;
        }
    }

    #[test]
    fn detection_power_grows_with_attack_magnitude() {
        let p = params();
        let mut rng = stream_rng(21, 0);
        let clean = p.simulate(2000, &mut rng);
        let mut rates = Vec::new();
        for shift in [0.05, 0.2, 0.8] {
            let mut d = Detector::new(p, 0.05).unwrap();
            let mut caught = 0usize;
            for &obs in &clean {
                // Every observation tampered upward by `shift`.
                if d.assess(obs + shift).unwrap().suspicious {
                    caught += 1;
                }
            }
            rates.push(caught as f64 / clean.len() as f64);
        }
        assert!(
            rates[0] < rates[1] && rates[1] < rates[2],
            "rates {rates:?}"
        );
        assert!(
            rates[2] > 0.95,
            "large attacks must be nearly always caught"
        );
    }

    #[test]
    fn coasting_widens_the_threshold_without_corrupting_state() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        for _ in 0..50 {
            d.accept(p.stationary_mean());
        }
        let before = d.evaluate(p.stationary_mean()).unwrap();
        let updates = d.filter().updates();
        for _ in 0..10 {
            d.coast();
        }
        let after = d.evaluate(p.stationary_mean()).unwrap();
        assert!(
            after.threshold > before.threshold,
            "missing samples must widen the test band: {} vs {}",
            after.threshold,
            before.threshold
        );
        assert_eq!(
            d.filter().updates(),
            updates,
            "coasting must not count as observations"
        );
        // A nominal observation after a blind stretch is not flagged.
        assert!(!after.suspicious);
    }

    #[test]
    fn starvation_fires_at_limit_and_resets_on_sample_or_recalibration() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        for _ in 0..SAMPLE_STARVATION_LIMIT - 1 {
            d.coast();
        }
        assert!(!d.starved());
        d.coast();
        assert!(d.starved());
        // One real sample clears the streak.
        d.accept(p.stationary_mean());
        assert!(!d.starved());
        assert_eq!(d.starvation_streak(), 0);
        // So does recalibration.
        for _ in 0..SAMPLE_STARVATION_LIMIT {
            d.coast();
        }
        assert!(d.starved());
        d.recalibrate(p).unwrap();
        assert!(!d.starved());
    }

    #[test]
    fn assess_resets_starvation_on_accepted_sample() {
        let p = params();
        let mut d = Detector::new(p, 0.05).unwrap();
        for _ in 0..5 {
            d.coast();
        }
        assert_eq!(d.starvation_streak(), 5);
        let v = d.assess(p.stationary_mean()).unwrap();
        assert!(!v.suspicious);
        assert_eq!(d.starvation_streak(), 0);
        // A rejected sample is not a measurement: streak keeps growing.
        d.coast();
        let v = d.assess(100.0).unwrap();
        assert!(v.suspicious);
        assert_eq!(d.starvation_streak(), 1);
    }

    #[test]
    fn invalid_inputs_are_refused_with_typed_errors() {
        for alpha in [0.0, 1.0] {
            assert_eq!(
                Detector::new(params(), alpha).err(),
                Some(DetectorError::InvalidAlpha(alpha))
            );
        }
        let mut bad = params();
        bad.beta = 1.5;
        assert!(matches!(
            Detector::new(bad, 0.05),
            Err(DetectorError::InvalidParams(ModelError::NonStationaryBeta(
                _
            )))
        ));
        let mut d = Detector::new(params(), 0.05).unwrap();
        assert_eq!(
            d.threshold_at(2.0).err(),
            Some(DetectorError::InvalidAlpha(2.0))
        );
        assert!(matches!(
            d.evaluate(f64::NAN),
            Err(DetectorError::NonFiniteObservation(_))
        ));
        let before = d.clone();
        assert!(matches!(
            d.assess(f64::INFINITY),
            Err(DetectorError::NonFiniteObservation(_))
        ));
        assert_eq!(d.recalibrate(bad), Err(ModelError::NonStationaryBeta(1.5)));
        assert_eq!(d, before, "a refused call leaves the detector as it was");
    }

    #[test]
    fn serde_roundtrip() {
        let mut d = Detector::new(params(), 0.05).unwrap();
        d.accept(0.3);
        let json = serde_json::to_string(&d).expect("serialize");
        let back: Detector = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(d, back);
    }
}
