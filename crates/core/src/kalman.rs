//! The scalar Kalman filter over the relative-error state space.
//!
//! Implements §2.1 of the paper verbatim. Prediction:
//!
//! ```text
//! Δ̂_{i|i−1} = β·Δ̂_{i−1|i−1} + w̄
//! P_{i|i−1} = β²·P_{i−1|i−1} + v_W
//! ```
//!
//! Update on observing `D_i`:
//!
//! ```text
//! K_i      = P_{i|i−1} / (P_{i|i−1} + v_U)
//! Δ̂_{i|i} = Δ̂_{i|i−1} + K_i·(D_i − Δ̂_{i|i−1})
//! P_{i|i}  = v_U·P_{i|i−1} / (P_{i|i−1} + v_U)
//! ```
//!
//! The **innovation** `η_i = D_i − Δ̂_{i|i−1}` is, under the clean-system
//! hypothesis, white gaussian with variance `v_η,i = v_U + P_{i|i−1}` —
//! the quantity the detection test thresholds. The filter also tracks the
//! paper's recalibration trigger: 10 consecutive innovations outside the
//! ±2√v_η confidence interval.

use crate::model::{ModelError, StateSpaceParams};
use serde::{Deserialize, Serialize};

/// Number of consecutive out-of-confidence-interval innovations after
/// which the paper recalibrates the filter (§2.2).
pub const RECALIBRATION_STREAK: u32 = 10;

/// Width of the recalibration confidence interval in standard deviations
/// (±2√v_η ≈ the 95% band). `pub(crate)` so the batched kernel
/// (`crate::batch`) applies the identical band.
pub(crate) const RECALIBRATION_BAND: f64 = 2.0;

/// A one-step-ahead prediction: the predicted relative error and the
/// innovation variance an observation would be compared under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// `Δ̂_{i|i−1}` — the predicted relative error.
    pub predicted: f64,
    /// `P_{i|i−1}` — the a-priori state variance.
    pub state_variance: f64,
    /// `v_η,i = v_U + P_{i|i−1}` — the innovation variance.
    pub innovation_variance: f64,
}

/// The scalar Kalman filter of §2.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KalmanFilter {
    params: StateSpaceParams,
    /// `Δ̂_{i|i}` after the most recent update.
    estimate: f64,
    /// `P_{i|i}` after the most recent update.
    variance: f64,
    /// Observations incorporated so far.
    updates: u64,
    /// Current run of innovations outside the ±2σ band.
    outside_streak: u32,
}

impl KalmanFilter {
    /// Initialize from calibrated parameters: `Δ̂_{0|0} = w₀`,
    /// `P_{0|0} = p₀`, rejecting invalid parameters with a typed error.
    pub fn new(params: StateSpaceParams) -> Result<Self, ModelError> {
        params.check()?;
        Ok(Self {
            params,
            estimate: params.w0,
            variance: params.p0,
            updates: 0,
            outside_streak: 0,
        })
    }

    /// The calibrated parameters this filter runs on.
    pub fn params(&self) -> &StateSpaceParams {
        &self.params
    }

    /// Current filtered estimate `Δ̂_{i|i}`.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Current a-posteriori variance `P_{i|i}`.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Observations incorporated so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Raw mutable state for the batched kernel's gather phase:
    /// `(estimate, variance, updates, outside_streak)`. Crate-private:
    /// only `crate::batch` flattens filters into SoA columns.
    pub(crate) fn raw_state(&self) -> (f64, f64, u64, u32) {
        (
            self.estimate,
            self.variance,
            self.updates,
            self.outside_streak,
        )
    }

    /// Scatter the batched kernel's column back into this filter. The
    /// bank runs the exact update/time-update recursions, so the values
    /// written here are bit-for-bit what the scalar path would have
    /// produced. Crate-private for the same reason as
    /// [`KalmanFilter::raw_state`].
    pub(crate) fn set_raw_state(
        &mut self,
        estimate: f64,
        variance: f64,
        updates: u64,
        outside_streak: u32,
    ) {
        self.estimate = estimate;
        self.variance = variance;
        self.updates = updates;
        self.outside_streak = outside_streak;
    }

    /// One-step-ahead prediction for the next observation.
    pub fn predict(&self) -> Prediction {
        let p = &self.params;
        let predicted = p.beta * self.estimate + p.w_bar;
        let state_variance = p.beta * p.beta * self.variance + p.v_w;
        Prediction {
            predicted,
            state_variance,
            innovation_variance: state_variance + p.v_u,
        }
    }

    /// Incorporate an observed relative error `D_i`, returning the
    /// innovation `η_i = D_i − Δ̂_{i|i−1}`.
    ///
    /// # Panics
    /// Panics on a non-finite observation.
    pub fn update(&mut self, observation: f64) -> f64 {
        assert!(
            observation.is_finite(),
            "observation must be finite, got {observation}"
        );
        let pred = self.predict();
        let innovation = observation - pred.predicted;
        let gain = pred.state_variance / (pred.state_variance + self.params.v_u);
        self.estimate = pred.predicted + gain * innovation;
        self.variance =
            self.params.v_u * pred.state_variance / (pred.state_variance + self.params.v_u);
        debug_assert!(
            self.variance.is_finite() && self.variance >= 0.0,
            "posterior variance must stay finite and non-negative, got {}",
            self.variance
        );
        self.updates += 1;
        // Recalibration bookkeeping (±2σ band, §2.2).
        let band = RECALIBRATION_BAND * pred.innovation_variance.sqrt();
        if innovation.abs() > band {
            self.outside_streak += 1;
        } else {
            self.outside_streak = 0;
        }
        innovation
    }

    /// Advance the filter one step **without** a measurement (the
    /// time-update half of the Kalman recursion):
    ///
    /// ```text
    /// Δ̂_{i|i} ← β·Δ̂_{i−1|i−1} + w̄        (no gain correction)
    /// P_{i|i} ← β²·P_{i−1|i−1} + v_W      (uncertainty grows)
    /// ```
    ///
    /// This is how a lost or timed-out probe is absorbed: the state
    /// coasts along the model dynamics and the variance widens, so the
    /// next real observation is judged against an honestly larger
    /// innovation variance instead of a stale, over-confident one.
    /// Does not count as an update and leaves the recalibration streak
    /// untouched (no innovation was observed).
    pub fn time_update(&mut self) {
        let pred = self.predict();
        self.estimate = pred.predicted;
        self.variance = pred.state_variance;
        debug_assert!(
            self.variance.is_finite() && self.variance >= 0.0,
            "coasting variance must stay finite and non-negative, got {}",
            self.variance
        );
    }

    /// Whether the paper's recalibration condition has fired: 10
    /// consecutive innovations outside the ±2√v_η confidence interval.
    pub fn needs_recalibration(&self) -> bool {
        self.outside_streak >= RECALIBRATION_STREAK
    }

    /// Reset state after recalibration with fresh parameters, refusing
    /// invalid ones (the filter is then left as it was).
    pub fn recalibrate(&mut self, params: StateSpaceParams) -> Result<(), ModelError> {
        *self = Self::new(params)?;
        Ok(())
    }

    /// Run the filter over a whole trace, returning each step's
    /// `(prediction, innovation)` — the series Fig 2 of the paper plots.
    ///
    /// # Panics
    /// Panics if the parameters are invalid: callers hand it the output
    /// of EM calibration, which always satisfies the model invariants.
    pub fn run_trace(params: StateSpaceParams, observations: &[f64]) -> Vec<(Prediction, f64)> {
        #[allow(clippy::expect_used)] // same contract as the audit:allow below
        // audit:allow(PANIC01): run_trace replays EM-calibrated params, which always pass check(); invalid ones are a caller bug that must fail loudly
        let mut filter = Self::new(params).expect("run_trace needs valid parameters");
        observations
            .iter()
            .map(|&d| {
                let pred = filter.predict();
                let innovation = filter.update(d);
                (pred, innovation)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;
    use ices_stats::{lilliefors_test, norm_cdf, LillieforsOutcome, OnlineStats};

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.85,
            v_w: 0.003,
            v_u: 0.002,
            w_bar: 0.015,
            w0: 0.4,
            p0: 0.05,
        }
    }

    #[test]
    fn initializes_from_w0_p0() {
        let f = KalmanFilter::new(params()).unwrap();
        assert_eq!(f.estimate(), 0.4);
        assert_eq!(f.variance(), 0.05);
        assert_eq!(f.updates(), 0);
    }

    #[test]
    fn predict_follows_paper_equations() {
        let f = KalmanFilter::new(params()).unwrap();
        let pred = f.predict();
        assert!((pred.predicted - (0.85 * 0.4 + 0.015)).abs() < 1e-12);
        assert!((pred.state_variance - (0.85 * 0.85 * 0.05 + 0.003)).abs() < 1e-12);
        assert!((pred.innovation_variance - (pred.state_variance + 0.002)).abs() < 1e-12);
    }

    #[test]
    fn update_applies_kalman_gain() {
        let mut f = KalmanFilter::new(params()).unwrap();
        let pred = f.predict();
        let obs = 0.6;
        let innovation = f.update(obs);
        assert!((innovation - (obs - pred.predicted)).abs() < 1e-12);
        let gain = pred.state_variance / (pred.state_variance + 0.002);
        assert!((f.estimate() - (pred.predicted + gain * innovation)).abs() < 1e-12);
        // Posterior variance shrinks below both prior and v_U.
        assert!(f.variance() < pred.state_variance);
        assert!(f.variance() < 0.002);
    }

    #[test]
    fn variance_converges_to_steady_state() {
        let mut f = KalmanFilter::new(params()).unwrap();
        let mut rng = stream_rng(1, 0);
        let trace = params().simulate(2000, &mut rng);
        let mut last = f64::NAN;
        for &d in &trace {
            f.update(d);
            last = f.variance();
        }
        // Steady-state Riccati fixed point: P = vU(β²P + vW)/(β²P + vW + vU).
        let p = last;
        let prior = 0.85 * 0.85 * p + 0.003;
        let fixed = 0.002 * prior / (prior + 0.002);
        assert!((p - fixed).abs() < 1e-9, "P = {p}, fixed point = {fixed}");
    }

    #[test]
    fn innovations_on_clean_data_are_white_gaussian() {
        // The model's own data must produce standardized innovations that
        // pass the very normality test the paper applies (§3.1).
        let p = params();
        let mut rng = stream_rng(2, 0);
        let trace = p.simulate(3000, &mut rng);
        let mut f = KalmanFilter::new(p).unwrap();
        let mut standardized = Vec::with_capacity(trace.len());
        for &d in &trace {
            let pred = f.predict();
            let innovation = f.update(d);
            standardized.push(innovation / pred.innovation_variance.sqrt());
        }
        // Drop the transient.
        let z = &standardized[100..];
        let mut s = OnlineStats::new();
        for &x in z {
            s.push(x);
        }
        assert!(s.mean().abs() < 0.08, "mean = {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.1, "var = {}", s.variance());
        let LillieforsOutcome { rejected, .. } =
            lilliefors_test(z, ices_stats::lilliefors::Significance::OnePercent);
        assert!(!rejected, "innovations should look gaussian");
        // Whiteness: lag-1 autocorrelation near zero.
        let mean = s.mean();
        let num: f64 = z.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let den: f64 = z.iter().map(|x| (x - mean) * (x - mean)).sum();
        let rho1 = num / den;
        assert!(rho1.abs() < 0.08, "lag-1 autocorrelation {rho1}");
    }

    #[test]
    fn innovation_coverage_matches_gaussian_tail() {
        // ~95% of innovations should fall inside ±1.96σ on clean data.
        let p = params();
        let mut rng = stream_rng(3, 0);
        let trace = p.simulate(20_000, &mut rng);
        let mut f = KalmanFilter::new(p).unwrap();
        let mut inside = 0usize;
        for &d in &trace {
            let pred = f.predict();
            let innovation = f.update(d);
            if innovation.abs() <= 1.96 * pred.innovation_variance.sqrt() {
                inside += 1;
            }
        }
        let frac = inside as f64 / trace.len() as f64;
        let want = norm_cdf(1.96) - norm_cdf(-1.96);
        assert!((frac - want).abs() < 0.01, "coverage {frac} vs {want}");
    }

    #[test]
    fn recalibration_fires_after_ten_consecutive_outliers() {
        let mut f = KalmanFilter::new(params()).unwrap();
        // Feed benign data first.
        for _ in 0..20 {
            f.update(f.predict().predicted);
            assert!(!f.needs_recalibration());
        }
        // Now hammer it with wildly deviant observations.
        for i in 0..10 {
            assert!(!f.needs_recalibration(), "fired early at {i}");
            f.update(100.0 + i as f64 * 50.0);
        }
        assert!(f.needs_recalibration());
    }

    #[test]
    fn streak_resets_on_inlier() {
        let mut f = KalmanFilter::new(params()).unwrap();
        for _ in 0..9 {
            f.update(1e6); // way outside
        }
        assert!(!f.needs_recalibration());
        f.update(f.predict().predicted); // back inside
        for _ in 0..9 {
            f.update(1e6);
        }
        assert!(!f.needs_recalibration(), "streak should have reset");
    }

    #[test]
    fn recalibrate_resets_everything() {
        let mut f = KalmanFilter::new(params()).unwrap();
        for _ in 0..15 {
            f.update(1e6);
        }
        assert!(f.needs_recalibration());
        f.recalibrate(params()).unwrap();
        assert!(!f.needs_recalibration());
        assert_eq!(f.updates(), 0);
        assert_eq!(f.estimate(), 0.4);
    }

    #[test]
    fn tracking_reduces_prediction_error_versus_constant() {
        // The filter must beat the naive "predict the stationary mean"
        // baseline on autocorrelated data.
        let p = params();
        let mut rng = stream_rng(4, 0);
        let trace = p.simulate(5000, &mut rng);
        let mut f = KalmanFilter::new(p).unwrap();
        let stationary = p.stationary_mean();
        let mut filter_se = 0.0;
        let mut baseline_se = 0.0;
        for &d in &trace[100..] {
            let pred = f.predict();
            filter_se += (d - pred.predicted).powi(2);
            baseline_se += (d - stationary).powi(2);
            f.update(d);
        }
        assert!(
            filter_se < 0.8 * baseline_se,
            "filter {filter_se} vs baseline {baseline_se}"
        );
    }

    #[test]
    fn run_trace_matches_stepwise_filtering() {
        let p = params();
        let mut rng = stream_rng(5, 0);
        let trace = p.simulate(100, &mut rng);
        let batch = KalmanFilter::run_trace(p, &trace);
        let mut f = KalmanFilter::new(p).unwrap();
        for (i, &d) in trace.iter().enumerate() {
            let pred = f.predict();
            let innovation = f.update(d);
            assert_eq!(batch[i].0, pred);
            assert_eq!(batch[i].1, innovation);
        }
    }

    #[test]
    fn time_update_follows_model_dynamics() {
        let mut f = KalmanFilter::new(params()).unwrap();
        f.update(0.35);
        let pred = f.predict();
        let updates = f.updates();
        f.time_update();
        assert_eq!(f.estimate(), pred.predicted);
        assert_eq!(f.variance(), pred.state_variance);
        assert_eq!(f.updates(), updates, "coasting is not an observation");
    }

    #[test]
    fn time_update_grows_variance_boundedly() {
        // Coasting widens uncertainty each step but converges to the
        // stationary variance v_W / (1 − β²), never diverging.
        let mut f = KalmanFilter::new(params()).unwrap();
        for _ in 0..50 {
            f.update(0.3);
        }
        let posterior = f.variance();
        let mut prev = posterior;
        for _ in 0..500 {
            f.time_update();
            assert!(f.variance() >= prev, "variance must not shrink while blind");
            prev = f.variance();
        }
        let stationary = 0.003 / (1.0 - 0.85 * 0.85);
        assert!(
            (f.variance() - stationary).abs() < 1e-9,
            "coasting variance {} should settle at {stationary}",
            f.variance()
        );
    }

    #[test]
    fn time_update_preserves_recalibration_streak() {
        let mut f = KalmanFilter::new(params()).unwrap();
        for _ in 0..9 {
            f.update(1e6);
        }
        assert!(!f.needs_recalibration());
        f.time_update();
        f.update(1e6);
        assert!(
            f.needs_recalibration(),
            "a measurement-free step must not reset the outlier streak"
        );
    }

    #[test]
    #[should_panic(expected = "observation must be finite")]
    fn update_rejects_nan() {
        KalmanFilter::new(params()).unwrap().update(f64::NAN);
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let mut f = KalmanFilter::new(params()).unwrap();
        f.update(0.3);
        f.update(0.45);
        let json = serde_json::to_string(&f).expect("serialize");
        let back: KalmanFilter = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(f, back);
    }
}
