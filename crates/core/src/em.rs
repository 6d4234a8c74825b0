//! EM calibration of the state-space parameters (§2.2 of the paper).
//!
//! Calibration runs over a trace of measured relative errors collected in
//! a stationary, cheater-free period and maximizes the likelihood of the
//! linear state-space model by Expectation–Maximization (following the
//! Ghahramani–Hinton derivation the paper cites):
//!
//! * **E-step** — with parameters fixed, compute the smoothed state
//!   moments `δ̂_i = E[Δ_i|D₀ᴺ]`, `π̂_i = E[Δ_i²|D₀ᴺ]` and
//!   `π̂_{i,i−1} = E[Δ_i·Δ_{i−1}|D₀ᴺ]` with a forward Kalman pass, a
//!   backward Rauch–Tung–Striebel smoother, and the lag-one covariance
//!   recursion.
//! * **M-step** — update `θ` with the paper's closed forms; `β` and `w̄`
//!   are coupled through two linear equations and are solved jointly.
//!
//! Iteration stops when every component of `θ` moves less than the
//! paper's 0.02 (configurable), or at an iteration cap.

use crate::kalman::{predict_step, update_step};
use crate::model::StateSpaceParams;
use serde::{Deserialize, Serialize};

/// EM driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Stop when all θ components move less than this between iterations
    /// (the paper uses 0.02).
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Variances are clamped at this floor to keep the filter proper.
    pub variance_floor: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.02,
            max_iterations: 200,
            variance_floor: 1e-8,
        }
    }
}

/// Result of an EM calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationOutcome {
    /// The calibrated parameters.
    pub params: StateSpaceParams,
    /// EM iterations executed.
    pub iterations: usize,
    /// Whether the θ-delta tolerance was met (vs hitting the cap).
    pub converged: bool,
    /// Per-iteration observed-data log-likelihood (should be
    /// non-decreasing up to numerical noise).
    pub log_likelihood: Vec<f64>,
}

/// Smoothed moments from one E-step.
struct Smoothed {
    /// `δ̂_i = E[Δ_i | D₀ᴺ]`.
    mean: Vec<f64>,
    /// `Var[Δ_i | D₀ᴺ]`.
    var: Vec<f64>,
    /// `Cov[Δ_i, Δ_{i−1} | D₀ᴺ]`, indexed by `i ∈ 1..=N` at `i − 1`.
    lag_cov: Vec<f64>,
    /// Observed-data log-likelihood of this pass.
    log_likelihood: f64,
}

/// One forward-backward pass (E-step) under fixed parameters.
fn e_step(params: &StateSpaceParams, observations: &[f64]) -> Smoothed {
    let n = observations.len();
    debug_assert!(n >= 2);
    let (beta, v_w, v_u, w_bar) = (params.beta, params.v_w, params.v_u, params.w_bar);

    // Forward Kalman pass. Unlike `KalmanFilter`, which starts from
    // `Δ̂_{0|0} = w₀`, EM takes `(w₀, p₀)` as the prediction for i = 0.
    let mut pred_mean = vec![0.0; n];
    let mut pred_var = vec![0.0; n];
    let mut filt_mean = vec![0.0; n];
    let mut filt_var = vec![0.0; n];
    let mut log_likelihood = 0.0;
    for i in 0..n {
        let (pm, pv) = if i == 0 {
            (params.w0, params.p0)
        } else {
            predict_step(beta, w_bar, v_w, filt_mean[i - 1], filt_var[i - 1])
        };
        pred_mean[i] = pm;
        pred_var[i] = pv;
        let innovation;
        (innovation, filt_mean[i], filt_var[i]) = update_step(pm, pv, v_u, observations[i]);
        let s = pv + v_u; // innovation variance
        log_likelihood +=
            -0.5 * ((2.0 * std::f64::consts::PI * s).ln() + innovation * innovation / s);
    }

    // Backward RTS smoother.
    let mut mean = filt_mean.clone();
    let mut var = filt_var.clone();
    let mut smoother_gain = vec![0.0; n - 1];
    for i in (0..n - 1).rev() {
        let j = filt_var[i] * beta / pred_var[i + 1];
        smoother_gain[i] = j;
        mean[i] = filt_mean[i] + j * (mean[i + 1] - pred_mean[i + 1]);
        var[i] = filt_var[i] + j.powi(2) * (var[i + 1] - pred_var[i + 1]);
    }

    // Lag-one covariance smoother (Shumway–Stoffer Property 6.3).
    let mut lag_cov = vec![0.0; n - 1];
    let last_gain = pred_var[n - 1] / (pred_var[n - 1] + v_u);
    lag_cov[n - 2] = (1.0 - last_gain) * beta * filt_var[n - 2];
    for i in (1..n - 1).rev() {
        lag_cov[i - 1] = filt_var[i] * smoother_gain[i - 1]
            + smoother_gain[i] * (lag_cov[i] - beta * filt_var[i]) * smoother_gain[i - 1];
    }

    Smoothed {
        mean,
        var,
        lag_cov,
        log_likelihood,
    }
}

/// Maximization step: the paper's closed-form updates.
fn m_step(observations: &[f64], sm: &Smoothed, config: &EmConfig) -> StateSpaceParams {
    let n = observations.len();
    let n_trans = (n - 1) as f64; // transitions i = 1..N

    // Sufficient statistics.
    let delta = &sm.mean;
    let pi: Vec<f64> = sm
        .mean
        .iter()
        .zip(&sm.var)
        .map(|(m, v)| v + m * m)
        .collect();
    let pi_lag: Vec<f64> = (1..n)
        .map(|i| sm.lag_cov[i - 1] + delta[i] * delta[i - 1])
        .collect();

    // Initial state.
    // audit:allow(PANIC02): public entry asserts >= 10 observations
    let w0 = delta[0];
    let p0 = sm.var[0].max(config.variance_floor); // audit:allow(PANIC02): public entry asserts >= 10 observations

    // Observation noise.
    let v_u = (observations
        .iter()
        .zip(delta.iter().zip(&pi))
        .map(|(&d, (&m, &p))| d * d - 2.0 * d * m + p)
        .sum::<f64>()
        / n as f64)
        .max(config.variance_floor);

    // Joint (β, w̄) solve:  β·S + w̄·B = A  and  β·B + w̄·n = C.
    let s: f64 = pi[..n - 1].iter().sum();
    let b: f64 = delta[..n - 1].iter().sum();
    let c: f64 = delta[1..].iter().sum();
    let a: f64 = pi_lag.iter().sum();
    let det = s * n_trans - b.powi(2);
    let (mut beta, w_bar) = if det.abs() > 1e-12 {
        let beta = (a * n_trans - b * c) / det;
        let w_bar = (c * s - a * b) / det;
        (beta, w_bar)
    } else {
        // Degenerate statistics (constant smoothed state): keep a
        // stationary random-walk-ish fallback.
        (0.0, if n_trans > 0.0 { c / n_trans } else { 0.0 })
    };
    // Stationarity guard (the paper requires β strictly below 1).
    beta = beta.clamp(-0.999, 0.999);

    // System noise variance: E[(Δ_i − βΔ_{i−1} − w̄)²] averaged over
    // transitions.
    let v_w = ((1..n)
        .map(|i| {
            pi[i] + beta * beta * pi[i - 1] + w_bar * w_bar
                - 2.0 * beta * pi_lag[i - 1]
                - 2.0 * w_bar * delta[i]
                + 2.0 * beta * w_bar * delta[i - 1]
        })
        .sum::<f64>()
        / n_trans)
        .max(config.variance_floor);

    StateSpaceParams {
        beta,
        v_w,
        v_u,
        w_bar,
        w0,
        p0,
    }
}

/// Calibrate the state-space parameters on a clean trace of measured
/// relative errors.
///
/// # Panics
/// Panics if fewer than 10 observations are supplied, any observation
/// is non-finite, or `initial` fails [`StateSpaceParams::check`].
pub fn calibrate(
    observations: &[f64],
    initial: StateSpaceParams,
    config: &EmConfig,
) -> CalibrationOutcome {
    assert!(
        observations.len() >= 10,
        "calibration needs at least 10 observations, got {}",
        observations.len()
    );
    assert!(
        observations.iter().all(|d| d.is_finite()),
        "observations must be finite"
    );
    if let Err(e) = initial.check() {
        panic!("{e}");
    }

    let mut params = initial;
    let mut log_likelihood = Vec::with_capacity(config.max_iterations);
    let mut converged = false;
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        let sm = e_step(&params, observations);
        log_likelihood.push(sm.log_likelihood);
        let next = m_step(observations, &sm, config);
        let delta = params.max_delta(&next);
        params = next;
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }

    CalibrationOutcome {
        params,
        iterations,
        converged,
        log_likelihood,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;

    fn truth() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.8,
            v_w: 0.004,
            v_u: 0.002,
            w_bar: 0.03,
            w0: 0.5,
            p0: 0.05,
        }
    }

    fn tight_config() -> EmConfig {
        EmConfig {
            tolerance: 1e-4,
            max_iterations: 500,
            variance_floor: 1e-10,
        }
    }

    #[test]
    fn recovers_known_parameters() {
        let p = truth();
        let mut rng = stream_rng(10, 0);
        let trace = p.simulate(8000, &mut rng);
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &tight_config(),
        );
        assert!(
            out.converged,
            "EM did not converge in {} iters",
            out.iterations
        );
        let got = out.params;
        assert!(
            (got.beta - p.beta).abs() < 0.1,
            "beta {} vs {}",
            got.beta,
            p.beta
        );
        // The stationary mean is identifiable even when β and w̄ trade off.
        assert!(
            (got.stationary_mean() - p.stationary_mean()).abs() < 0.02,
            "stationary mean {} vs {}",
            got.stationary_mean(),
            p.stationary_mean()
        );
        // Total observed variance splits between v_w and v_u; check the sum.
        let got_total = got.stationary_variance() + got.v_u;
        let want_total = p.stationary_variance() + p.v_u;
        assert!(
            (got_total - want_total).abs() / want_total < 0.15,
            "total var {} vs {}",
            got_total,
            want_total
        );
    }

    #[test]
    fn log_likelihood_is_nondecreasing() {
        let p = truth();
        let mut rng = stream_rng(11, 0);
        let trace = p.simulate(1500, &mut rng);
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &tight_config(),
        );
        for w in out.log_likelihood.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "log-likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn paper_tolerance_converges_quickly() {
        let p = truth();
        let mut rng = stream_rng(12, 0);
        let trace = p.simulate(2000, &mut rng);
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        assert!(out.converged);
        assert!(
            out.iterations <= 60,
            "paper-tolerance EM should be quick, took {}",
            out.iterations
        );
    }

    #[test]
    fn calibrated_params_are_valid_model() {
        let p = truth();
        let mut rng = stream_rng(13, 0);
        let trace = p.simulate(800, &mut rng);
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        assert_eq!(out.params.check(), Ok(()));
    }

    #[test]
    fn calibrated_filter_whitens_innovations() {
        // End-to-end: calibrate on one trace, filter a second independent
        // trace, innovations should be standardized white noise.
        let p = truth();
        let mut rng = stream_rng(14, 0);
        let train = p.simulate(4000, &mut rng);
        let test = p.simulate(4000, &mut rng);
        let out = calibrate(
            &train,
            StateSpaceParams::em_initial_guess(),
            &tight_config(),
        );
        let mut filter = crate::kalman::KalmanFilter::new(out.params).unwrap();
        let mut z = Vec::new();
        for &d in &test {
            let pred = filter.predict();
            let innovation = filter.update(d);
            z.push(innovation / pred.innovation_variance.sqrt());
        }
        let z = &z[100..];
        let mut s = ices_stats::OnlineStats::new();
        for &x in z {
            s.push(x);
        }
        assert!(s.mean().abs() < 0.06, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.12, "var {}", s.variance());
    }

    #[test]
    fn handles_nearly_constant_traces() {
        // A degenerate trace (tiny variation) must not produce NaNs or an
        // invalid model.
        let trace: Vec<f64> = (0..100).map(|i| 0.2 + 1e-9 * (i % 3) as f64).collect();
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        assert_eq!(out.params.check(), Ok(()));
        assert!(out.params.beta.abs() < 1.0);
    }

    #[test]
    fn deterministic() {
        let p = truth();
        let mut rng = stream_rng(15, 0);
        let trace = p.simulate(500, &mut rng);
        let a = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        let b = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        assert_eq!(a, b);
    }

    /// Bit golden of `deterministic`'s trace: `deterministic` compares
    /// two runs of one build, so only pinned bits catch a change to the
    /// E-step's arithmetic.
    #[test]
    fn calibration_bits_are_pinned() {
        let mut rng = stream_rng(15, 0);
        let trace = truth().simulate(500, &mut rng);
        let out = calibrate(
            &trace,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
        let p = out.params;
        let bits = [p.beta, p.v_w, p.v_u, p.w_bar, p.w0, p.p0].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x3fe3_7cf7_3666_60ba,
                0x3f74_c70d_0012_63db,
                0x3f72_ede1_1124_9f18,
                0x3fae_1f26_2a26_76f4,
                0x3fe0_8af9_bde7_1744,
                0x3f69_bcef_1415_f38d,
            ]
        );
        assert_eq!(out.iterations, 2);
        assert!(out.converged);
        let ll: Vec<u64> = out.log_likelihood.iter().map(|l| l.to_bits()).collect();
        assert_eq!(ll, [0x4079_8f4d_0333_cd31, 0x407e_00a6_f844_fa02]);
    }

    #[test]
    #[should_panic(expected = "at least 10 observations")]
    fn rejects_tiny_traces() {
        calibrate(
            &[0.1; 5],
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "observations must be finite")]
    fn rejects_nan_observations() {
        let mut t = vec![0.1; 20];
        t[7] = f64::NAN;
        calibrate(
            &t,
            StateSpaceParams::em_initial_guess(),
            &EmConfig::default(),
        );
    }
}
