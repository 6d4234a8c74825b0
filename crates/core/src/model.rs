//! The linear state-space model of nominal relative error.
//!
//! Paper §2: in the absence of malicious activity the nominal relative
//! error `Δ_n` of a node's embedding steps follows a first-order
//! autoregressive process, observed through gaussian measurement noise:
//!
//! ```text
//! Δ_{n+1} = β·Δ_n + W_n        W_n ~ N(w̄, v_W)   (system evolution)
//! D_n     = Δ_n + U_n          U_n ~ N(0,  v_U)   (observation)
//! Δ_0     ~ N(w₀, p₀)                             (initial state)
//! ```
//!
//! `β < 1` guarantees the nominal error converges to a stationary regime;
//! the nonzero system-noise mean `w̄` absorbs the slow drift observed in
//! deployed coordinate systems.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid [`StateSpaceParams`] component (first violation found by
/// [`StateSpaceParams::check`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelError {
    /// `|β| ≥ 1` (or non-finite): the error process would not be
    /// stationary.
    NonStationaryBeta(f64),
    /// A variance component (`v_w`, `v_u`, `p0`) is non-positive or
    /// non-finite.
    NonPositiveVariance(&'static str, f64),
    /// A mean component (`w_bar`, `w0`) is non-finite.
    NonFinite(&'static str, f64),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonStationaryBeta(b) => {
                write!(f, "beta must satisfy |beta| < 1 for stationarity, got {b}")
            }
            ModelError::NonPositiveVariance(name, v) => {
                write!(f, "{name} must be positive, got {v}")
            }
            ModelError::NonFinite(name, v) => write!(f, "{name} must be finite, got {v}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The parameter vector `θ = (β, v_W, v_U, w̄, w₀, p₀)` of the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateSpaceParams {
    /// AR coefficient `β` of the nominal error process (strictly below 1
    /// for stationarity).
    pub beta: f64,
    /// Variance `v_W` of the system noise.
    pub v_w: f64,
    /// Variance `v_U` of the observation noise.
    pub v_u: f64,
    /// Mean `w̄` of the system noise (captures coordinate drift).
    pub w_bar: f64,
    /// Mean `w₀` of the initial state.
    pub w0: f64,
    /// Variance `p₀` of the initial state.
    pub p0: f64,
}

impl StateSpaceParams {
    /// A sane starting point for EM calibration: a slowly mixing process
    /// with moderate noise, initialized at a typical early relative error.
    pub fn em_initial_guess() -> Self {
        Self {
            beta: 0.7,
            v_w: 0.01,
            v_u: 0.01,
            w_bar: 0.05,
            w0: 0.5,
            p0: 0.25,
        }
    }

    /// Validate model invariants, reporting the first violated one.
    pub fn check(&self) -> Result<(), ModelError> {
        if !(self.beta.is_finite() && self.beta.abs() < 1.0) {
            return Err(ModelError::NonStationaryBeta(self.beta));
        }
        if !(self.v_w.is_finite() && self.v_w > 0.0) {
            return Err(ModelError::NonPositiveVariance("v_w", self.v_w));
        }
        if !(self.v_u.is_finite() && self.v_u > 0.0) {
            return Err(ModelError::NonPositiveVariance("v_u", self.v_u));
        }
        if !self.w_bar.is_finite() {
            return Err(ModelError::NonFinite("w_bar", self.w_bar));
        }
        if !self.w0.is_finite() {
            return Err(ModelError::NonFinite("w0", self.w0));
        }
        if !(self.p0.is_finite() && self.p0 > 0.0) {
            return Err(ModelError::NonPositiveVariance("p0", self.p0));
        }
        Ok(())
    }

    /// Stationary mean of the nominal error process:
    /// `E[Δ_∞] = w̄ / (1 − β)`.
    pub fn stationary_mean(&self) -> f64 {
        self.w_bar / (1.0 - self.beta)
    }

    /// Stationary variance of the nominal error process:
    /// `Var[Δ_∞] = v_W / (1 − β²)`.
    pub fn stationary_variance(&self) -> f64 {
        self.v_w / (1.0 - self.beta * self.beta)
    }

    /// Largest absolute component-wise difference to another parameter
    /// vector — the quantity the paper's EM convergence test bounds
    /// ("the variations of all the θ components become smaller than
    /// 0.02").
    pub fn max_delta(&self, other: &StateSpaceParams) -> f64 {
        [
            (self.beta - other.beta).abs(),
            (self.v_w - other.v_w).abs(),
            (self.v_u - other.v_u).abs(),
            (self.w_bar - other.w_bar).abs(),
            (self.w0 - other.w0).abs(),
            (self.p0 - other.p0).abs(),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Simulate a clean trace of measured relative errors from this
    /// model — the ground truth generator used by the calibration and
    /// filter tests.
    ///
    /// # Panics
    /// Panics with the [`ModelError`] message on invalid parameters.
    pub fn simulate<R: rand::Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let mut delta = ices_stats::sample::normal(rng, self.w0, self.p0.sqrt());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let d = delta + ices_stats::sample::normal(rng, 0.0, self.v_u.sqrt());
            out.push(d);
            delta =
                self.beta * delta + ices_stats::sample::normal(rng, self.w_bar, self.v_w.sqrt());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;
    use ices_stats::OnlineStats;

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.8,
            v_w: 0.004,
            v_u: 0.002,
            w_bar: 0.02,
            w0: 0.5,
            p0: 0.1,
        }
    }

    #[test]
    fn check_accepts_sane_params() {
        assert_eq!(params().check(), Ok(()));
        assert_eq!(StateSpaceParams::em_initial_guess().check(), Ok(()));
    }

    #[test]
    fn check_rejects_nonstationary_beta() {
        let mut p = params();
        p.beta = 1.0;
        assert_eq!(p.check(), Err(ModelError::NonStationaryBeta(1.0)));
    }

    #[test]
    fn check_rejects_zero_observation_noise() {
        let mut p = params();
        p.v_u = 0.0;
        let err = p.check().unwrap_err();
        assert_eq!(err, ModelError::NonPositiveVariance("v_u", 0.0));
        assert_eq!(err.to_string(), "v_u must be positive, got 0");
    }

    #[test]
    fn stationary_moments() {
        let p = params();
        assert!((p.stationary_mean() - 0.02 / 0.2).abs() < 1e-12);
        assert!((p.stationary_variance() - 0.004 / (1.0 - 0.64)).abs() < 1e-12);
    }

    #[test]
    fn simulate_converges_to_stationary_moments() {
        let p = params();
        let mut rng = stream_rng(3, 0);
        let trace = p.simulate(200_000, &mut rng);
        // Skip burn-in, then compare to theory. Observed variance is the
        // state variance plus v_U.
        let mut s = OnlineStats::new();
        for &d in &trace[1000..] {
            s.push(d);
        }
        assert!(
            (s.mean() - p.stationary_mean()).abs() < 0.01,
            "mean {} vs {}",
            s.mean(),
            p.stationary_mean()
        );
        let want_var = p.stationary_variance() + p.v_u;
        assert!(
            (s.variance() - want_var).abs() / want_var < 0.05,
            "var {} vs {}",
            s.variance(),
            want_var
        );
    }

    #[test]
    fn max_delta_is_componentwise_max() {
        let a = params();
        let mut b = a;
        b.beta += 0.5;
        b.v_u += 0.1;
        assert!((a.max_delta(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_delta(&a.clone()), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let p = params();
        let json = serde_json::to_string(&p).expect("serialize");
        let back: StateSpaceParams = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }
}
