//! Property-based tests of the core invariants: the Kalman filter's
//! variance algebra, the detector's monotonicity, and the EM
//! calibration's contracts — over randomized parameters and traces.

use ices_core::{calibrate, Detector, EmConfig, KalmanFilter, StateSpaceParams};
use proptest::prelude::*;

/// Strategy for valid state-space parameters.
fn params_strategy() -> impl Strategy<Value = StateSpaceParams> {
    (
        -0.95f64..0.95, // beta
        1e-5f64..0.05,  // v_w
        1e-5f64..0.05,  // v_u
        -0.1f64..0.2,   // w_bar
        0.0f64..1.0,    // w0
        1e-4f64..0.5,   // p0
    )
        .prop_map(|(beta, v_w, v_u, w_bar, w0, p0)| StateSpaceParams {
            beta,
            v_w,
            v_u,
            w_bar,
            w0,
            p0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn posterior_variance_below_prior_and_observation_noise(
        p in params_strategy(),
        obs in proptest::collection::vec(-2f64..3.0, 1..80),
    ) {
        let mut f = KalmanFilter::new(p).unwrap();
        for &d in &obs {
            let pred = f.predict();
            f.update(d);
            // Conditioning on an observation can only reduce uncertainty.
            prop_assert!(f.variance() <= pred.state_variance + 1e-15);
            prop_assert!(f.variance() <= p.v_u + 1e-15);
            prop_assert!(f.variance() > 0.0);
        }
    }

    #[test]
    fn innovation_variance_always_exceeds_observation_noise(
        p in params_strategy(),
        obs in proptest::collection::vec(-2f64..3.0, 1..50),
    ) {
        let mut f = KalmanFilter::new(p).unwrap();
        for &d in &obs {
            let pred = f.predict();
            prop_assert!(pred.innovation_variance >= p.v_u);
            prop_assert!(pred.innovation_variance.is_finite());
            f.update(d);
        }
    }

    #[test]
    fn estimate_moves_toward_the_observation(
        p in params_strategy(),
        obs in -2f64..3.0,
    ) {
        let mut f = KalmanFilter::new(p).unwrap();
        let pred = f.predict();
        f.update(obs);
        // The posterior lies strictly between prediction and observation
        // (Kalman gain ∈ (0, 1) because both variances are positive).
        let lo = pred.predicted.min(obs) - 1e-12;
        let hi = pred.predicted.max(obs) + 1e-12;
        prop_assert!(f.estimate() >= lo && f.estimate() <= hi);
    }

    #[test]
    fn variance_converges_to_a_fixed_point(
        p in params_strategy(),
    ) {
        let mut f = KalmanFilter::new(p).unwrap();
        for _ in 0..500 {
            f.update(p.w0);
        }
        let settled = f.variance();
        f.update(p.w0);
        prop_assert!((f.variance() - settled).abs() < 1e-9,
            "variance must settle: {settled} -> {}", f.variance());
    }

    #[test]
    fn detector_threshold_monotone_in_alpha(
        p in params_strategy(),
        obs in proptest::collection::vec(-1f64..2.0, 0..30),
    ) {
        let mut d = Detector::new(p, 0.05).unwrap();
        for &x in &obs {
            d.accept(x);
        }
        let mut prev = f64::INFINITY;
        for alpha in [0.001, 0.01, 0.05, 0.2, 0.5] {
            let t = d.threshold_at(alpha).unwrap();
            prop_assert!(t < prev, "threshold must shrink as α grows");
            prop_assert!(t > 0.0);
            prev = t;
        }
    }

    #[test]
    fn verdict_is_consistent_with_threshold(
        p in params_strategy(),
        obs in -3f64..4.0,
    ) {
        let d = Detector::new(p, 0.05).unwrap();
        let v = d.evaluate(obs).unwrap();
        prop_assert_eq!(v.suspicious, v.innovation.abs() >= v.threshold);
        prop_assert!((v.innovation - (obs - v.predicted)).abs() < 1e-12);
    }

    #[test]
    fn rejected_observations_never_change_state(
        p in params_strategy(),
        warm in proptest::collection::vec(-0.2f64..0.8, 5..40),
    ) {
        let mut d = Detector::new(p, 0.05).unwrap();
        for &x in &warm {
            d.accept(x);
        }
        let before = d.filter().clone();
        // An observation guaranteed beyond any plausible threshold.
        let v = d.assess(1e6).unwrap();
        prop_assert!(v.suspicious);
        prop_assert_eq!(d.filter(), &before);
    }

    #[test]
    fn em_always_returns_a_valid_stationary_model(
        p in params_strategy(),
        seed in 0u64..1000,
        n in 60usize..300,
    ) {
        let mut rng = ices_stats::rng::stream_rng(seed, 0);
        let trace = p.simulate(n, &mut rng);
        let out = calibrate(&trace, StateSpaceParams::em_initial_guess(), &EmConfig::default());
        prop_assert_eq!(out.params.check(), Ok(()));
        prop_assert!(out.iterations >= 1);
        prop_assert!(!out.log_likelihood.is_empty());
        for w in out.log_likelihood.windows(2) {
            prop_assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "EM log-likelihood decreased: {} -> {}", w[0], w[1]
            );
        }
    }

    #[test]
    fn run_trace_is_pure(
        p in params_strategy(),
        obs in proptest::collection::vec(-1f64..2.0, 1..60),
    ) {
        let a = KalmanFilter::run_trace(p, &obs);
        let b = KalmanFilter::run_trace(p, &obs);
        prop_assert_eq!(a, b);
    }
}
