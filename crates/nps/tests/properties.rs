//! Property-based tests of the NPS substrate: simplex optimizer
//! contracts and node round behavior over randomized inputs.

use ices_coord::{Coordinate, Embedding, PeerSample, Space};
use ices_nps::{NelderMeadScratch, NpsConfig, NpsNode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nelder_mead_never_worsens_the_start(
        x0 in proptest::collection::vec(-50f64..50.0, 1..6),
        shift in proptest::collection::vec(-20f64..20.0, 6),
    ) {
        // Quadratic bowl with a random center: the result must be at
        // least as good as the starting point.
        let center = shift[..x0.len()].to_vec();
        let f = |x: &[f64]| -> f64 {
            x.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let start_value = f(&x0);
        let mut scratch = NelderMeadScratch::new();
        let r = scratch.minimize(f, &x0, 1.0, 300, 1e-10);
        prop_assert!(r.value <= start_value + 1e-12);
        prop_assert!(scratch.best_point().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nelder_mead_finds_quadratic_minimum(
        center in proptest::collection::vec(-30f64..30.0, 2..5),
    ) {
        let c = center.clone();
        let f = move |x: &[f64]| -> f64 {
            x.iter().zip(&c).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let x0 = vec![0.0; center.len()];
        let mut scratch = NelderMeadScratch::new();
        scratch.minimize(f, &x0, 2.0, 4000, 1e-12);
        for (got, want) in scratch.best_point().iter().zip(&center) {
            prop_assert!((got - want).abs() < 0.01, "got {got}, want {want}");
        }
    }

    #[test]
    fn node_rounds_never_produce_nonfinite_coordinates(
        anchors in proptest::collection::vec(
            (proptest::collection::vec(-200f64..200.0, 2), 1f64..400.0), 4..12),
        seed in 0u64..300,
    ) {
        let cfg = NpsConfig {
            space: Space::euclidean(2),
            landmarks: 6,
            rps_per_node: 12,
            min_rps: 3,
            solver_max_iter: 150,
            ..NpsConfig::paper_default()
        };
        let mut node = NpsNode::new(0, cfg, seed);
        for (i, (pos, rtt)) in anchors.iter().enumerate() {
            node.apply_step(&PeerSample {
                peer: i,
                peer_coord: Coordinate::euclidean(pos.clone()),
                peer_error: 0.2,
                rtt_ms: *rtt,
            });
        }
        let summary = node.finish_round();
        prop_assert!(node.coordinate().is_finite());
        if let Some(s) = summary {
            prop_assert!(s.fit_error.is_finite() && s.fit_error >= 0.0);
            prop_assert!(s.samples_used >= cfg.min_rps.saturating_sub(1));
        }
        prop_assert_eq!(node.pending_samples(), 0, "buffer always clears");
    }

    #[test]
    fn exact_distances_are_recovered_regardless_of_truth(
        tx in -80f64..80.0,
        ty in -80f64..80.0,
        seed in 0u64..200,
    ) {
        // Anchors at fixed spread positions; distances generated from the
        // random truth point must be recovered by the round.
        let anchors = [
            [0.0, 0.0],
            [120.0, 0.0],
            [0.0, 120.0],
            [120.0, 120.0],
            [60.0, -50.0],
            [-50.0, 60.0],
        ];
        let cfg = NpsConfig {
            space: Space::euclidean(2),
            landmarks: 6,
            rps_per_node: 6,
            min_rps: 3,
            solver_max_iter: 1200,
            solver_restarts: 5,
            ..NpsConfig::paper_default()
        };
        let mut node = NpsNode::new(0, cfg, seed);
        for (i, a) in anchors.iter().enumerate() {
            let d = ((a[0] - tx).powi(2) + (a[1] - ty).powi(2)).sqrt().max(1.0);
            node.apply_step(&PeerSample {
                peer: i,
                peer_coord: Coordinate::euclidean(a.to_vec()),
                peer_error: 0.1,
                rtt_ms: d,
            });
        }
        let summary = node.finish_round().expect("enough samples");
        prop_assert!(
            summary.fit_error < 0.02,
            "exact distances must fit nearly perfectly: {}",
            summary.fit_error
        );
    }
}
