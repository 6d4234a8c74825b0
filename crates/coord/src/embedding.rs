//! Protocol-agnostic embedding abstractions.
//!
//! §2 of the paper reduces *any* embedding system to a sequence of
//! embedding steps: "each embedding step represents a coordinate
//! adjustment based on a one-to-one interaction with another node". The
//! fitness of a step is the **measured relative error**
//!
//! ```text
//! D_n = | ‖x_i − x_j‖ − RTT_ij | / RTT_ij
//! ```
//!
//! a dimensionless quantity common to every embedding method — which is
//! what lets a single Kalman model secure both Vivaldi and NPS. This
//! module defines that quantity and the [`Embedding`] trait through which
//! the generic detection protocol (in `ices-core`) drives a concrete
//! embedding system.

use crate::coordinate::Coordinate;
use serde::{Deserialize, Serialize};

/// Measured relative error of an embedding step:
/// `| estimated − measured | / measured`.
///
/// # Panics
/// Panics if `rtt_ms` is not strictly positive (a measured RTT of zero is
/// a broken measurement, not a valid observation).
pub fn relative_error(own: &Coordinate, peer: &Coordinate, rtt_ms: f64) -> f64 {
    relative_error_of(own.distance(peer), rtt_ms)
}

/// [`relative_error`] of an estimate the caller already computed
/// (`own.distance(peer)`), so a step that also needs the estimate
/// measures the distance once.
///
/// # Panics
/// Panics if `rtt_ms` is not strictly positive and finite.
pub fn relative_error_of(estimated_ms: f64, rtt_ms: f64) -> f64 {
    assert!(
        rtt_ms > 0.0 && rtt_ms.is_finite(),
        "measured RTT must be positive and finite, got {rtt_ms}"
    );
    (estimated_ms - rtt_ms).abs() / rtt_ms
}

/// Everything an embedding node learns from one interaction with a peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerSample {
    /// Identifier of the peer node.
    pub peer: usize,
    /// The coordinate the peer *claims* (an attacker may lie here).
    pub peer_coord: Coordinate,
    /// The confidence/error estimate the peer claims (Vivaldi's `e_j`;
    /// attackers may lie here too, typically claiming high confidence).
    pub peer_error: f64,
    /// The RTT measured toward the peer, in milliseconds (an attacker can
    /// inflate this by delaying probe responses).
    pub rtt_ms: f64,
}

/// What happened when an embedding step was applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// The measured relative error `D_n` the step observed.
    pub relative_error: f64,
    /// The node's local error estimate after the step.
    pub local_error: f64,
    /// Whether the step actually adjusted the coordinate (NPS buffers
    /// samples and only moves when a positioning round completes).
    pub moved: bool,
}

/// A node of an embedding system, reduced to the paper's step model.
///
/// Implementations: `ices-vivaldi`'s [`VivaldiNode`] applies every sample
/// immediately (spring relaxation); `ices-nps`'s [`NpsNode`] buffers
/// samples and repositions via downhill simplex when a round completes.
///
/// The detection protocol in `ices-core` sits *in front of* this trait:
/// it computes `D_n` from the sample, runs the innovation test, and only
/// calls [`Embedding::apply_step`] when the step is accepted.
///
/// [`VivaldiNode`]: https://docs.rs/ices-vivaldi
/// [`NpsNode`]: https://docs.rs/ices-nps
pub trait Embedding {
    /// The node's current coordinate.
    fn coordinate(&self) -> &Coordinate;

    /// The node's local error estimate `e_l ∈ [0, ~1+]` — its confidence
    /// in its own coordinate (lower is more confident).
    fn local_error(&self) -> f64;

    /// Measured relative error a prospective step would observe, without
    /// applying anything.
    fn probe(&self, sample: &PeerSample) -> f64 {
        relative_error(self.coordinate(), &sample.peer_coord, sample.rtt_ms)
    }

    /// Apply one embedding step (the sample has already been accepted by
    /// whatever filtering is in force).
    fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use proptest::prelude::*;

    #[test]
    fn relative_error_zero_when_exact() {
        let a = Coordinate::euclidean(vec![0.0, 0.0]);
        let b = Coordinate::euclidean(vec![30.0, 40.0]);
        assert_eq!(relative_error(&a, &b, 50.0), 0.0);
    }

    #[test]
    fn relative_error_is_dimensionless_fraction() {
        let a = Coordinate::euclidean(vec![0.0, 0.0]);
        let b = Coordinate::euclidean(vec![60.0, 0.0]);
        // Estimated 60, measured 50 → |60−50|/50 = 0.2.
        assert!((relative_error(&a, &b, 50.0) - 0.2).abs() < 1e-12);
        // Estimated 60, measured 120 → 0.5 (underestimation counts too).
        assert!((relative_error(&a, &b, 120.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_error_includes_heights() {
        let a = Coordinate::new(vec![0.0, 0.0], 10.0);
        let b = Coordinate::new(vec![30.0, 40.0], 15.0);
        // Estimated = 50 + 25 = 75; measured 75 → 0.
        assert_eq!(relative_error(&a, &b, 75.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "measured RTT must be positive")]
    fn relative_error_rejects_zero_rtt() {
        let a = Coordinate::origin(Space::euclidean(2));
        relative_error(&a, &a.clone(), 0.0);
    }

    #[test]
    fn peer_sample_serde_roundtrip() {
        let s = PeerSample {
            peer: 42,
            peer_coord: Coordinate::new(vec![1.0, 2.0], 0.5),
            peer_error: 0.3,
            rtt_ms: 80.0,
        };
        let json = serde_json::to_string(&s).expect("serialize");
        let back: PeerSample = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(s, back);
    }

    proptest! {
        #[test]
        fn relative_error_nonnegative(
            pa in proptest::collection::vec(-500f64..500.0, 2),
            pb in proptest::collection::vec(-500f64..500.0, 2),
            rtt in 0.1f64..1000.0,
        ) {
            let a = Coordinate::euclidean(pa);
            let b = Coordinate::euclidean(pb);
            prop_assert!(relative_error(&a, &b, rtt) >= 0.0);
        }

        #[test]
        fn relative_error_symmetric_in_nodes(
            pa in proptest::collection::vec(-500f64..500.0, 3),
            pb in proptest::collection::vec(-500f64..500.0, 3),
            rtt in 0.1f64..1000.0,
        ) {
            let a = Coordinate::euclidean(pa);
            let b = Coordinate::euclidean(pb);
            let d1 = relative_error(&a, &b, rtt);
            let d2 = relative_error(&b, &a, rtt);
            prop_assert!((d1 - d2).abs() < 1e-12);
        }
    }
}
