//! A single Vivaldi node.

use crate::config::VivaldiConfig;
use ices_coord::{relative_error_of, Coordinate, Embedding, PeerSample, StepOutcome};
use ices_stats::ewma::WeightedEwma;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use serde::{Deserialize, Serialize};

/// Per-node Vivaldi state: coordinate, local error estimate, and a private
/// random stream (used only to break symmetry between colocated nodes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VivaldiNode {
    id: usize,
    config: VivaldiConfig,
    coordinate: Coordinate,
    local_error: WeightedEwma,
    steps: u64,
    rng: SimRng,
    seed: u64,
}

impl VivaldiNode {
    /// Create a node starting at the origin with maximal local error.
    ///
    /// Vivaldi famously bootstraps from everyone-at-the-origin; the first
    /// update draws a random direction to break the symmetry.
    pub fn new(id: usize, config: VivaldiConfig, seed: u64) -> Self {
        config.validate();
        Self {
            id,
            config,
            coordinate: initial_coordinate(&config),
            local_error: WeightedEwma::new(config.initial_error),
            steps: 0,
            rng: SimRng::from_stream(seed, id as u64, streams::VIVA), // "VIVA"
            seed,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Configuration in force.
    pub fn config(&self) -> &VivaldiConfig {
        &self.config
    }

    /// Number of embedding steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Forget all positioning state (the paper's §3.2 experiment has
    /// nodes "forget their coordinates and rejoin the system").
    pub fn reset(&mut self) {
        self.coordinate = initial_coordinate(&self.config);
        self.local_error = WeightedEwma::new(self.config.initial_error);
        self.steps = 0;
    }

    /// The Vivaldi update against a peer's claimed coordinate/error and a
    /// measured RTT. Returns the measured relative error of the step.
    fn update(&mut self, peer_coord: &Coordinate, peer_error: f64, rtt_ms: f64) -> f64 {
        let peer_error = peer_error.max(1e-6); // a zero claim must not zero w's denominator
        let own_error = if self.local_error.is_initialized() {
            self.local_error.value().max(1e-6)
        } else {
            self.config.initial_error
        };

        // Sample-confidence balance.
        let w = own_error / (own_error + peer_error);

        // Measured relative error of this step, from the one distance
        // the spring move below reuses.
        let est = self.coordinate.distance(peer_coord);
        let es = relative_error_of(est, rtt_ms);

        // Update the local error estimate (weighted EWMA).
        self.local_error.update(es, w, self.config.ce);

        // Move along the spring force: δ·(rtt − est)·u(x_i − x_j).
        let delta = self.config.cc * w;
        self.coordinate
            .spring_step(peer_coord, delta * (rtt_ms - est), &mut self.rng);
        if self.config.space.uses_height() {
            self.coordinate.clamp_height_min(self.config.min_height_ms);
        }
        self.steps += 1;
        es
    }
}

/// The bootstrap coordinate: the spatial origin, with a positive height
/// in height-augmented spaces.
fn initial_coordinate(config: &VivaldiConfig) -> Coordinate {
    let height = if config.space.uses_height() {
        config.initial_height_ms
    } else {
        0.0
    };
    Coordinate::new(vec![0.0; config.space.dims()], height)
}

impl Embedding for VivaldiNode {
    fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    fn local_error(&self) -> f64 {
        if self.local_error.is_initialized() {
            self.local_error.value()
        } else {
            self.config.initial_error
        }
    }

    fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome {
        let relative_error = self.update(&sample.peer_coord, sample.peer_error, sample.rtt_ms);
        StepOutcome {
            relative_error,
            local_error: self.local_error(),
            moved: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(peer_coord: Coordinate, peer_error: f64, rtt_ms: f64) -> PeerSample {
        PeerSample {
            peer: 999,
            peer_coord,
            peer_error,
            rtt_ms,
        }
    }

    fn node(id: usize) -> VivaldiNode {
        VivaldiNode::new(id, VivaldiConfig::paper_default(), 42)
    }

    #[test]
    fn starts_at_origin_with_bootstrap_height_and_full_error() {
        let n = node(0);
        assert_eq!(n.coordinate().position(), &[0.0, 0.0]);
        assert_eq!(
            n.coordinate().height(),
            VivaldiConfig::paper_default().initial_height_ms,
            "a fresh node needs a positive height (zero is near-absorbing)"
        );
        assert_eq!(n.local_error(), 1.0);
        assert_eq!(n.steps(), 0);
    }

    #[test]
    fn single_step_moves_node() {
        let mut n = node(0);
        let peer = Coordinate::new(vec![100.0, 0.0], 0.0);
        n.apply_step(&sample(peer, 0.5, 50.0));
        assert_eq!(n.steps(), 1);
        assert!(
            n.coordinate().magnitude() > 0.0,
            "node should have moved off the origin"
        );
    }

    #[test]
    fn overestimation_pulls_nodes_together() {
        // Node at (100, 0), peer at origin, measured RTT 10 « estimated
        // 100 → the spring is compressed and pushes the node toward the
        // peer.
        let mut n = node(0);
        let peer = Coordinate::new(vec![0.0, 0.0], 0.0);
        n.apply_step(&sample(peer.clone(), 1.0, 100.0)); // place roughly
        let far = Coordinate::new(vec![200.0, 0.0], 0.0);
        let before = n.coordinate().distance(&far);
        // Measured much smaller than estimated → move toward peer.
        let est_before = n.coordinate().distance(&peer);
        n.apply_step(&sample(peer.clone(), 1.0, est_before * 0.1));
        let est_after = n.coordinate().distance(&peer);
        assert!(
            est_after < est_before,
            "estimated distance should shrink: {est_before} → {est_after}"
        );
        let _ = before;
    }

    #[test]
    fn underestimation_pushes_nodes_apart() {
        let mut n = node(0);
        let peer = Coordinate::new(vec![10.0, 0.0], 0.0);
        let est_before = n.coordinate().distance(&peer);
        n.apply_step(&sample(peer.clone(), 1.0, est_before * 5.0 + 10.0));
        let est_after = n.coordinate().distance(&peer);
        assert!(
            est_after > est_before,
            "estimated distance should grow: {est_before} → {est_after}"
        );
    }

    #[test]
    fn pairwise_convergence() {
        // Two nodes springing against each other converge to the measured
        // distance.
        let cfg = VivaldiConfig::paper_default();
        let mut a = VivaldiNode::new(0, cfg, 1);
        let mut b = VivaldiNode::new(1, cfg, 1);
        let rtt = 80.0;
        for _ in 0..300 {
            let sb = sample(b.coordinate().clone(), b.local_error(), rtt);
            a.apply_step(&sb);
            let sa = sample(a.coordinate().clone(), a.local_error(), rtt);
            b.apply_step(&sa);
        }
        let est = a.coordinate().distance(b.coordinate());
        assert!(
            (est - rtt).abs() / rtt < 0.05,
            "estimated {est} vs rtt {rtt}"
        );
        assert!(a.local_error() < 0.1, "local error {}", a.local_error());
    }

    #[test]
    fn local_error_tracks_step_quality() {
        let mut n = node(0);
        let peer = Coordinate::new(vec![50.0, 0.0], 0.1);
        // Consistent accurate steps shrink the local error.
        for _ in 0..100 {
            let rtt = n.coordinate().distance(&peer).max(1.0);
            n.apply_step(&sample(peer.clone(), 0.1, rtt));
        }
        assert!(n.local_error() < 0.05, "error = {}", n.local_error());
    }

    #[test]
    fn zero_peer_error_does_not_divide_by_zero() {
        let mut n = node(0);
        let peer = Coordinate::new(vec![30.0, 40.0], 0.0);
        let out = n.apply_step(&sample(peer, 0.0, 50.0));
        assert!(out.relative_error.is_finite());
        assert!(n.coordinate().is_finite());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut n = node(3);
        let peer = Coordinate::new(vec![10.0, 10.0], 1.0);
        n.apply_step(&sample(peer, 0.5, 25.0));
        assert!(n.steps() > 0);
        n.reset();
        assert_eq!(n.steps(), 0);
        assert_eq!(n.local_error(), 1.0);
        assert_eq!(n.coordinate().position(), &[0.0, 0.0]);
        assert_eq!(
            n.coordinate().height(),
            VivaldiConfig::paper_default().initial_height_ms
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut n = VivaldiNode::new(5, VivaldiConfig::paper_default(), 77);
            let peer = Coordinate::new(vec![25.0, 0.0], 2.0);
            for i in 0..50 {
                n.apply_step(&sample(peer.clone(), 0.3, 40.0 + (i % 7) as f64));
            }
            n.coordinate().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn height_never_negative_across_many_steps() {
        let mut n = node(9);
        let peers = [
            Coordinate::new(vec![10.0, 0.0], 5.0),
            Coordinate::new(vec![0.0, 80.0], 1.0),
            Coordinate::new(vec![-30.0, -30.0], 20.0),
        ];
        for i in 0..600 {
            let p = &peers[i % 3];
            let rtt = (10.0 + (i % 50) as f64).max(1.0);
            n.apply_step(&sample(p.clone(), 0.4, rtt));
            assert!(n.coordinate().height() >= n.config().min_height_ms);
            assert!(n.coordinate().is_finite());
        }
    }
}
