//! Synthetic PlanetLab-like deployment.
//!
//! The paper's live experiments ran on 280 world-wide PlanetLab nodes in
//! December 2006. Relative to the King simulations, the distinguishing
//! features are (a) far noisier measurements — PlanetLab machines are
//! heavily time-shared, so probes hit scheduler stalls — and (b) a small
//! set of badly connected hosts (the paper traces its prediction-error
//! tail to three nodes in India with >0.75 average relative errors). This
//! module layers both on top of the [`crate::kinggen`] generator.

use crate::fluctuation::{FluctuationModel, NoiseProfile};
use crate::kinggen::{KingConfig, Topology};
use ices_stats::rng::stream_rng;
use ices_stats::sample;
use ices_stats::streams;
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic PlanetLab deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanetLabConfig {
    /// Number of hosts (the paper used 280).
    pub nodes: usize,
    /// Number of pathological hosts with adverse network conditions.
    pub pathological_nodes: usize,
    /// Underlying topology generator (region structure is the same
    /// planet; only the node count differs from the King config).
    pub topology: KingConfig,
    /// Measurement-noise model for ordinary hosts.
    pub noise: FluctuationModel,
}

impl Default for PlanetLabConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl PlanetLabConfig {
    /// The paper's deployment scale: 280 nodes, 3 of them pathological.
    pub fn paper_scale() -> Self {
        Self {
            nodes: 280,
            pathological_nodes: 3,
            topology: KingConfig::small(280),
            noise: FluctuationModel::planetlab_default(),
        }
    }

    /// A smaller deployment with identical structure for tests.
    pub fn small(nodes: usize) -> Self {
        Self {
            nodes,
            pathological_nodes: if nodes >= 40 { 2 } else { 0 },
            topology: KingConfig::small(nodes),
            noise: FluctuationModel::planetlab_default(),
        }
    }

    /// Generate the deployment: topology plus per-node noise profiles.
    ///
    /// Pathological hosts are chosen deterministically from `seed` and
    /// additionally have their base RTTs to everyone inflated (bad
    /// transit), not just their measurement noise.
    ///
    /// # Panics
    /// Panics if `pathological_nodes >= nodes` or the node counts of the
    /// config and its topology disagree.
    pub fn generate(&self, seed: u64) -> PlanetLab {
        assert_eq!(
            self.nodes, self.topology.nodes,
            "config node count must match topology node count"
        );
        assert!(
            self.pathological_nodes < self.nodes,
            "cannot make every node pathological"
        );
        let mut topo = self.topology.generate(seed);
        let mut profiles = vec![NoiseProfile::clean(); self.nodes];

        let mut rng = stream_rng(seed, streams::PATH); // "PATH"
        let chosen = sample::sample_indices(&mut rng, self.nodes, self.pathological_nodes);
        for &p in &chosen {
            profiles[p] = NoiseProfile::pathological();
            // Bad local connectivity: inflate every base RTT touching the
            // node by a random 1.5–3× factor.
            for other in 0..self.nodes {
                if other != p {
                    let factor = sample::uniform(&mut rng, 1.5, 3.0);
                    let rtt = topo.matrix.get(p, other);
                    topo.matrix.set(p, other, rtt * factor);
                }
            }
        }

        PlanetLab {
            topology: topo,
            profiles,
            pathological: chosen,
            noise: self.noise,
        }
    }
}

/// A generated PlanetLab-like deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanetLab {
    /// Base topology (with pathological nodes' RTTs already inflated).
    pub topology: Topology,
    /// Per-node measurement-noise profiles.
    pub profiles: Vec<NoiseProfile>,
    /// Indices of the pathological nodes.
    pub pathological: Vec<usize>,
    /// The measurement-noise model.
    pub noise: FluctuationModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_280_nodes_3_pathological() {
        let cfg = PlanetLabConfig::paper_scale();
        assert_eq!(cfg.nodes, 280);
        assert_eq!(cfg.pathological_nodes, 3);
    }

    #[test]
    fn generate_marks_pathological_nodes() {
        let pl = PlanetLabConfig::small(60).generate(5);
        assert_eq!(pl.pathological.len(), 2);
        for &p in &pl.pathological {
            assert_eq!(pl.profiles[p], NoiseProfile::pathological());
        }
        let clean_count = pl
            .profiles
            .iter()
            .filter(|&&pr| pr == NoiseProfile::clean())
            .count();
        assert_eq!(clean_count, 58);
    }

    #[test]
    fn pathological_nodes_have_inflated_rtts() {
        let cfg = PlanetLabConfig::small(60);
        let base = cfg.topology.generate(5);
        let pl = cfg.generate(5);
        let p = pl.pathological[0];
        let mut inflated = 0;
        for other in 0..60 {
            if other != p && pl.topology.matrix.get(p, other) > base.matrix.get(p, other) * 1.4 {
                inflated += 1;
            }
        }
        assert!(inflated > 50, "only {inflated} RTTs inflated");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = PlanetLabConfig::small(50).generate(3);
        let b = PlanetLabConfig::small(50).generate(3);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_deployments_have_no_pathological_nodes() {
        let pl = PlanetLabConfig::small(20).generate(1);
        assert!(pl.pathological.is_empty());
    }
}
