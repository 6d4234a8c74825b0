//! The NPS positioning hierarchy.
//!
//! NPS organizes nodes in layers: layer 0 holds the permanent landmarks;
//! every other node belongs to a layer `l ≥ 1` and positions itself
//! against *reference points* — nodes of layer `l − 1` that have been
//! promoted to serve the layer below. The paper's setup: 4 layers, 20
//! landmarks, 20% of each layer's nodes promoted to reference points.

use crate::config::NpsConfig;
use ices_stats::rng::stream_rng;
use ices_stats::sample::sample_indices;
use ices_stats::streams;
use serde::{Deserialize, Serialize};

/// A node's role in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Permanent landmark (layer 0).
    Landmark,
    /// Positioned node also serving as a reference point for the layer
    /// below.
    ReferencePoint,
    /// Ordinary positioned node.
    Regular,
}

/// Layer/role assignment plus per-node reference-point sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hierarchy {
    /// Layer per node (0 = landmarks).
    pub layer: Vec<usize>,
    /// Role per node.
    pub role: Vec<Role>,
    /// Reference points (node ids from the layer above) per node.
    /// Landmarks list the *other landmarks* here — they position against
    /// each other.
    pub reference_points: Vec<Vec<usize>>,
}

impl Hierarchy {
    /// Build a hierarchy over `n` nodes according to `config`,
    /// deterministically from `seed`.
    ///
    /// Landmarks are the first `config.landmarks` indices after a seeded
    /// shuffle; remaining nodes are spread uniformly over layers
    /// `1..config.layers`; within each layer, `rp_fraction` of the nodes
    /// are promoted to reference points. Each node's RP set is drawn from
    /// the serving nodes of the layer above (landmarks serve layer 1).
    ///
    /// # Panics
    /// Panics if `n` is too small to populate the hierarchy.
    pub fn build(n: usize, config: &NpsConfig, seed: u64) -> Self {
        config.validate();
        assert!(
            n > config.landmarks * 2,
            "need well more nodes ({n}) than landmarks ({})",
            config.landmarks
        );

        let mut rng = stream_rng(seed, streams::NPSH); // "NPSH"
        let order = sample_indices(&mut rng, n, n); // seeded permutation

        let mut layer = vec![0usize; n];
        let mut role = vec![Role::Regular; n];

        // Landmarks.
        for &id in &order[..config.landmarks] {
            layer[id] = 0;
            role[id] = Role::Landmark;
        }
        // Remaining nodes spread over layers 1..layers.
        let rest = &order[config.landmarks..];
        let lower_layers = config.layers - 1;
        for (i, &id) in rest.iter().enumerate() {
            layer[id] = 1 + (i * lower_layers) / rest.len();
        }

        // Promote rp_fraction of each non-final layer to reference
        // points — but never fewer than the layer below needs to be able
        // to position at all (min_rps), population permitting.
        for l in 1..config.layers - 1 {
            let members: Vec<usize> = (0..n).filter(|&i| layer[i] == l).collect();
            let promote = (((members.len() as f64) * config.rp_fraction).round() as usize)
                .max(config.min_rps)
                .min(members.len());
            let chosen = sample_indices(&mut rng, members.len(), promote);
            for idx in chosen {
                role[members[idx]] = Role::ReferencePoint;
            }
        }

        // Reference-point sets.
        let landmarks: Vec<usize> = (0..n).filter(|&i| role[i] == Role::Landmark).collect();
        let mut reference_points = vec![Vec::new(); n];
        for id in 0..n {
            if role[id] == Role::Landmark {
                // Landmarks position against the other landmarks.
                reference_points[id] = landmarks.iter().copied().filter(|&l| l != id).collect();
                continue;
            }
            let serving: Vec<usize> = if layer[id] == 1 {
                landmarks.clone()
            } else {
                (0..n)
                    .filter(|&i| layer[i] == layer[id] - 1 && role[i] == Role::ReferencePoint)
                    .collect()
            };
            assert!(
                !serving.is_empty(),
                "layer {} has no serving nodes above it",
                layer[id]
            );
            let take = config.rps_per_node.min(serving.len());
            let chosen = sample_indices(&mut rng, serving.len(), take);
            reference_points[id] = chosen.into_iter().map(|i| serving[i]).collect();
        }

        Self {
            layer,
            role,
            reference_points,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.layer.len()
    }

    /// Whether the hierarchy is empty.
    pub fn is_empty(&self) -> bool {
        self.layer.is_empty()
    }

    /// Ids of the permanent landmarks.
    pub fn landmarks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.role[i] == Role::Landmark)
            .collect()
    }

    /// Ids of the reference points at a given layer.
    pub fn reference_points_at(&self, l: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.layer[i] == l && self.role[i] == Role::ReferencePoint)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> (Hierarchy, NpsConfig) {
        let cfg = NpsConfig::paper_default();
        (Hierarchy::build(n, &cfg, seed), cfg)
    }

    #[test]
    fn landmark_count_matches_config() {
        let (h, cfg) = build(300, 1);
        assert_eq!(h.landmarks().len(), cfg.landmarks);
        for l in h.landmarks() {
            assert_eq!(h.layer[l], 0);
        }
    }

    #[test]
    fn every_non_landmark_is_in_layers_1_to_3() {
        let (h, cfg) = build(300, 2);
        for i in 0..h.len() {
            if h.role[i] != Role::Landmark {
                assert!((1..cfg.layers).contains(&h.layer[i]));
            }
        }
    }

    #[test]
    fn rp_fraction_respected_per_middle_layer() {
        let (h, cfg) = build(1000, 3);
        for l in 1..cfg.layers - 1 {
            let members = (0..h.len()).filter(|&i| h.layer[i] == l).count();
            let rps = h.reference_points_at(l).len();
            let expected = ((members as f64 * cfg.rp_fraction).round() as usize)
                .max(cfg.min_rps)
                .min(members);
            assert_eq!(rps, expected, "layer {l}: {rps}/{members}");
        }
    }

    #[test]
    fn small_populations_still_promote_enough_rps() {
        // At 120 nodes a 20% fraction of a ~33-node layer is below
        // min_rps; the floor must kick in or the layer below can never
        // complete a positioning round.
        let (h, cfg) = build(120, 19);
        for l in 1..cfg.layers - 1 {
            let rps = h.reference_points_at(l).len();
            assert!(
                rps >= cfg.min_rps,
                "layer {l} has {rps} reference points, below min_rps {}",
                cfg.min_rps
            );
        }
    }

    #[test]
    fn final_layer_has_no_reference_points() {
        let (h, cfg) = build(500, 4);
        assert!(h.reference_points_at(cfg.layers - 1).is_empty());
    }

    #[test]
    fn landmarks_use_each_other() {
        let (h, cfg) = build(300, 5);
        for l in h.landmarks() {
            let rps = &h.reference_points[l];
            assert_eq!(rps.len(), cfg.landmarks - 1);
            assert!(!rps.contains(&l), "a landmark must not reference itself");
            assert!(rps.iter().all(|&r| h.role[r] == Role::Landmark));
        }
    }

    #[test]
    fn rps_come_from_the_layer_above() {
        let (h, _) = build(600, 6);
        for i in 0..h.len() {
            if h.role[i] == Role::Landmark {
                continue;
            }
            for &rp in &h.reference_points[i] {
                assert_eq!(
                    h.layer[rp],
                    h.layer[i] - 1,
                    "node {i} (layer {}) references {rp} (layer {})",
                    h.layer[i],
                    h.layer[rp]
                );
                assert!(
                    h.role[rp] == Role::Landmark || h.role[rp] == Role::ReferencePoint,
                    "rp {rp} must be serving"
                );
            }
        }
    }

    #[test]
    fn layer_1_nodes_use_landmarks() {
        let (h, _) = build(400, 7);
        let landmarks = h.landmarks();
        for i in 0..h.len() {
            if h.layer[i] == 1 && h.role[i] != Role::Landmark {
                for &rp in &h.reference_points[i] {
                    assert!(landmarks.contains(&rp));
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (a, _) = build(300, 8);
        let (b, _) = build(300, 8);
        assert_eq!(a, b);
        let (c, _) = build(300, 9);
        assert_ne!(a, c);
    }

    #[test]
    fn every_positioned_node_has_enough_rps() {
        let (h, cfg) = build(800, 10);
        for i in 0..h.len() {
            assert!(
                h.reference_points[i].len() >= cfg.min_rps.min(cfg.landmarks - 1),
                "node {i} has only {} rps",
                h.reference_points[i].len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "well more nodes")]
    fn rejects_tiny_populations() {
        Hierarchy::build(30, &NpsConfig::paper_default(), 1);
    }
}
