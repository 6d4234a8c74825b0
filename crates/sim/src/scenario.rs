//! Scenario configuration shared by the drivers.

use ices_netsim::{KingConfig, Network, PlanetLabConfig, SynthRtt};
use serde::{Deserialize, Serialize};

/// Which synthetic substrate to run on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// King-like simulation topology (clean measurement noise), with the
    /// full O(n²) base-RTT matrix materialized.
    King(KingConfig),
    /// The same King model served **streamed**: no matrix is built, every
    /// pair is recomputed on demand from `(seed, min(a,b), max(a,b))`
    /// hashes — bit-identical RTTs to [`TopologyKind::King`] for the same
    /// config/seed in O(n) memory, which is what makes 50k–1M-node
    /// populations constructible.
    StreamedKing(KingConfig),
    /// PlanetLab-like deployment (noisy hosts, pathological nodes).
    PlanetLab(PlanetLabConfig),
}

impl TopologyKind {
    /// Paper-scale King simulation (1740 nodes).
    pub fn king_paper() -> Self {
        Self::King(KingConfig::paper_scale())
    }

    /// Paper-scale PlanetLab deployment (280 nodes).
    pub fn planetlab_paper() -> Self {
        Self::PlanetLab(PlanetLabConfig::paper_scale())
    }

    /// A small topology of either flavor for tests.
    pub fn small_king(nodes: usize) -> Self {
        Self::King(KingConfig::small(nodes))
    }

    /// A streamed King topology of any size (paper structure, O(n)
    /// memory).
    pub fn streamed_king(nodes: usize) -> Self {
        Self::StreamedKing(KingConfig::small(nodes))
    }

    /// A small PlanetLab-like deployment for tests.
    pub fn small_planetlab(nodes: usize) -> Self {
        Self::PlanetLab(PlanetLabConfig::small(nodes))
    }

    /// Build the network this topology describes from `seed`, with the
    /// nodes' ground-truth latent positions (k-means Surveyor placement
    /// reads them; the network itself keeps none).
    pub fn network(&self, seed: u64) -> (Network, Vec<(f64, f64)>) {
        match self {
            TopologyKind::King(kc) => {
                let mut topo = kc.generate(seed);
                let positions = std::mem::take(&mut topo.positions);
                (Network::from_king(topo, seed), positions)
            }
            TopologyKind::StreamedKing(kc) => {
                // Same King model, no O(n²) matrix: pairs are recomputed
                // on demand and the placement is the only per-node state.
                let synth = SynthRtt::new(kc.clone(), seed);
                let positions = synth.placement().positions.clone();
                (Network::from_synth(synth, seed), positions)
            }
            TopologyKind::PlanetLab(pc) => {
                let mut pl = pc.generate(seed);
                let positions = std::mem::take(&mut pl.topology.positions);
                (Network::from_planetlab(pl, seed), positions)
            }
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        match self {
            TopologyKind::King(c) | TopologyKind::StreamedKing(c) => c.nodes,
            TopologyKind::PlanetLab(c) => c.nodes,
        }
    }
}

/// How Surveyors are deployed (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SurveyorPlacement {
    /// Chosen uniformly at random — the paper's default, an upper bound
    /// on the population needed.
    Random {
        /// Fraction of the overall population (the paper: 8%).
        fraction: f64,
    },
    /// k-means cluster heads over the latent delay space — the paper's
    /// strategic deployment, representative with ~1%.
    KMeansHeads {
        /// Fraction of the overall population (the paper: 1%).
        fraction: f64,
    },
}

impl SurveyorPlacement {
    /// The fraction of nodes this placement consumes.
    pub fn fraction(&self) -> f64 {
        match self {
            SurveyorPlacement::Random { fraction }
            | SurveyorPlacement::KMeansHeads { fraction } => *fraction,
        }
    }

    /// Validate.
    ///
    /// # Panics
    /// Panics if the fraction is outside `(0, 0.5]`.
    pub fn validate(&self) {
        let f = self.fraction();
        assert!(
            f > 0.0 && f <= 0.5,
            "surveyor fraction must be in (0, 0.5], got {f}"
        );
    }
}

/// A complete scenario description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed driving every random stream of the run.
    pub seed: u64,
    /// The substrate.
    pub topology: TopologyKind,
    /// Surveyor deployment.
    pub surveyors: SurveyorPlacement,
    /// Fraction of (non-Surveyor) nodes under adversary control.
    pub malicious_fraction: f64,
    /// Significance level α of the detection test.
    pub alpha: f64,
    /// Whether the detection protocol is armed (off = the paper's
    /// "detection off" baselines).
    pub detection: bool,
    /// Clean-phase embedding cycles (one cycle = every node visits each
    /// of its peers once).
    pub clean_cycles: usize,
    /// Attack/measurement-phase cycles.
    pub attack_cycles: usize,
    /// The §6 "dedicated Surveyors for embedding" variant: normal nodes
    /// choose *only Surveyors* as neighbors/reference points, trading
    /// embedding accuracy for immunity.
    pub embed_against_surveyors_only: bool,
}

impl ScenarioConfig {
    /// A small, fast scenario for tests.
    pub fn test_default(seed: u64) -> Self {
        Self {
            seed,
            topology: TopologyKind::small_planetlab(60),
            surveyors: SurveyorPlacement::Random { fraction: 0.1 },
            malicious_fraction: 0.2,
            alpha: 0.05,
            detection: true,
            clean_cycles: 8,
            attack_cycles: 4,
            embed_against_surveyors_only: false,
        }
    }

    /// Validate cross-field invariants.
    ///
    /// # Panics
    /// Panics on out-of-range fractions or a zero-length clean phase.
    pub fn validate(&self) {
        self.surveyors.validate();
        assert!(
            (0.0..1.0).contains(&self.malicious_fraction),
            "malicious fraction must be in [0, 1), got {}",
            self.malicious_fraction
        );
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0, 1), got {}",
            self.alpha
        );
        assert!(self.clean_cycles > 0, "need a clean phase to calibrate in");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topologies_have_paper_sizes() {
        assert_eq!(TopologyKind::king_paper().nodes(), 1740);
        assert_eq!(TopologyKind::planetlab_paper().nodes(), 280);
    }

    #[test]
    fn test_default_validates() {
        ScenarioConfig::test_default(1).validate();
    }

    #[test]
    #[should_panic(expected = "surveyor fraction")]
    fn rejects_zero_surveyors() {
        SurveyorPlacement::Random { fraction: 0.0 }.validate();
    }

    #[test]
    #[should_panic(expected = "malicious fraction")]
    fn rejects_full_malice() {
        let mut c = ScenarioConfig::test_default(1);
        c.malicious_fraction = 1.0;
        c.validate();
    }

    #[test]
    fn serde_roundtrip() {
        let c = ScenarioConfig::test_default(4);
        let json = serde_json::to_string(&c).expect("serialize");
        let back: ScenarioConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }
}
