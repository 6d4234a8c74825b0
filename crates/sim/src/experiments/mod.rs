//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function takes a [`Scale`] so the same code runs at paper scale
//! (1740-node King matrix, 280-node PlanetLab, long phases) from the
//! benchmark harness and at toy scale from the test suite. Results are
//! plain serde-serializable structs; the `ices-bench` binaries print
//! them as the rows/series the paper plots.

pub mod ablations;
pub mod adversary;
pub mod chaos;
pub mod cross_prediction;
pub mod detection;
pub mod representativeness;
pub mod system_perf;
pub mod validation;

use crate::{NpsSimulation, VivaldiSimulation};
use ices_attack::{NpsCollusionAttack, VivaldiIsolationAttack};
use serde::{Deserialize, Serialize};

/// The paper's Vivaldi adversary: the colluders push every node out of
/// an exclusion zone around the first normal node, half the median base
/// RTT wide (at least 20 ms).
pub(crate) fn isolation_attack(sim: &VivaldiSimulation, seed: u64) -> VivaldiIsolationAttack {
    let target = sim.normal_nodes()[0]; // audit:allow(PANIC02): every scenario places normal nodes
    let radius = sim.network().median_base_rtt() / 2.0;
    VivaldiIsolationAttack::new(
        sim.malicious().iter().copied(),
        sim.coordinate(target).clone(),
        radius.max(20.0),
        seed,
    )
}

/// The paper's NPS adversary: colluding reference points drag the 8-d
/// coordinates of their dependents by `drag` RTTs per sample.
pub(crate) fn collusion_attack(sim: &NpsSimulation, drag: f64, seed: u64) -> NpsCollusionAttack {
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 8, drag, 0.5, seed);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    attack
}

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Master seed.
    pub seed: u64,
    /// King-like simulation population (paper: 1740).
    pub king_nodes: usize,
    /// PlanetLab-like population (paper: 280).
    pub planetlab_nodes: usize,
    /// Clean Vivaldi passes (each node visits all 64 neighbors once per
    /// pass) before calibration.
    pub clean_passes: usize,
    /// Measurement/attack-phase Vivaldi passes.
    pub measure_passes: usize,
    /// Clean NPS positioning rounds before calibration.
    pub nps_clean_rounds: usize,
    /// Measurement/attack-phase NPS rounds.
    pub nps_measure_rounds: usize,
    /// Random partners sampled per node when evaluating accuracy.
    pub pairs_per_node: usize,
}

impl Scale {
    /// Paper-scale settings (minutes of CPU).
    pub fn paper() -> Self {
        Self {
            seed: 2007,
            king_nodes: 1740,
            planetlab_nodes: 280,
            clean_passes: 18,
            measure_passes: 10,
            nps_clean_rounds: 18,
            nps_measure_rounds: 10,
            pairs_per_node: 40,
        }
    }

    /// Reduced paper-shaped settings for the default bench harness run
    /// (tens of seconds): smaller King population, same structure.
    pub fn harness_default() -> Self {
        Self {
            seed: 2007,
            king_nodes: 600,
            planetlab_nodes: 280,
            clean_passes: 12,
            measure_passes: 8,
            nps_clean_rounds: 12,
            nps_measure_rounds: 8,
            pairs_per_node: 30,
        }
    }

    /// Tiny settings for unit/integration tests (sub-second per call).
    pub fn test() -> Self {
        Self {
            seed: 7,
            king_nodes: 70,
            planetlab_nodes: 60,
            clean_passes: 10,
            measure_passes: 6,
            nps_clean_rounds: 4,
            nps_measure_rounds: 3,
            pairs_per_node: 12,
        }
    }
}

/// A labelled CDF curve, as the paper's figures plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// `(x, F(x))` points.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// Build a curve from samples by reading the ECDF at `k` evenly
    /// spaced *ranks* (quantiles), so heavy-tailed data keeps full
    /// resolution in the bulk instead of wasting the grid on outliers.
    ///
    /// # Panics
    /// Panics if `samples` is empty or `k < 2`.
    pub fn from_samples(label: impl Into<String>, samples: Vec<f64>, k: usize) -> Self {
        assert!(k >= 2, "curve needs at least 2 points");
        let ecdf = ices_stats::Ecdf::new(samples);
        let points = (0..k)
            .map(|i| {
                let q = i as f64 / (k - 1) as f64;
                (ecdf.quantile(q), q)
            })
            .collect();
        Self {
            label: label.into(),
            points,
        }
    }

    /// x-value at which the curve first reaches `q` (quantile read-off).
    /// An empty curve has no quantiles: returns NaN rather than panicking.
    pub fn quantile_x(&self, q: f64) -> f64 {
        self.points
            .iter()
            .find(|(_, f)| *f >= q)
            .or_else(|| self.points.last())
            .map(|(x, _)| *x)
            .unwrap_or(f64::NAN)
    }
}
