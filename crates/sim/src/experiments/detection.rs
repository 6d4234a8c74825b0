//! §5 detection-performance sweeps: Figs 9–12 (Vivaldi under the
//! colluding isolation attack) and Fig 14 (NPS under the colluding
//! reference-point attack with anti-detection).
//!
//! Each sweep cell is a full system run at one `(malicious fraction,
//! significance level α)` operating point; the §5.1 metrics are read off
//! the accumulated confusion counts, and ROC curves are assembled per
//! malicious fraction across the α values.

use super::{collusion_attack, isolation_attack, Scale};
use crate::nps_driver::NpsSimulation;
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_core::EmConfig;
use ices_stats::{Confusion, RocCurve};
use serde::{Deserialize, Serialize};

/// The α values the paper sweeps (its ROC curve ticks).
pub const PAPER_ALPHAS: [f64; 4] = [0.01, 0.03, 0.05, 0.10];

/// The malicious fractions the paper sweeps.
pub const PAPER_FRACTIONS: [f64; 5] = [0.10, 0.20, 0.30, 0.40, 0.50];

/// One operating point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Fraction of nodes under adversary control.
    pub malicious_fraction: f64,
    /// Significance level of the test.
    pub alpha: f64,
    /// Confusion counts over all vetted steps.
    pub confusion: Confusion,
    /// Reprieves granted.
    pub reprieves: u64,
    /// Peer replacements performed.
    pub replacements: u64,
    /// Filter refreshes triggered.
    pub filter_refreshes: u64,
}

/// A full detection sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionSweep {
    /// All cells, row-major over `(fraction, alpha)`.
    pub cells: Vec<SweepCell>,
}

impl DetectionSweep {
    /// ROC curve (across α) for one malicious fraction — one Fig 9/14
    /// curve.
    pub fn roc_for(&self, malicious_fraction: f64) -> RocCurve {
        let levels = self
            .cells
            .iter()
            .filter(|c| (c.malicious_fraction - malicious_fraction).abs() < 1e-9)
            .map(|c| (c.alpha, c.confusion))
            .collect();
        RocCurve::from_levels(levels)
    }

    /// Metric series vs malicious fraction for one α: used for Figs
    /// 10 (TPTF), 11 (FPR) and 12 (FNR).
    pub fn series(&self, alpha: f64, metric: impl Fn(&Confusion) -> f64) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = self
            .cells
            .iter()
            .filter(|c| (c.alpha - alpha).abs() < 1e-9)
            .map(|c| (c.malicious_fraction, metric(&c.confusion)))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }

    /// The cell at an exact operating point.
    pub fn cell(&self, malicious_fraction: f64, alpha: f64) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            (c.malicious_fraction - malicious_fraction).abs() < 1e-9
                && (c.alpha - alpha).abs() < 1e-9
        })
    }
}

fn scenario(scale: &Scale, fraction: f64, alpha: f64, detection: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: fraction,
        alpha,
        detection,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: false,
    }
}

/// Run one Vivaldi operating point and return its cell.
pub fn vivaldi_cell(scale: &Scale, fraction: f64, alpha: f64) -> SweepCell {
    let mut sim = VivaldiSimulation::new(scenario(scale, fraction, alpha, true));
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    // The colluders agree on an exclusion zone around a target normal
    // node, sized relative to the network's scale.
    let attack = isolation_attack(&sim, scale.seed ^ 0xA77AC4);
    sim.run(scale.measure_passes, &attack, false);
    let report = sim.report();
    SweepCell {
        malicious_fraction: fraction,
        alpha,
        confusion: report.confusion,
        reprieves: report.reprieves,
        replacements: report.replacements,
        filter_refreshes: report.filter_refreshes,
    }
}

/// Run independent sweep cells on the [`ices_par`] executor (each cell
/// is a self-contained deterministic simulation, so parallel execution
/// cannot change results — only wall-clock time). Worker count follows
/// `ICES_THREADS` like every other parallel loop in the workspace.
fn run_cells_parallel(
    points: Vec<(f64, f64)>,
    run: impl Fn(f64, f64) -> SweepCell + Sync,
) -> Vec<SweepCell> {
    ices_par::par_map(&points, |_, &(fraction, alpha)| run(fraction, alpha))
}

/// Figs 9–12: the full Vivaldi sweep. Cells run in parallel.
pub fn fig9_12_vivaldi_sweep(scale: &Scale, fractions: &[f64], alphas: &[f64]) -> DetectionSweep {
    let mut points = Vec::with_capacity(fractions.len() * alphas.len());
    for &fraction in fractions {
        for &alpha in alphas {
            points.push((fraction, alpha));
        }
    }
    let cells = run_cells_parallel(points, |f, a| vivaldi_cell(scale, f, a));
    DetectionSweep { cells }
}

/// The drag strength of the paper's blatant push (each malicious sample
/// demands a 3-RTT displacement).
pub const NPS_DRAG_BLATANT: f64 = 3.0;

/// A stealthy drag variant: per-sample deviations sized near the honest
/// noise floor, trading per-round pull for detectability.
pub const NPS_DRAG_STEALTHY: f64 = 0.5;

/// Run one NPS operating point and return its cell.
pub fn nps_cell(scale: &Scale, fraction: f64, alpha: f64) -> SweepCell {
    nps_cell_with_drag(scale, fraction, alpha, NPS_DRAG_BLATANT)
}

/// Run one NPS operating point with an explicit drag strength.
pub fn nps_cell_with_drag(scale: &Scale, fraction: f64, alpha: f64, drag: f64) -> SweepCell {
    let mut sim = NpsSimulation::new(scenario(scale, fraction, alpha, true));
    sim.run_clean(scale.nps_clean_rounds);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let attack = collusion_attack(&sim, drag, scale.seed ^ 0x4E5053);
    sim.run(scale.nps_measure_rounds, &attack, false);
    let report = sim.report();
    SweepCell {
        malicious_fraction: fraction,
        alpha,
        confusion: report.confusion,
        reprieves: report.reprieves,
        replacements: report.replacements,
        filter_refreshes: report.filter_refreshes,
    }
}

/// Fig 14: the NPS sweep. Cells run in parallel.
pub fn fig14_nps_sweep(scale: &Scale, fractions: &[f64], alphas: &[f64]) -> DetectionSweep {
    fig14_nps_sweep_with_drag(scale, fractions, alphas, NPS_DRAG_BLATANT)
}

/// The NPS sweep at an explicit drag strength (the stealthy variant
/// trades attack effectiveness for evasion; see the fig14 binary).
pub fn fig14_nps_sweep_with_drag(
    scale: &Scale,
    fractions: &[f64],
    alphas: &[f64],
    drag: f64,
) -> DetectionSweep {
    let mut points = Vec::with_capacity(fractions.len() * alphas.len());
    for &fraction in fractions {
        for &alpha in alphas {
            points.push((fraction, alpha));
        }
    }
    let cells = run_cells_parallel(points, |f, a| nps_cell_with_drag(scale, f, a, drag));
    DetectionSweep { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vivaldi_sweep_produces_usable_roc() {
        let sweep = fig9_12_vivaldi_sweep(&Scale::test(), &[0.2], &[0.01, 0.05, 0.10]);
        assert_eq!(sweep.cells.len(), 3);
        for cell in &sweep.cells {
            assert!(cell.confusion.positives() > 0, "attack produced no steps");
            assert!(cell.confusion.negatives() > 0);
        }
        let roc = sweep.roc_for(0.2);
        assert_eq!(roc.points.len(), 3);
        let auc = roc.auc();
        assert!(
            auc > 0.7,
            "detector should beat chance handily under 20% attack: AUC {auc}"
        );
    }

    #[test]
    fn higher_alpha_catches_more_but_flags_more() {
        let sweep = fig9_12_vivaldi_sweep(&Scale::test(), &[0.2], &[0.01, 0.10]);
        let lo = sweep.cell(0.2, 0.01).expect("cell");
        let hi = sweep.cell(0.2, 0.10).expect("cell");
        assert!(
            hi.confusion.tpr() >= lo.confusion.tpr() - 0.02,
            "TPR should not fall as α grows: {} -> {}",
            lo.confusion.tpr(),
            hi.confusion.tpr()
        );
        assert!(
            hi.confusion.fpr() >= lo.confusion.fpr() - 0.01,
            "FPR should not fall as α grows: {} -> {}",
            lo.confusion.fpr(),
            hi.confusion.fpr()
        );
    }

    #[test]
    fn series_are_sorted_by_fraction() {
        let sweep = fig9_12_vivaldi_sweep(&Scale::test(), &[0.3, 0.1], &[0.05]);
        let fnr = sweep.series(0.05, |c| c.fnr());
        assert_eq!(fnr.len(), 2);
        assert!(fnr[0].0 < fnr[1].0);
    }

    #[test]
    fn nps_sweep_runs_and_counts_honest_steps() {
        let mut scale = Scale::test();
        scale.planetlab_nodes = 90; // hierarchy needs room
        let sweep = fig14_nps_sweep(&scale, &[0.3], &[0.05]);
        let cell = &sweep.cells[0];
        assert!(cell.confusion.negatives() > 0);
        // With the RP-biased malicious assignment the conspiracy should
        // find enough reference points at 30%.
        assert!(
            cell.confusion.positives() > 0,
            "collusion should have activated at 30% malicious"
        );
    }
}
