//! Chaos sweep: graceful degradation of the secured system under
//! injected network faults.
//!
//! The paper evaluates the detector on a perfectly reliable measurement
//! substrate; this experiment asks what happens on a *real* one. Each
//! cell runs the full secured Vivaldi pipeline — clean convergence,
//! Surveyor calibration, armed detection, the colluding isolation
//! attack — on a network with probe loss, probe timeouts, node churn,
//! and intermittent Surveyor outages, and reads off both the §5.1
//! detection metrics (TPR/FPR) and the embedding accuracy. Sweeping
//! `loss × churn` yields degradation curves: how fast detection quality
//! and coordinate accuracy erode as the substrate gets worse, and —
//! the key robustness claim — that the detector's false-positive rate
//! stays bounded instead of blowing up when samples go missing.

use super::{isolation_attack, Scale};
use crate::metrics::FaultReport;
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_core::EmConfig;
use ices_netsim::{ChurnModel, FaultPlan};
use ices_obs::Journal;
use ices_stats::Confusion;
use serde::{Deserialize, Serialize};

/// Probe-loss levels the default chaos sweep visits.
pub const DEFAULT_LOSS_LEVELS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Churn down-probabilities the default chaos sweep visits.
pub const DEFAULT_CHURN_LEVELS: [f64; 3] = [0.0, 0.05, 0.10];

/// Timeouts ride along at a quarter of the loss probability (losses
/// dominate on real paths; timeouts are the rarer, slower failure).
const TIMEOUT_RATIO: f64 = 0.25;

/// Churn epoch length in Vivaldi ticks (one tick = one neighbor slot).
const CHURN_EPOCH_TICKS: u64 = 16;

/// Surveyors churn at half the population's rate: the paper assumes
/// they are managed infrastructure, but not that they never fail.
const SURVEYOR_CHURN_RATIO: f64 = 0.5;

/// One `(loss, churn)` operating point of the chaos sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Per-probe loss probability (timeouts ride along at a quarter of
    /// this).
    pub loss: f64,
    /// Per-epoch down probability of ordinary nodes (Surveyors churn at
    /// half this rate).
    pub churn: f64,
    /// Confusion counts over all vetted steps of the attack phase.
    pub confusion: Confusion,
    /// Fault-path bookkeeping accumulated over the whole run.
    pub faults: FaultReport,
    /// Median relative embedding error of honest nodes after the run;
    /// `None` (JSON `null`) when the run sampled zero honest pairs.
    pub accuracy_median: Option<f64>,
    /// 95th-percentile relative embedding error; `None` when the run
    /// sampled zero honest pairs.
    pub accuracy_p95: Option<f64>,
    /// Filter refreshes (starvation feeds this under heavy faults).
    pub filter_refreshes: u64,
}

/// A full chaos sweep over `loss × churn`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSweep {
    /// All cells, row-major over `(churn, loss)`.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSweep {
    /// The cell at an exact operating point.
    pub fn cell(&self, loss: f64, churn: f64) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| (c.loss - loss).abs() < 1e-9 && (c.churn - churn).abs() < 1e-9)
    }

    /// Degradation series vs loss for one churn level: `(loss, y)`
    /// points sorted by loss, with `y` read off each cell (e.g. TPR,
    /// FPR, or accuracy).
    pub fn series(&self, churn: f64, metric: impl Fn(&ChaosCell) -> f64) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = self
            .cells
            .iter()
            .filter(|c| (c.churn - churn).abs() < 1e-9)
            .map(|c| (c.loss, metric(c)))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }
}

/// The fault plan for one operating point: link loss/timeouts, global
/// churn, and a slower Surveyor churn override per Surveyor.
fn chaos_plan(loss: f64, churn: f64, surveyors: &std::collections::BTreeSet<usize>) -> FaultPlan {
    let mut plan = FaultPlan::lossy(loss, loss * TIMEOUT_RATIO);
    if churn > 0.0 {
        plan = plan.with_churn(ChurnModel::new(CHURN_EPOCH_TICKS, churn));
        for &s in surveyors {
            plan = plan.with_node_churn(
                s,
                ChurnModel::new(CHURN_EPOCH_TICKS, churn * SURVEYOR_CHURN_RATIO),
            );
        }
    }
    plan
}

fn scenario(scale: &Scale) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: false,
    }
}

/// Run one chaos operating point: the full secured Vivaldi pipeline
/// with the fault plan active from the first tick (calibration included
/// — Surveyors calibrate on whatever samples survive, as they would in
/// deployment).
pub fn chaos_cell(scale: &Scale, loss: f64, churn: f64) -> ChaosCell {
    run_cell(scale, loss, churn, scale.pairs_per_node, false).0
}

/// [`chaos_cell`] with an in-memory run journal attached: returns the
/// cell plus the journal's JSONL bytes (the obs layer's bit-identity
/// contract means the cell itself is unchanged by the journaling).
pub fn chaos_cell_journaled(scale: &Scale, loss: f64, churn: f64) -> (ChaosCell, Vec<u8>) {
    let (cell, journal) = run_cell(scale, loss, churn, scale.pairs_per_node, true);
    (cell, journal.unwrap_or_default())
}

fn run_cell(
    scale: &Scale,
    loss: f64,
    churn: f64,
    pairs_per_node: usize,
    journaled: bool,
) -> (ChaosCell, Option<Vec<u8>>) {
    let mut sim = VivaldiSimulation::new(scenario(scale));
    if journaled {
        sim.enable_journal(Journal::in_memory());
    }
    sim.set_fault_plan(chaos_plan(loss, churn, sim.surveyors()));
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    finish_cell(sim, scale, loss, churn, pairs_per_node)
}

/// Attack phase + metric harvest shared by every cell flavor.
fn finish_cell(
    mut sim: VivaldiSimulation,
    scale: &Scale,
    loss: f64,
    churn: f64,
    pairs_per_node: usize,
) -> (ChaosCell, Option<Vec<u8>>) {
    let attack = isolation_attack(&sim, scale.seed ^ 0xC4A05);
    sim.run(scale.measure_passes, &attack, false);
    let accuracy = sim.accuracy_report(pairs_per_node);
    let report = sim.report();
    let journal = sim.finish_journal();
    let cell = ChaosCell {
        loss,
        churn,
        confusion: report.confusion,
        faults: report.faults.clone(),
        // A starved sample (zero honest pairs) records null accuracy
        // rather than aborting the sweep.
        accuracy_median: accuracy.ecdf().map(|e| e.median()),
        accuracy_p95: accuracy.ecdf().map(|e| e.quantile(0.95)),
        filter_refreshes: report.filter_refreshes,
    };
    (cell, journal)
}

/// The total-blackout operating point: the run converges and calibrates
/// cleanly, then **every Surveyor goes permanently dark** before
/// detection is armed. Every normal node's candidate draw comes back
/// empty, so arming is deferred (and stays deferred — the counters land
/// in `faults.deferred_arms`), the attack phase runs against unsecured
/// nodes, and the accuracy sample is deliberately empty (zero pairs) —
/// the regime that used to panic twice over (`&candidates[0]` on an
/// empty slice, `Ecdf::new` on an empty sample) now degrades to a cell
/// full of nulls and degraded-run counters.
pub fn surveyor_blackout_cell(scale: &Scale) -> ChaosCell {
    let mut sim = VivaldiSimulation::new(scenario(scale));
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    let mut plan = FaultPlan::none();
    for &s in sim.surveyors() {
        plan = plan.with_node_churn(s, ChurnModel::permanent_outage());
    }
    sim.set_fault_plan(plan);
    sim.arm_detection();
    finish_cell(sim, scale, 0.0, 1.0, 0).0
}

/// The full chaos sweep over `loss × churn`. Cells are independent
/// deterministic simulations, so they run in parallel on the
/// [`ices_par`] executor without affecting results.
pub fn chaos_sweep(scale: &Scale, losses: &[f64], churns: &[f64]) -> ChaosSweep {
    let mut points = Vec::with_capacity(losses.len() * churns.len());
    for &churn in churns {
        for &loss in losses {
            points.push((loss, churn));
        }
    }
    let cells = ices_par::par_map(&points, |_, &(loss, churn)| chaos_cell(scale, loss, churn));
    ChaosSweep { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_reports_no_faults() {
        let cell = chaos_cell(&Scale::test(), 0.0, 0.0);
        assert_eq!(cell.faults, FaultReport::default());
        assert!(cell.confusion.negatives() > 0);
        let median = cell.accuracy_median.expect("clean run samples pairs");
        assert!(median < 0.3, "clean accuracy sanity: {median}");
    }

    #[test]
    fn fpr_stays_bounded_under_loss_and_churn() {
        // The robustness acceptance criterion: at >= 10% probe loss with
        // churn enabled, missing samples must not masquerade as attacks.
        let cell = chaos_cell(&Scale::test(), 0.10, 0.05);
        assert!(
            cell.faults.total_failed_probes() > 0,
            "the plan must actually injure probes"
        );
        assert!(cell.confusion.negatives() > 0, "honest steps must flow");
        let fpr = cell.confusion.fpr();
        assert!(
            fpr < 0.15,
            "detector FPR must stay bounded under 10% loss + churn, got {fpr}"
        );
        // Detection must still function: the blatant isolation attack
        // should be caught more often than not.
        if cell.confusion.positives() > 0 {
            assert!(
                cell.confusion.tpr() > 0.5,
                "attack detection collapsed under faults: tpr {}",
                cell.confusion.tpr()
            );
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_degrades_gracefully() {
        let sweep = chaos_sweep(&Scale::test(), &[0.0, 0.10], &[0.0, 0.05]);
        assert_eq!(sweep.cells.len(), 4);
        let clean = sweep.cell(0.0, 0.0).expect("clean cell");
        let worst = sweep.cell(0.10, 0.05).expect("faulty cell");
        assert_eq!(clean.faults, FaultReport::default());
        assert!(worst.faults.total_failed_probes() > 0);
        // Graceful, not catastrophic: the faulty embedding stays within
        // a loose multiple of the clean one.
        let clean_median = clean.accuracy_median.expect("clean accuracy");
        let worst_median = worst.accuracy_median.expect("faulty accuracy");
        assert!(
            worst_median < clean_median.max(0.05) * 6.0,
            "accuracy blew up under faults: clean {clean_median} vs faulty {worst_median}"
        );
        let fpr_series = sweep.series(0.05, |c| c.confusion.fpr());
        assert_eq!(fpr_series.len(), 2);
        assert!(fpr_series.iter().all(|&(_, fpr)| fpr < 0.15));
    }

    #[test]
    fn surveyor_blackout_degrades_instead_of_panicking() {
        // The two panic paths this cell used to hit: indexing
        // `&candidates[0]` on an empty Surveyor draw, and building an
        // ECDF over zero sampled pairs. Now it must complete and expose
        // the degradation through counters and null accuracy.
        let cell = surveyor_blackout_cell(&Scale::test());
        assert!(
            cell.faults.deferred_arms > 0,
            "total outage must defer arming: {:?}",
            cell.faults
        );
        assert_eq!(cell.faults.late_arms, 0, "outage never lifts");
        assert_eq!(cell.accuracy_median, None, "zero pairs => null accuracy");
        assert_eq!(cell.accuracy_p95, None);
        // No node armed, so no verdicts flow at all.
        assert_eq!(cell.confusion.total(), 0);
    }

    #[test]
    fn journaled_cell_matches_plain_cell() {
        let scale = Scale::test();
        let plain = chaos_cell(&scale, 0.05, 0.05);
        let (journaled, bytes) = chaos_cell_journaled(&scale, 0.05, 0.05);
        assert_eq!(plain, journaled, "journaling must not perturb the run");
        let text = String::from_utf8(bytes).expect("utf8 journal");
        let (run, errors) = ices_obs::report::parse(&text);
        assert!(errors.is_empty(), "journal must validate: {errors:?}");
        assert!(!run.ticks.is_empty(), "journal must carry tick deltas");
    }
}
