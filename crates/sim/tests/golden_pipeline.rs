//! Golden outputs of the two secured pipelines, pinned as literal
//! values.
//!
//! The determinism suites compare runs of one build against each other
//! (thread counts, journals on or off), so a change that moves every
//! run the same way passes them. This suite pins what a run produces:
//! the full `DetectionReport` and the median relative error of the
//! accuracy report, as `f64` bits. A performance change to the probe
//! path, the spring step, the peer ledger or the vet sweep must leave
//! both strings unchanged.
//!
//! The Vivaldi pipeline is the `vivaldi_chaos` benchmark cell at its
//! smoke size: 300 King nodes, 6 clean and 3 attack passes, 10% loss,
//! 2.5% timeouts and 5% churn per 16-tick epoch, colluders isolating
//! one honest target. The NPS pipeline is the `nps_attack` cell at its
//! smoke size: 120 PlanetLab nodes under the reference-point drag.
//!
//! Two variants pin the paths those cells leave unprobed: the Vivaldi
//! pipeline with witness cross-verification on, and the NPS pipeline
//! under the Vivaldi pipeline's fault plan (faulty rounds and arming).

use ices_attack::{DefenseConfig, NpsCollusionAttack, VivaldiIsolationAttack};
use ices_core::EmConfig;
use ices_netsim::faults::{ChurnModel, FaultPlan};
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::{AccuracyReport, DetectionReport, NpsSimulation, VivaldiSimulation};

const SEED: u64 = 2007;

/// Honest partners sampled per node by the accuracy report.
const ACCURACY_PAIRS: usize = 30;

fn scenario(topology: TopologyKind) -> ScenarioConfig {
    ScenarioConfig {
        seed: SEED,
        topology,
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: 6,
        attack_cycles: 3,
        embed_against_surveyors_only: false,
    }
}

/// The report and the `rel_err_p50` bits, as one comparable string.
fn fingerprint(report: &DetectionReport, accuracy: &AccuracyReport) -> String {
    format!(
        "{report:?} rel_err_p50={:016x}",
        accuracy.median().to_bits()
    )
}

/// The `vivaldi_chaos` cell's faults: 10% loss, 2.5% timeouts, 5%
/// churn per 16-tick epoch.
fn chaos_plan() -> FaultPlan {
    FaultPlan::lossy(0.10, 0.025).with_churn(ChurnModel::new(16, 0.05))
}

fn vivaldi_fingerprint(defense: DefenseConfig) -> String {
    let mut sim = VivaldiSimulation::new(scenario(TopologyKind::small_king(300)));
    // The fault plan is attached after construction, as the benchmark
    // does: every cached per-neighbour probe key must still be valid.
    sim.set_fault_plan(chaos_plan());
    for _ in 0..6 {
        sim.run_clean(1);
    }
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.set_defense(defense);
    let target = sim.normal_nodes()[0];
    let radius = sim.network().median_base_rtt() / 2.0;
    let attack = VivaldiIsolationAttack::new(
        sim.malicious().iter().copied(),
        sim.coordinate(target).clone(),
        radius.max(20.0),
        SEED ^ 0xC4A05,
    );
    for _ in 0..3 {
        sim.run(1, &attack, false);
    }
    let report = sim.report();
    fingerprint(&report, &sim.accuracy_report(ACCURACY_PAIRS))
}

fn nps_fingerprint(faults: FaultPlan, clean_rounds: usize) -> String {
    let mut sim = NpsSimulation::new(scenario(TopologyKind::small_planetlab(120)));
    sim.set_fault_plan(faults);
    for _ in 0..clean_rounds {
        sim.run_clean(1);
    }
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let mut attack = NpsCollusionAttack::new(
        sim.malicious().iter().copied(),
        8,
        3.0,
        0.5,
        SEED ^ 0x4E5053,
    );
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    for _ in 0..3 {
        sim.run(1, &attack, false);
    }
    let report = sim.report();
    fingerprint(&report, &sim.accuracy_report(ACCURACY_PAIRS))
}

#[test]
fn secured_vivaldi_pipeline_matches_its_golden_output() {
    assert_eq!(
        vivaldi_fingerprint(DefenseConfig::off()),
        concat!(
            "DetectionReport { confusion: Confusion { true_positives: 3215, false_positives: 1798, ",
            "true_negatives: 31349, false_negatives: 899 }, replacements: 4790, reprieves: 223, ",
            "filter_refreshes: 1, faults: FaultReport { lost_probes: 250, timed_out_probes: 62, ",
            "peer_down_probes: 8086, retried_probes: 18244, coasted_steps: 2163, evictions: 64, ",
            "node_down_ticks: 8194, stale_filter_fallbacks: 0, deferred_arms: 0, late_arms: 0 }, ",
            "adversary: AdversaryReport { active_lies: 4114, clamped_rtts: 0, cross_checks: 0, ",
            "rejections: 0, drift_accumulated_ms: 0.0 } } rel_err_p50=3fc9b18603cf4149",
        )
    );
}

#[test]
fn secured_nps_pipeline_matches_its_golden_output() {
    assert_eq!(
        nps_fingerprint(FaultPlan::none(), 6),
        concat!(
            "DetectionReport { confusion: Confusion { true_positives: 414, false_positives: 181, ",
            "true_negatives: 2348, false_negatives: 0 }, replacements: 557, reprieves: 38, ",
            "filter_refreshes: 68, faults: FaultReport { lost_probes: 0, timed_out_probes: 0, ",
            "peer_down_probes: 0, retried_probes: 0, coasted_steps: 0, evictions: 0, ",
            "node_down_ticks: 0, stale_filter_fallbacks: 0, deferred_arms: 0, late_arms: 0 }, ",
            "adversary: AdversaryReport { active_lies: 414, clamped_rtts: 0, cross_checks: 0, ",
            "rejections: 0, drift_accumulated_ms: 0.0 } } rel_err_p50=3fb7eadeeb4db797",
        )
    );
}

#[test]
fn secured_vivaldi_with_cross_verification_matches_its_golden_output() {
    assert_eq!(
        vivaldi_fingerprint(DefenseConfig::cross_verification(SEED ^ 0xDEF3)),
        concat!(
            "DetectionReport { confusion: Confusion { true_positives: 3556, false_positives: 768, ",
            "true_negatives: 32914, false_negatives: 38 }, replacements: 4232, reprieves: 92, ",
            "filter_refreshes: 0, faults: FaultReport { lost_probes: 248, timed_out_probes: 61, ",
            "peer_down_probes: 8075, retried_probes: 18228, coasted_steps: 2148, evictions: 64, ",
            "node_down_ticks: 8194, stale_filter_fallbacks: 0, deferred_arms: 0, late_arms: 0 }, ",
            "adversary: AdversaryReport { active_lies: 3594, clamped_rtts: 0, cross_checks: 111828, ",
            "rejections: 3664, drift_accumulated_ms: 0.0 } } rel_err_p50=3fb5362736e71a54",
        )
    );
}

/// NPS epochs count rounds, so the clean phase runs into the plan's
/// second epoch: a Surveyor crashed for all of the first has no trace
/// to calibrate until it rejoins at round 16.
#[test]
fn faulty_secured_nps_pipeline_matches_its_golden_output() {
    assert_eq!(
        nps_fingerprint(chaos_plan(), 17),
        concat!(
            "DetectionReport { confusion: Confusion { true_positives: 393, false_positives: 280, ",
            "true_negatives: 1882, false_negatives: 0 }, replacements: 646, reprieves: 27, ",
            "filter_refreshes: 74, faults: FaultReport { lost_probes: 51, timed_out_probes: 11, ",
            "peer_down_probes: 1816, retried_probes: 3524, coasted_steps: 247, evictions: 534, ",
            "node_down_ticks: 160, stale_filter_fallbacks: 0, deferred_arms: 0, late_arms: 0 }, ",
            "adversary: AdversaryReport { active_lies: 393, clamped_rtts: 0, cross_checks: 0, ",
            "rejections: 0, drift_accumulated_ms: 0.0 } } rel_err_p50=3fd31fd802b964a2",
        )
    );
}
