//! Integration: the complete NPS pipeline — hierarchy, simplex
//! positioning, the built-in sensitivity filter, and the Kalman
//! detection protocol under the colluding reference-point attack.

use ices::attack::NpsCollusionAttack;
use ices::core::EmConfig;
use ices::nps::Role;
use ices::sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices::sim::NpsSimulation;

fn scenario(seed: u64, malicious: f64, detection: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_planetlab(120),
        surveyors: SurveyorPlacement::Random { fraction: 0.12 },
        malicious_fraction: malicious,
        alpha: 0.05,
        detection,
        clean_cycles: 6,
        attack_cycles: 4,
        embed_against_surveyors_only: false,
    }
}

fn build_attack(sim: &NpsSimulation, seed: u64) -> NpsCollusionAttack {
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 8, 3.0, 0.5, seed);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    attack
}

#[test]
fn hierarchy_and_roles_are_consistent_through_the_driver() {
    let sim = NpsSimulation::new(scenario(21, 0.3, true));
    let h = sim.hierarchy();
    // All landmarks are Surveyors; the serving map exposes exactly the
    // landmarks and reference points.
    for l in h.landmarks() {
        assert!(sim.surveyors().contains(&l));
    }
    let serving = sim.serving_map();
    for (&node, &layer) in &serving {
        assert_eq!(h.layer[node], layer);
        assert!(matches!(
            h.role[node],
            Role::Landmark | Role::ReferencePoint
        ));
    }
}

#[test]
fn conspiracy_activates_with_biased_rp_assignment() {
    let sim = NpsSimulation::new(scenario(22, 0.3, true));
    let attack = build_attack(&sim, 22);
    assert!(
        attack.is_active(),
        "at 30% malicious with RP-seeking conspirators, some layer must activate"
    );
    assert!(attack.victims().count() > 0);
}

#[test]
fn detection_catches_consistent_lies_nps_filter_misses() {
    let mut sim = NpsSimulation::new(scenario(23, 0.3, true));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let attack = build_attack(&sim, 23);
    assert!(attack.is_active());
    sim.run(4, &attack, false);
    let c = &sim.report().confusion;
    assert!(c.positives() > 0, "the attack must have produced steps");
    // At this small test scale the calibration windows are short; the
    // harness-scale run reaches TPR ≈ 0.7 at α = 5% (see EXPERIMENTS.md).
    assert!(
        c.tpr() > 0.35,
        "anti-detection lies must still be caught by the innovation test: {}",
        c.tpr()
    );
}

#[test]
fn protected_nps_stays_more_accurate_than_unprotected() {
    let run = |detection: bool| {
        let mut sim = NpsSimulation::new(scenario(24, 0.3, detection));
        sim.run_clean(6);
        if detection {
            sim.calibrate_surveyors(&EmConfig::default());
            sim.arm_detection();
        }
        let attack = build_attack(&sim, 24);
        sim.run(4, &attack, false);
        sim.accuracy_report(25).median()
    };
    let unprotected = run(false);
    let protected = run(true);
    assert!(
        protected <= unprotected * 1.05,
        "detection must not hurt: protected {protected:.3} vs unprotected {unprotected:.3}"
    );
}

#[test]
fn landmarks_position_against_landmarks_only() {
    let mut sim = NpsSimulation::new(scenario(25, 0.2, false));
    sim.run_clean(3);
    // A landmark's trace length equals (landmarks − 1) × rounds: it only
    // ever samples the other landmarks.
    let h = sim.hierarchy().clone();
    let landmarks = h.landmarks();
    for &l in &landmarks {
        assert_eq!(
            sim.traces()[l].len(),
            (landmarks.len() - 1) * 3,
            "landmark {l} sampled a non-landmark"
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut sim = NpsSimulation::new(scenario(26, 0.25, true));
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let attack = build_attack(&sim, 26);
        sim.run(3, &attack, false);
        (sim.report().confusion, sim.accuracy_report(20).median())
    };
    assert_eq!(run(), run());
}
