//! Regression tests for the join-probe arming path under a total
//! Surveyor outage. `arm_detection` used to fall through to
//! `&candidates[0]` on an empty candidate slice and panic; now a node
//! whose candidate Surveyors are all down defers arming to the next
//! tick (counted in `FaultReport::deferred_arms`) and arms late once a
//! Surveyor returns (`late_arms`).

use ices_core::EmConfig;
use ices_netsim::{ChurnModel, FaultPlan};
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::{NpsSimulation, VivaldiSimulation};

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_planetlab(60),
        surveyors: SurveyorPlacement::Random { fraction: 0.1 },
        malicious_fraction: 0.1,
        alpha: 0.05,
        detection: true,
        clean_cycles: 4,
        attack_cycles: 2,
        embed_against_surveyors_only: false,
    }
}

/// Every Surveyor permanently down.
fn blackout(surveyors: &std::collections::BTreeSet<usize>) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &s in surveyors {
        plan = plan.with_node_churn(s, ChurnModel::permanent_outage());
    }
    plan
}

#[test]
fn vivaldi_arm_defers_under_outage_and_recovers_when_it_lifts() {
    let mut sim = VivaldiSimulation::new(scenario(11));
    sim.run_clean(4);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.set_fault_plan(blackout(sim.surveyors()));

    // Used to panic on `&candidates[0]`; now every normal node defers.
    sim.arm_detection();
    let normals: Vec<usize> = sim.normal_nodes().to_vec();
    assert!(!sim.pending_arms().is_empty(), "outage must defer arming");
    let deferred = sim.report().faults.deferred_arms;
    assert!(deferred > 0, "deferrals must be counted");
    assert!(normals.iter().all(|&n| !sim.is_secured(n)));

    // Still dark: retries keep deferring, nothing arms, nothing panics.
    sim.run_clean(1);
    assert!(!sim.pending_arms().is_empty());
    assert!(sim.report().faults.deferred_arms > deferred);

    // Outage lifts: the next pass arms every pending node late.
    sim.set_fault_plan(FaultPlan::none());
    sim.run_clean(1);
    assert!(sim.pending_arms().is_empty(), "all pending nodes must arm");
    let faults = sim.report().faults;
    assert!(
        faults.late_arms > 0,
        "late arms must be counted: {faults:?}"
    );
    assert!(normals.iter().all(|&n| sim.is_secured(n)));
}

#[test]
fn nps_arm_defers_under_outage_and_recovers_when_it_lifts() {
    let mut sim = NpsSimulation::new(scenario(13));
    sim.run_clean(4);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.set_fault_plan(blackout(sim.surveyors()));

    sim.arm_detection();
    let normals: Vec<usize> = sim.normal_nodes().to_vec();
    assert!(!sim.pending_arms().is_empty(), "outage must defer arming");
    let deferred = sim.report().faults.deferred_arms;
    assert!(deferred > 0, "deferrals must be counted");
    assert!(normals.iter().all(|&n| !sim.is_secured(n)));

    sim.run_clean(1);
    assert!(!sim.pending_arms().is_empty());
    assert!(sim.report().faults.deferred_arms > deferred);

    sim.set_fault_plan(FaultPlan::none());
    sim.run_clean(1);
    assert!(sim.pending_arms().is_empty(), "all pending nodes must arm");
    let faults = sim.report().faults;
    assert!(
        faults.late_arms > 0,
        "late arms must be counted: {faults:?}"
    );
    assert!(normals.iter().all(|&n| sim.is_secured(n)));
}
