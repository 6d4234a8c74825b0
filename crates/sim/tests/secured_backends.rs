//! Behaviour the secured core promises on both backends: the
//! round-boundary filter refresh falls back to stale filters when every
//! Surveyor is down, and in the §6 dedicated-Surveyor variant no
//! replacement ever lets a non-Surveyor into a normal node's peer set.
//! Each test body runs once per simulation type.

use ices_attack::{Adversary, NpsCollusionAttack, VivaldiIsolationAttack};
use ices_coord::Space;
use ices_core::EmConfig;
use ices_netsim::{ChurnModel, FaultPlan};
use ices_nps::NpsConfig;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::{NpsSimulation, VivaldiSimulation};
use ices_vivaldi::VivaldiConfig;

fn scenario(seed: u64, nodes: usize, surveyors: f64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_king(nodes),
        surveyors: SurveyorPlacement::Random {
            fraction: surveyors,
        },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: 5,
        attack_cycles: 3,
        embed_against_surveyors_only: false,
    }
}

/// Small peer sets, so the dedicated variant leaves Surveyors to swap in.
fn vivaldi(config: ScenarioConfig) -> VivaldiSimulation {
    let vivaldi = VivaldiConfig {
        neighbors: 8,
        close_neighbors: 4,
        ..VivaldiConfig::paper_default()
    };
    VivaldiSimulation::with_vivaldi_config(config, vivaldi)
}

fn vivaldi_attack(sim: &VivaldiSimulation) -> Box<dyn Adversary> {
    let target = sim.normal_nodes()[0];
    Box::new(VivaldiIsolationAttack::new(
        sim.malicious().iter().copied(),
        sim.coordinate(target).clone(),
        100.0,
        7,
    ))
}

fn nps(config: ScenarioConfig) -> NpsSimulation {
    let nps = NpsConfig {
        space: Space::euclidean(2),
        landmarks: 8,
        rps_per_node: 4,
        min_rps: 3,
        solver_max_iter: 200,
        ..NpsConfig::paper_default()
    };
    NpsSimulation::with_nps_config(config, nps)
}

fn nps_attack(sim: &NpsSimulation) -> Box<dyn Adversary> {
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 2, 3.0, 0.5, 9);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    Box::new(attack)
}

macro_rules! on_both_backends {
    ($($backend:ident: $nodes:expr, $ticks:expr, $build:ident, $attack:ident, $peers:ident;)*) => {$(
        mod $backend {
            use super::*;

            #[test]
            fn full_surveyor_outage_falls_back_to_stale_filters() {
                let mut sim = $build(scenario(16, $nodes, 0.12));
                sim.run_clean(5);
                sim.calibrate_surveyors(&EmConfig::default());
                sim.arm_detection();
                // Crash every Surveyor forever and make the network
                // lossy enough (~97% terminal failure per tick even
                // after retries) that detectors starve and ask for
                // refreshes.
                let mut plan = FaultPlan::lossy(0.7, 0.29);
                for &id in sim.surveyors() {
                    plan = plan.with_node_churn(id, ChurnModel::new(u64::MAX, 0.999_999));
                }
                sim.set_fault_plan(plan);
                sim.run($ticks, &ices_attack::HonestWorld, false);
                let faults = sim.report().faults;
                assert!(
                    faults.coasted_steps > 0,
                    "nearly every secured step should coast under this plan"
                );
                assert!(
                    faults.stale_filter_fallbacks > 0,
                    "with all Surveyors down, refresh requests must fall back to stale filters"
                );
            }

            #[test]
            fn dedicated_peer_sets_stay_within_the_surveyors() {
                let mut config = scenario(21, $nodes, 0.2);
                config.embed_against_surveyors_only = true;
                let mut sim = $build(config);
                sim.run_clean(5);
                sim.calibrate_surveyors(&EmConfig::default());
                sim.arm_detection();
                let attack = $attack(&sim);
                sim.run(4, attack.as_ref(), false);
                assert!(
                    sim.report().replacements > 0,
                    "some rejection must have asked for a replacement"
                );
                for node in sim.normal_nodes() {
                    for &peer in sim.$peers(node) {
                        assert!(
                            sim.surveyors().contains(&peer),
                            "normal node {node} embeds against non-Surveyor {peer}"
                        );
                    }
                }
            }
        }
    )*};
}

on_both_backends! {
    vivaldi_sim: 50, 8, vivaldi, vivaldi_attack, neighbors_of;
    nps_sim: 80, 24, nps, nps_attack, reference_points_of;
}
