//! The streamed King substrate above the neighbour-candidate cap: a
//! Vivaldi population too large for the full O(n²) neighbour scan
//! samples a bounded candidate pool per node instead. No paper-scale
//! scenario reaches that path, so these tests build it directly and
//! check what every later tick relies on. No timing is taken.

use ices_netsim::KingConfig;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::VivaldiSimulation;
use std::collections::BTreeSet;

/// Detection off, fault-free, one clean pass on a streamed King
/// topology (no dense matrix at any size).
fn streamed_pass(nodes: usize) {
    let config = ScenarioConfig {
        seed: 2007,
        topology: TopologyKind::StreamedKing(KingConfig::small(nodes)),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.0,
        alpha: 0.05,
        detection: false,
        clean_cycles: 1,
        attack_cycles: 0,
        embed_against_surveyors_only: false,
    };
    let mut sim = VivaldiSimulation::new(config);
    assert_eq!(sim.len(), nodes);
    sim.run_clean(1);
    for node in 0..nodes {
        let peers = sim.neighbors_of(node);
        assert!(!peers.is_empty(), "node {node} has no neighbours");
        assert!(!peers.contains(&node), "node {node} is its own neighbour");
        let distinct: BTreeSet<usize> = peers.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            peers.len(),
            "node {node} has a duplicate neighbour"
        );
        let coord = sim.coordinate(node);
        assert!(
            coord.position().iter().all(|x| x.is_finite()) && coord.height().is_finite(),
            "node {node} has a non-finite coordinate"
        );
    }
}

#[test]
fn sampled_neighbour_sets_at_3000_nodes() {
    streamed_pass(3_000);
}

/// About 7 s optimised; far longer in a debug build.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn sampled_neighbour_sets_at_50000_nodes() {
    streamed_pass(50_000);
}
