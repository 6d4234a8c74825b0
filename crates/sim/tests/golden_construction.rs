//! Golden outputs of King construction, pinned as literal values.
//!
//! `KingConfig::generate` and `VivaldiSimulation::new` are the fixed
//! cost of every King pipeline. A change that makes them cheaper must
//! leave every base RTT and every drawn neighbour set as it was: this
//! suite folds the `f64` bits of the whole matrix, and the neighbour
//! sets of the benchmark's 1740-node scenario, into one word each.
//! The values were captured from the pair-at-a-time generator and the
//! column-wise candidate scan that the pass-structured construction
//! replaced.

use ices_netsim::KingConfig;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::VivaldiSimulation;

/// One FNV-1a style step over a 64-bit word.
fn fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

const BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Every upper-triangle base RTT, row-major, as bits.
fn matrix_fold(nodes: usize, seed: u64) -> u64 {
    let topo = KingConfig::small(nodes).generate(seed);
    let m = &topo.matrix;
    let mut acc = BASIS;
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            acc = fold(acc, m.get(i, j).to_bits());
        }
    }
    acc
}

/// The `vivaldi_chaos` scenario's population and roles, at full size.
fn scenario(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_king(nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: 12,
        attack_cycles: 8,
        embed_against_surveyors_only: false,
    }
}

/// Surveyors, malicious nodes and every node's neighbour list, in
/// slot order.
fn neighbour_fold(nodes: usize, seed: u64) -> u64 {
    let sim = VivaldiSimulation::new(scenario(nodes, seed));
    let mut acc = BASIS;
    for &s in sim.surveyors() {
        acc = fold(acc, s as u64);
    }
    for &m in sim.malicious() {
        acc = fold(acc, m as u64);
    }
    for node in 0..sim.len() {
        let peers = sim.neighbors_of(node);
        acc = fold(acc, peers.len() as u64);
        for &p in peers {
            acc = fold(acc, p as u64);
        }
    }
    acc
}

#[test]
fn king_matrix_1740_at_2007_is_pinned() {
    assert_eq!(matrix_fold(1740, 2007), 0xD7F9_5F0D_9B41_ED06);
}

#[test]
fn king_matrix_300_at_4099_is_pinned() {
    assert_eq!(matrix_fold(300, 4099), 0xD35B_B01D_684A_AAB3);
}

#[test]
fn vivaldi_neighbour_sets_1740_at_2007_are_pinned() {
    assert_eq!(neighbour_fold(1740, 2007), 0x0E98_F281_4B26_4E56);
}
