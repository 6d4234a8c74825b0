//! Tier-1 determinism guarantee of the parallel engine: a simulation
//! run on four worker threads must be **bit-for-bit identical** to the
//! same run on the exact sequential path (`ICES_THREADS=1`).
//!
//! Both drivers are exercised through their full pipeline — clean
//! convergence, Surveyor calibration, armed detection, a colluding
//! attack with trace collection — and every observable output is
//! compared: coordinates, per-node malice traces, and the accumulated
//! detection report. Any scheduling-dependent state (shared RNG draws,
//! order-sensitive merges, rayon-style nondeterminism) would show up
//! here as a float diverging in the last ulp.

use ices_attack::{NpsCollusionAttack, VivaldiIsolationAttack};
use ices_coord::Coordinate;
use ices_core::EmConfig;
use ices_sim::metrics::DetectionReport;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::trace::TraceRing;
use ices_sim::{NpsSimulation, VivaldiSimulation};

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_planetlab(70),
        surveyors: SurveyorPlacement::Random { fraction: 0.1 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: 6,
        attack_cycles: 3,
        embed_against_surveyors_only: false,
    }
}

/// Everything a run exposes, captured for comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    coordinates: Vec<Coordinate>,
    traces: Vec<TraceRing>,
    report: DetectionReport,
}

fn vivaldi_fingerprint(seed: u64) -> Fingerprint {
    let mut sim = VivaldiSimulation::new(scenario(seed));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let target = sim.normal_nodes()[0];
    let attack = VivaldiIsolationAttack::new(
        sim.malicious().iter().copied(),
        sim.coordinate(target).clone(),
        50.0,
        seed,
    );
    sim.run(3, &attack, true);
    Fingerprint {
        coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
        traces: sim.traces().to_vec(),
        report: sim.report().clone(),
    }
}

fn nps_fingerprint(seed: u64) -> Fingerprint {
    let mut sim = NpsSimulation::new(scenario(seed));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 8, 3.0, 0.5, seed);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    sim.run(3, &attack, true);
    Fingerprint {
        coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
        traces: sim.traces().to_vec(),
        report: sim.report().clone(),
    }
}

#[test]
fn vivaldi_parallel_matches_sequential_bit_for_bit() {
    let sequential = ices_par::with_threads(1, || vivaldi_fingerprint(41));
    let parallel = ices_par::with_threads(4, || vivaldi_fingerprint(41));
    assert_eq!(
        sequential, parallel,
        "4-thread Vivaldi run diverged from the sequential path"
    );
}

#[test]
fn nps_parallel_matches_sequential_bit_for_bit() {
    let sequential = ices_par::with_threads(1, || nps_fingerprint(43));
    let parallel = ices_par::with_threads(4, || nps_fingerprint(43));
    assert_eq!(
        sequential, parallel,
        "4-thread NPS run diverged from the sequential path"
    );
}

#[test]
fn sweep_cells_are_thread_count_invariant() {
    use ices_sim::experiments::detection::fig9_12_vivaldi_sweep;
    use ices_sim::experiments::Scale;
    let sequential =
        ices_par::with_threads(1, || fig9_12_vivaldi_sweep(&Scale::test(), &[0.2], &[0.05]));
    let parallel =
        ices_par::with_threads(3, || fig9_12_vivaldi_sweep(&Scale::test(), &[0.2], &[0.05]));
    assert_eq!(
        sequential, parallel,
        "sweep results must not depend on worker count"
    );
}
