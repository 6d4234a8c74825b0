//! Tier-1 determinism guarantee of the fault-injection layer: a run on
//! a **faulty** network (probe loss, timeouts, node churn, a crashed
//! Surveyor) at four worker threads must be bit-for-bit identical to
//! the same run on the exact sequential path (`ICES_THREADS=1`).
//!
//! Fault fates draw from their own seeded streams (`FALT`/`CHRN`) and
//! retries from dedicated retry streams, so no fault decision ever
//! consumes shared RNG state; this test is the proof. Both drivers are
//! exercised through their full pipeline — clean convergence under
//! loss, calibration, armed detection, an attack with churn in the
//! path — and every observable output is compared: coordinates, traces,
//! and the detection report including the fault counters.

use ices_attack::{NpsCollusionAttack, VivaldiIsolationAttack};
use ices_coord::Coordinate;
use ices_core::EmConfig;
use ices_netsim::{ChurnModel, FaultPlan};
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

/// Nonzero loss, timeouts, and global churn, plus one permanently
/// crashed node — every fault path the drivers implement is active.
fn plan(epoch_ticks: u64, crashed: usize) -> FaultPlan {
    FaultPlan::lossy(0.1, 0.05)
        .with_churn(ChurnModel::new(epoch_ticks, 0.1))
        .with_node_churn(crashed, ChurnModel::new(u64::MAX, 0.999_999))
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
    sim.set_fault_plan(plan(16, sim.normal_nodes()[1]));
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
    sim.set_fault_plan(plan(2, sim.normal_nodes()[1]));
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
fn faulty_vivaldi_parallel_matches_sequential_bit_for_bit() {
    let sequential = ices_par::with_threads(1, || vivaldi_fingerprint(61));
    let parallel = ices_par::with_threads(4, || vivaldi_fingerprint(61));
    assert!(
        sequential.report.faults.total_failed_probes() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        sequential, parallel,
        "4-thread faulty Vivaldi run diverged from the sequential path"
    );
}

/// The scratch-space NPS solver reuses one per-node workspace across
/// simplex restarts, successive rounds, and the security filter's trial
/// solves. This extends the determinism suite over that kernel at a
/// fresh seed: the `DetectionReport` — and every other observable — of
/// a faulty NPS run must be bit-identical between the exact sequential
/// path (`ICES_THREADS=1`) and four workers, proving buffer reuse
/// carries no state between evaluations or across the thread schedule.
#[test]
fn nps_scratch_solver_is_thread_count_invariant() {
    let sequential = ices_par::with_threads(1, || nps_fingerprint(73));
    let parallel = ices_par::with_threads(4, || nps_fingerprint(73));
    assert!(
        sequential.report.faults.total_failed_probes() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        sequential.report, parallel.report,
        "DetectionReports diverged between thread counts"
    );
    assert_eq!(
        sequential, parallel,
        "4-thread NPS run diverged from the sequential path"
    );
}

/// The same chaos cell on a **streamed generated topology**: no dense
/// matrix exists, every base RTT is recomputed per probe from the
/// `(seed, lo, hi)` pair streams, and the persistent worker pool serves
/// the parallel phase — the run must still be bit-for-bit identical
/// between the sequential path and four pooled workers, and must also
/// reproduce exactly what the dense-matrix form of the same topology
/// produces.
#[test]
fn faulty_vivaldi_on_generated_topology_is_deterministic() {
    let run = |seed, topology: TopologyKind| {
        let mut cfg = scenario(seed);
        cfg.topology = topology;
        let mut sim = VivaldiSimulation::new(cfg);
        sim.set_fault_plan(plan(16, sim.normal_nodes()[1]));
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let target = sim.normal_nodes()[0];
        let attack = VivaldiIsolationAttack::new(
            sim.malicious().iter().copied(),
            sim.coordinate(target).clone(),
            50.0,
            seed,
        );
        sim.run(2, &attack, true);
        Fingerprint {
            coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
            traces: sim.traces().to_vec(),
            report: sim.report().clone(),
        }
    };
    let sequential = ices_par::with_threads(1, || run(79, TopologyKind::streamed_king(70)));
    let parallel = ices_par::with_threads(4, || run(79, TopologyKind::streamed_king(70)));
    assert!(
        sequential.report.faults.total_failed_probes() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        sequential, parallel,
        "4-thread faulty run on a generated topology diverged from the sequential path"
    );
    let dense = ices_par::with_threads(1, || run(79, TopologyKind::small_king(70)));
    assert_eq!(
        sequential, dense,
        "streamed topology diverged from the dense matrix form of the same world"
    );
}

#[test]
fn faulty_nps_parallel_matches_sequential_bit_for_bit() {
    let sequential = ices_par::with_threads(1, || nps_fingerprint(67));
    let parallel = ices_par::with_threads(4, || nps_fingerprint(67));
    assert!(
        sequential.report.faults.total_failed_probes() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        sequential, parallel,
        "4-thread faulty NPS run diverged from the sequential path"
    );
}
