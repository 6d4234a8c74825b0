//! Tier-1 determinism guarantee of the new adversary scenarios: each of
//! the post-2007 attacks (Sybil swarm, eclipse, slow drift) — composed
//! with an active fault plan (probe loss, timeouts, churn), eclipse
//! referral steering, and the cross-verification defense — must produce
//! bit-for-bit identical runs at four worker threads and on the exact
//! sequential path (`ICES_THREADS=1`).
//!
//! Every new decision source answers purely from `(seed, tick, victim,
//! peer)` streams: Sybil anchors/jitter from `SYBA`/`SYBJ`, eclipse
//! translations from `ECLP` and steering from `ECLN`/`ECLR`, drift
//! directions from `DRFT`, witness draws from `WTNS`, and witness probe
//! nonces from `XPRB`. None of them consume shared RNG state; this
//! suite is the proof, over every observable a run exposes —
//! coordinates, traces, and the full `DetectionReport` including the
//! `AdversaryReport` counters.

use ices_attack::{Adversary, DefenseConfig, EclipseAttack, SlowDriftAttack, SybilSwarmAttack};
use ices_coord::Coordinate;
use ices_core::EmConfig;
use ices_netsim::{ChurnModel, EclipsePlan, FaultPlan};
use ices_sim::metrics::DetectionReport;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::trace::TraceRing;
use ices_sim::VivaldiSimulation;

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

/// Loss, timeouts, and churn all active: the composed regime the issue
/// demands — attack decisions must stay deterministic even when the
/// fault layer reshuffles which probes exist at all.
fn plan() -> FaultPlan {
    FaultPlan::lossy(0.1, 0.05).with_churn(ChurnModel::new(16, 0.1))
}

/// Everything a run exposes, captured for comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    coordinates: Vec<Coordinate>,
    traces: Vec<TraceRing>,
    report: DetectionReport,
}

fn capture(sim: &mut VivaldiSimulation) -> Fingerprint {
    Fingerprint {
        coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
        traces: sim.traces().to_vec(),
        report: sim.report().clone(),
    }
}

/// Shared pipeline: faulty clean convergence, calibration, armed
/// detection, cross-verification on, then the given attack (plus an
/// optional eclipse plan) for the measure phase.
fn fingerprint(
    seed: u64,
    attack: impl Fn(&VivaldiSimulation) -> Box<dyn Adversary>,
    eclipse: impl Fn(&VivaldiSimulation) -> EclipsePlan,
) -> Fingerprint {
    let mut sim = VivaldiSimulation::new(scenario(seed));
    sim.set_fault_plan(plan());
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.set_defense(DefenseConfig::cross_verification(seed ^ 0xDEF3));
    sim.set_eclipse(eclipse(&sim));
    let adversary = attack(&sim);
    sim.run(3, adversary.as_ref(), true);
    capture(&mut sim)
}

fn sybil_fingerprint(seed: u64) -> Fingerprint {
    fingerprint(
        seed,
        |sim| {
            Box::new(SybilSwarmAttack::new(
                sim.malicious().iter().copied(),
                800.0,
                10.0,
                sim.coordinate(0).dims(),
                seed ^ 0x5B11,
            ))
        },
        |sim| {
            EclipsePlan::new(
                sim.normal_nodes(),
                sim.malicious().iter().copied(),
                0.4,
                seed ^ 0x5B11,
            )
        },
    )
}

fn eclipse_fingerprint(seed: u64) -> Fingerprint {
    fingerprint(
        seed,
        |sim| {
            Box::new(EclipseAttack::new(
                sim.malicious().iter().copied(),
                sim.normal_nodes(),
                120.0,
                seed ^ 0xEC11,
            ))
        },
        |sim| {
            EclipsePlan::new(
                sim.normal_nodes(),
                sim.malicious().iter().copied(),
                0.6,
                seed ^ 0xEC11,
            )
        },
    )
}

fn drift_fingerprint(seed: u64) -> Fingerprint {
    fingerprint(
        seed,
        |sim| {
            Box::new(
                SlowDriftAttack::new(sim.malicious().iter().copied(), 0.5, seed ^ 0xD217)
                    .starting_at(sim.ticks()),
            )
        },
        |_| EclipsePlan::none(),
    )
}

fn assert_invariant(name: &str, run: impl Fn(u64) -> Fingerprint + Sync, seed: u64) {
    let sequential = ices_par::with_threads(1, || run(seed));
    let parallel = ices_par::with_threads(4, || run(seed));
    assert!(
        sequential.report.faults.total_failed_probes() > 0,
        "{name}: the fault plan must actually fire for this test to mean anything"
    );
    assert!(
        sequential.report.adversary.active_lies > 0,
        "{name}: the adversary must actually lie"
    );
    assert!(
        sequential.report.adversary.cross_checks > 0,
        "{name}: the defense must actually probe"
    );
    assert_eq!(
        sequential, parallel,
        "{name}: 4-thread run diverged from the sequential path"
    );
}

#[test]
fn sybil_swarm_under_faults_is_thread_count_invariant() {
    assert_invariant("sybil", sybil_fingerprint, 83);
}

#[test]
fn eclipse_under_faults_is_thread_count_invariant() {
    assert_invariant("eclipse", eclipse_fingerprint, 89);
}

#[test]
fn slow_drift_under_faults_is_thread_count_invariant() {
    assert_invariant("slow_drift", drift_fingerprint, 97);
}
