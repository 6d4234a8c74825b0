//! Tier-1 contract of the observability layer: journaling is a pure
//! observer. A faulty full-pipeline run with the JSONL journal enabled
//! must be **bit-for-bit identical** — coordinates, traces, the derived
//! `DetectionReport` — to the same run with it disabled, at both the
//! exact sequential path (`ICES_THREADS=1`) and four workers; and the
//! journal bytes themselves must be identical across thread counts
//! (the obs layer is only touched from sequential phases).

// Test-support helpers below sit outside #[test] fns, so the
// allow-*-in-tests clippy knobs don't reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ices_attack::{NpsCollusionAttack, VivaldiIsolationAttack};
use ices_coord::Coordinate;
use ices_core::EmConfig;
use ices_netsim::{ChurnModel, FaultPlan};
use ices_obs::Journal;
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

/// Loss, timeouts, churn, and one crashed node: the journal records
/// every event family the drivers emit.
fn plan(epoch_ticks: u64, crashed: usize) -> FaultPlan {
    FaultPlan::lossy(0.1, 0.05)
        .with_churn(ChurnModel::new(epoch_ticks, 0.1))
        .with_node_churn(crashed, ChurnModel::permanent_outage())
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    coordinates: Vec<Coordinate>,
    traces: Vec<TraceRing>,
    report: DetectionReport,
}

fn vivaldi_run(seed: u64, journaled: bool) -> (Fingerprint, Option<Vec<u8>>) {
    let mut sim = VivaldiSimulation::new(scenario(seed));
    if journaled {
        sim.enable_journal(Journal::in_memory());
    }
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
    let fp = Fingerprint {
        coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
        traces: sim.traces().to_vec(),
        report: sim.report().clone(),
    };
    (fp, sim.finish_journal())
}

fn nps_run(seed: u64, journaled: bool) -> (Fingerprint, Option<Vec<u8>>) {
    let mut sim = NpsSimulation::new(scenario(seed));
    if journaled {
        sim.enable_journal(Journal::in_memory());
    }
    sim.set_fault_plan(plan(2, sim.normal_nodes()[1]));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 8, 3.0, 0.5, seed);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    sim.run(3, &attack, true);
    let fp = Fingerprint {
        coordinates: (0..sim.len()).map(|i| sim.coordinate(i).clone()).collect(),
        traces: sim.traces().to_vec(),
        report: sim.report().clone(),
    };
    (fp, sim.finish_journal())
}

fn check(run: impl Fn(u64, bool) -> (Fingerprint, Option<Vec<u8>>) + Copy, seed: u64) {
    let (plain_seq, none) = ices_par::with_threads(1, || run(seed, false));
    assert!(none.is_none(), "no journal was enabled");
    let (journ_seq, bytes_seq) = ices_par::with_threads(1, || run(seed, true));
    let (plain_par, _) = ices_par::with_threads(4, || run(seed, false));
    let (journ_par, bytes_par) = ices_par::with_threads(4, || run(seed, true));

    assert!(
        plain_seq.report.faults.total_failed_probes() > 0,
        "the fault plan must actually fire for this test to mean anything"
    );
    // Journal on vs off: every observable identical, at both widths.
    assert_eq!(
        plain_seq, journ_seq,
        "journaling perturbed the sequential run"
    );
    assert_eq!(
        plain_par, journ_par,
        "journaling perturbed the parallel run"
    );
    assert_eq!(plain_seq, plain_par, "thread count changed the run");

    // The journal bytes themselves are thread-count invariant.
    let bytes_seq = bytes_seq.expect("sequential journal bytes");
    let bytes_par = bytes_par.expect("parallel journal bytes");
    assert!(!bytes_seq.is_empty(), "journal must contain events");
    assert_eq!(
        bytes_seq, bytes_par,
        "journal bytes diverged between thread counts"
    );

    // And they conform to the schema.
    let text = String::from_utf8(bytes_seq).expect("journal is utf8");
    let (parsed, errors) = ices_obs::report::parse(&text);
    assert!(errors.is_empty(), "journal schema violations: {errors:?}");
    assert!(!parsed.ticks.is_empty(), "journal has no tick rows");
}

#[test]
fn vivaldi_journal_is_a_pure_observer() {
    check(vivaldi_run, 61);
}

#[test]
fn nps_journal_is_a_pure_observer() {
    check(nps_run, 61);
}
