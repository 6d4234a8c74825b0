//! The two simulation workloads: secured Vivaldi on a faulty King-like
//! network (`vivaldi_chaos`) and secured NPS on PlanetLab
//! (`nps_attack`).
//!
//! One *cell* is the paper's full pipeline on a freshly constructed
//! simulation: clean passes, Surveyor calibration, detection arming,
//! attack passes, detection and accuracy reports. Cells repeat until
//! the run's time is up; every cell of a seed must produce the same
//! report bits.

use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ices_attack::{Adversary, NpsCollusionAttack, VivaldiIsolationAttack};
use ices_core::EmConfig;
use ices_netsim::faults::{ChurnModel, FaultPlan};
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::{AccuracyReport, DetectionReport, NpsSimulation, VivaldiSimulation};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vivaldi,
    Nps,
}

/// Honest partners sampled per node by the accuracy report.
const ACCURACY_PAIRS: usize = 30;

/// Setups timed per run at least, so `setup_s` is a median even when
/// only a few cells fit.
const MIN_SETUPS: usize = 5;

/// Population, clean passes and attack passes of one cell.
fn size(kind: Kind, smoke: bool) -> (usize, usize, usize) {
    match (kind, smoke) {
        (Kind::Vivaldi, false) => (1740, 12, 8),
        (Kind::Vivaldi, true) => (300, 6, 3),
        (Kind::Nps, false) => (280, 12, 8),
        (Kind::Nps, true) => (120, 6, 3),
    }
}

/// The fault plan of `bench_tick`'s faulty rows: 10% probe loss, 2.5%
/// timeouts and 5% churn per 16-tick epoch.
fn fault_plan() -> FaultPlan {
    FaultPlan::lossy(0.10, 0.025).with_churn(ChurnModel::new(16, 0.05))
}

fn scenario(kind: Kind, seed: u64, smoke: bool) -> ScenarioConfig {
    let (nodes, clean, attack) = size(kind, smoke);
    ScenarioConfig {
        seed,
        topology: match kind {
            Kind::Vivaldi => TopologyKind::small_king(nodes),
            Kind::Nps => TopologyKind::small_planetlab(nodes),
        },
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: clean,
        attack_cycles: attack,
        embed_against_surveyors_only: false,
    }
}

/// The simulation calls a cell makes, over either simulation type.
trait Secured {
    fn peer_steps(&self) -> usize;
    fn run_clean(&mut self, passes: usize);
    fn calibrate_surveyors(&mut self);
    fn arm_detection(&mut self);
    fn adversary(&self, seed: u64) -> Box<dyn Adversary>;
    fn run_pass(&mut self, adversary: &dyn Adversary);
    fn report(&self) -> DetectionReport;
    fn accuracy_report(&mut self) -> AccuracyReport;
}

impl Secured for VivaldiSimulation {
    fn peer_steps(&self) -> usize {
        (0..self.len()).map(|i| self.neighbors_of(i).len()).sum()
    }
    fn run_clean(&mut self, passes: usize) {
        VivaldiSimulation::run_clean(self, passes);
    }
    fn calibrate_surveyors(&mut self) {
        VivaldiSimulation::calibrate_surveyors(self, &EmConfig::default());
    }
    fn arm_detection(&mut self) {
        VivaldiSimulation::arm_detection(self);
    }
    fn adversary(&self, seed: u64) -> Box<dyn Adversary> {
        // The colluders push every node out of an exclusion zone around
        // one honest target (the chaos sweep's attack).
        let target = self.normal_nodes()[0];
        let radius = self.network().median_base_rtt() / 2.0;
        Box::new(VivaldiIsolationAttack::new(
            self.malicious().iter().copied(),
            self.coordinate(target).clone(),
            radius.max(20.0),
            seed ^ 0xC4A05,
        ))
    }
    fn run_pass(&mut self, adversary: &dyn Adversary) {
        self.run(1, adversary, false);
    }
    fn report(&self) -> DetectionReport {
        VivaldiSimulation::report(self)
    }
    fn accuracy_report(&mut self) -> AccuracyReport {
        VivaldiSimulation::accuracy_report(self, ACCURACY_PAIRS)
    }
}

impl Secured for NpsSimulation {
    fn peer_steps(&self) -> usize {
        (0..self.len())
            .map(|i| self.reference_points_of(i).len())
            .sum()
    }
    fn run_clean(&mut self, passes: usize) {
        NpsSimulation::run_clean(self, passes);
    }
    fn calibrate_surveyors(&mut self) {
        NpsSimulation::calibrate_surveyors(self, &EmConfig::default());
    }
    fn arm_detection(&mut self) {
        NpsSimulation::arm_detection(self);
    }
    fn adversary(&self, seed: u64) -> Box<dyn Adversary> {
        // The paper's blatant reference-point drag (3 RTTs per sample).
        let mut attack = NpsCollusionAttack::new(
            self.malicious().iter().copied(),
            8,
            3.0,
            0.5,
            seed ^ 0x4E5053,
        );
        attack.observe_hierarchy(&self.serving_map(), &self.layer_members());
        Box::new(attack)
    }
    fn run_pass(&mut self, adversary: &dyn Adversary) {
        self.run(1, adversary, false);
    }
    fn report(&self) -> DetectionReport {
        NpsSimulation::report(self)
    }
    fn accuracy_report(&mut self) -> AccuracyReport {
        NpsSimulation::accuracy_report(self, ACCURACY_PAIRS)
    }
}

fn build(kind: Kind, seed: u64, smoke: bool) -> Box<dyn Secured> {
    let config = scenario(kind, seed, smoke);
    match kind {
        Kind::Vivaldi => {
            let mut sim = VivaldiSimulation::new(config);
            sim.set_fault_plan(fault_plan());
            Box::new(sim)
        }
        Kind::Nps => Box::new(NpsSimulation::new(config)),
    }
}

/// Timings and outputs of one cell.
struct Cell {
    traced: bool,
    cell_s: f64,
    clean_s: f64,
    attack_s: f64,
    clean_steps: usize,
    attack_steps: usize,
    /// Wall time of every pass, clean and attack.
    pass_s: Vec<f64>,
    report: DetectionReport,
    rel_err_p50: f64,
}

fn run_cell(
    kind: Kind,
    args: &Args,
    sim: &mut dyn Secured,
    tracer: &mut Tracer,
    parent: u64,
) -> Cell {
    let (_, clean, attack) = size(kind, args.smoke);
    let start = Instant::now();
    let clean_steps = sim.peer_steps() * clean;
    // One pass per call is bit-identical to a single `run_clean(clean)` /
    // `run(attack)` and gives every pass its own latency sample.
    let mut pass_s = Vec::with_capacity(clean + attack);
    let phase = tracer.open("sim.run_clean", parent);
    for _ in 0..clean {
        let (_, s) = tracer.time("sim.pass", phase.id, || sim.run_clean(1));
        pass_s.push(s);
    }
    let clean_s = tracer.close(phase);
    tracer.time("core.calibrate_surveyors", parent, || {
        sim.calibrate_surveyors()
    });
    tracer.time("core.arm_detection", parent, || sim.arm_detection());
    let (adversary, _) = tracer.time("attack.new", parent, || sim.adversary(args.seed));
    let attack_steps = sim.peer_steps() * attack;
    let phase = tracer.open("sim.run", parent);
    for _ in 0..attack {
        let (_, s) = tracer.time("sim.pass", phase.id, || sim.run_pass(adversary.as_ref()));
        pass_s.push(s);
    }
    let attack_s = tracer.close(phase);
    let (report, _) = tracer.time("sim.report", parent, || sim.report());
    let (accuracy, _) = tracer.time("sim.accuracy_report", parent, || sim.accuracy_report());
    Cell {
        traced: tracer.enabled(),
        cell_s: start.elapsed().as_secs_f64(),
        clean_s,
        attack_s,
        clean_steps,
        attack_steps,
        pass_s,
        report,
        rel_err_p50: accuracy.median(),
    }
}

fn fingerprint(cell: &Cell) -> String {
    format!(
        "{:?} rel_err_p50={:016x}",
        cell.report,
        cell.rel_err_p50.to_bits()
    )
}

/// Output checks beyond repeatability: the attack ran, the detector
/// vetted steps and separates liars from honest nodes, and the fault
/// plan is active exactly on the faulty workload.
fn check(kind: Kind, cell: &Cell) -> Result<(), String> {
    let c = &cell.report.confusion;
    if c.positives() == 0 || c.negatives() == 0 {
        return Err(format!("no vetted malicious or honest steps: {c:?}"));
    }
    if c.tpr() <= c.fpr() {
        return Err(format!(
            "detector does not separate: tpr {} fpr {}",
            c.tpr(),
            c.fpr()
        ));
    }
    if !(cell.rel_err_p50.is_finite() && cell.rel_err_p50 > 0.0) {
        return Err(format!("rel_err_p50 = {}", cell.rel_err_p50));
    }
    let faulty = cell.report.faults.retried_probes > 0;
    if faulty != (kind == Kind::Vivaldi) {
        return Err(format!("fault counters {:?}", cell.report.faults));
    }
    Ok(())
}

pub fn run(kind: Kind, args: &Args, tracer: &mut Tracer) -> Outcome {
    let began = Instant::now();
    let mut setups = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut failed = 0u64;
    let mut first_fingerprint: Option<String> = None;
    // In a traced run, even cells record spans and odd cells do not;
    // the difference between the two is the tracing overhead.
    let trace_run = tracer.enabled();
    while cells.is_empty() || (trace_run && cells.len() < 2) || began.elapsed() < args.seconds {
        tracer.set_enabled(trace_run && cells.len().is_multiple_of(2));
        let root = tracer.open("cell", 0);
        let (mut sim, setup_s) =
            tracer.time("sim.new", root.id, || build(kind, args.seed, args.smoke));
        setups.push(setup_s);
        let cell = run_cell(kind, args, sim.as_mut(), tracer, root.id);
        tracer.close(root);
        let fp = fingerprint(&cell);
        let first = first_fingerprint.get_or_insert_with(|| fp.clone());
        let verdict = if *first != fp {
            Err("report differs from the first cell of this seed".to_string())
        } else {
            check(kind, &cell)
        };
        if let Err(why) = verdict {
            println!("perfbench: CHECK FAILED: cell {}: {why}", cells.len());
            failed += 1;
        }
        cells.push(cell);
    }
    tracer.set_enabled(trace_run);
    while setups.len() < MIN_SETUPS {
        let (_, s) = tracer.time("sim.new", 0, || build(kind, args.seed, args.smoke));
        setups.push(s);
    }

    let mut out = Outcome {
        attempted: cells.len() as u64,
        failed,
        fingerprint: first_fingerprint.unwrap_or_default(),
        ..Outcome::default()
    };
    let of = |f: fn(&Cell) -> f64| median(&cells.iter().map(f).collect::<Vec<_>>());
    let mut passes: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.pass_s.iter().copied())
        .collect();
    passes.sort_by(f64::total_cmp);
    let e = &mut out.end_to_end;
    e.insert("setup_s", median(&setups));
    e.insert("cell_s", of(|c| c.cell_s));
    e.insert(
        "secured_steps_per_s",
        of(|c| c.report.confusion.total() as f64 / c.attack_s),
    );
    e.insert(
        "ops_per_s",
        of(|c| (c.clean_steps + c.attack_steps) as f64 / (c.clean_s + c.attack_s)),
    );
    e.insert(
        "lat_p50_us",
        percentile_sorted(&passes, 50.0).unwrap_or(f64::NAN) * 1e6,
    );
    e.insert(
        "lat_p90_us",
        percentile_sorted(&passes, 90.0).unwrap_or(f64::NAN) * 1e6,
    );
    let last = &cells[cells.len() - 1];
    let report = &last.report;
    e.insert("tpr", report.confusion.tpr());

    // Per-layer times come from the recorded spans; counts from the
    // cell's own reports (they repeat exactly across cells).
    let span = |name: &str| median(&tracer.durations(name));
    let l = &mut out.per_layer;
    let clean_s = span("sim.run_clean");
    let attack_s = span("sim.run");
    let clean_ns = clean_s * 1e9 / last.clean_steps as f64;
    let attack_ns = attack_s * 1e9 / last.attack_steps as f64;
    l.insert("sim.clean_s", clean_s);
    l.insert("sim.clean_ns_per_step", clean_ns);
    l.insert("core.calibrate_s", span("core.calibrate_surveyors"));
    l.insert("core.arm_s", span("core.arm_detection"));
    l.insert("sim.attack_s", attack_s);
    l.insert("sim.attack_ns_per_step", attack_ns);
    l.insert("core.detect_overhead_ns_per_step", attack_ns - clean_ns);
    l.insert("sim.accuracy_s", span("sim.accuracy_report"));
    let c = &report.confusion;
    let rejected = c.true_positives + c.false_positives;
    l.insert("core.vetted_steps", c.total() as f64);
    l.insert("core.rejected_steps", rejected as f64);
    l.insert("core.reprieves", report.reprieves as f64);
    l.insert("core.replacements", report.replacements as f64);
    l.insert("core.filter_refreshes", report.filter_refreshes as f64);
    l.insert(
        "core.accept_ratio",
        1.0 - rejected as f64 / c.total() as f64,
    );
    l.insert("fpr", c.fpr());
    l.insert("rel_err_p50", last.rel_err_p50);
    let f = &report.faults;
    l.insert("netsim.probes_lost", f.lost_probes as f64);
    l.insert("netsim.probes_timed_out", f.timed_out_probes as f64);
    l.insert("netsim.probes_retried", f.retried_probes as f64);
    l.insert(
        "netsim.retry_ratio",
        f.retried_probes as f64 / (last.clean_steps + last.attack_steps) as f64,
    );
    l.insert("sim.coasted_steps", f.coasted_steps as f64);
    l.insert("sim.evictions", f.evictions as f64);
    l.insert("attack.active_lies", report.adversary.active_lies as f64);
    let traced: Vec<f64> = cells
        .iter()
        .filter(|c| c.traced)
        .map(|c| c.cell_s)
        .collect();
    let untraced: Vec<f64> = cells
        .iter()
        .filter(|c| !c.traced)
        .map(|c| c.cell_s)
        .collect();
    if trace_run {
        l.insert(
            "bench.trace_overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
        );
    }

    let (nodes, clean, attack) = size(kind, args.smoke);
    out.notes = vec![
        ("nodes".into(), nodes.to_string()),
        ("clean_passes".into(), clean.to_string()),
        ("attack_passes".into(), attack.to_string()),
        ("cells".into(), cells.len().to_string()),
        ("setup_samples".into(), setups.len().to_string()),
        ("lat_samples".into(), passes.len().to_string()),
        (
            "lat_unit".into(),
            "wall time of one embedding pass, clean or attack".into(),
        ),
        ("traced_cells".into(), traced.len().to_string()),
        ("untraced_cells".into(), untraced.len().to_string()),
        (
            "cell_s_each".into(),
            format!("{:?}", cells.iter().map(|c| c.cell_s).collect::<Vec<_>>()),
        ),
    ];
    println!(
        "perfbench: {} cells, {} setups, {} pass samples, cell median {:.3} s",
        cells.len(),
        setups.len(),
        passes.len(),
        out.end_to_end["cell_s"]
    );
    out
}
