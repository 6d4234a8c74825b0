//! In-run overhead budgets: two ratios between twin runs timed back to
//! back on the same host, so neither needs a committed baseline.
//!
//! - **Journaling**: a clean sequential run with the `ices-obs` JSONL
//!   journal streaming to a file must keep at least 95% of the
//!   throughput of its unjournaled twin.
//! - **Intercept path**: the Sybil swarm at the paper's malicious share
//!   must keep at least 90% of the throughput of its honest-world twin,
//!   which runs through the same attack-phase plumbing.
//!
//! Both drivers are checked. A "step" is one embedding update: one
//! neighbor probe for Vivaldi, one reference-point probe for NPS. The
//! simulations are deterministic, so repetitions differ only by
//! scheduling noise and the fastest is kept. A budget overrun prints a
//! `PERF WARNING` line; timings on shared hardware are advisory, so
//! the exit status is 0 either way. Nothing is written but the
//! journaled twin's own journal, which is deleted after its run.
//!
//! ```text
//! overhead_budgets [--scale test|harness|paper] [--seed N]
//! ```

use ices_attack::{HonestWorld, SybilSwarmAttack};
use ices_bench::{print_header, HarnessOptions};
use ices_obs::Journal;
use ices_sim::experiments::Scale;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::secured::Backend;
use ices_sim::{NpsSimulation, SecuredSim, VivaldiSimulation};
use std::time::Instant;

/// Budgeted journaling overhead against the unjournaled twin.
const JOURNAL_BUDGET: f64 = 0.05;

/// Budgeted intercept-path overhead against the honest-world twin.
const ADVERSARY_BUDGET: f64 = 0.10;

/// Repetitions of the clean and journaled runs. At sub-second run
/// lengths scheduling noise easily exceeds the 5% journaling budget,
/// so the minimum time is the honest estimator.
const REPS: usize = 3;

/// Repetitions of the adversarial pair: its runs are short and each
/// side gets more chances to shed scheduler noise.
const ADV_REPS: usize = 5;

/// One timed configuration of a twin pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// `run_clean`, no journal.
    Clean,
    /// `run_clean` with the journal streaming to a file.
    Journaled,
    /// The attack-phase `run` against an honest world.
    HonestTwin,
    /// The attack-phase `run` against the Sybil swarm.
    Sybil,
}

impl Run {
    fn adversarial(self) -> bool {
        matches!(self, Run::HonestTwin | Run::Sybil)
    }
}

/// Detection off, no faults. The adversarial pair puts the paper's
/// malicious share in the population, so the only variable between
/// its two runs is the intercept path itself.
fn scenario(scale: &Scale, adversarial: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: if adversarial { 0.2 } else { 0.0 },
        alpha: 0.05,
        detection: false,
        clean_cycles: scale.clean_passes,
        attack_cycles: 0,
        embed_against_surveyors_only: false,
    }
}

fn swarm<B: Backend>(scale: &Scale, sim: &SecuredSim<B>) -> SybilSwarmAttack {
    SybilSwarmAttack::new(
        sim.malicious().iter().copied(),
        (sim.network().median_base_rtt() * 4.0).max(500.0),
        10.0,
        sim.coordinate(0).dims(),
        scale.seed ^ 0x5B11,
    )
}

/// Stream the journaled twin's journal to a real file under `target/`,
/// so the measured overhead includes buffered I/O; returns its path.
fn attach_journal<B: Backend>(sim: &mut SecuredSim<B>, driver: &str) -> Option<String> {
    let path = format!("target/overhead_{driver}.jsonl");
    let opened = std::fs::create_dir_all("target").and_then(|()| Journal::to_file(&path));
    match opened {
        Ok(j) => {
            sim.enable_journal(j);
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot open {path}: {e}");
            None
        }
    }
}

/// Flush and delete the journaled twin's file.
fn drop_journal<B: Backend>(sim: &mut SecuredSim<B>, path: Option<String>) {
    if let Some(path) = path {
        sim.finish_journal();
        let _ = std::fs::remove_file(path);
    }
}

/// Sequential steps/s of one Vivaldi run.
fn vivaldi(scale: &Scale, run: Run) -> f64 {
    let mut sim = VivaldiSimulation::new(scenario(scale, run.adversarial()));
    // 4× the clean-pass count for the adversarial pair: a pass takes
    // tens of ms, and the <10% delta it bounds drowns in scheduler
    // noise at that run length.
    let passes = if run.adversarial() {
        scale.clean_passes * 4
    } else {
        scale.clean_passes
    };
    let steps: usize = (0..sim.len())
        .map(|i| sim.neighbors_of(i).len())
        .sum::<usize>()
        * passes;
    let journal = (run == Run::Journaled)
        .then(|| attach_journal(&mut sim, "vivaldi"))
        .flatten();
    let attack = swarm(scale, &sim);
    let start = Instant::now();
    ices_par::with_threads(1, || match run {
        Run::Clean | Run::Journaled => sim.run_clean(passes),
        Run::HonestTwin => sim.run(passes, &HonestWorld, false),
        Run::Sybil => sim.run(passes, &attack, false),
    });
    let secs = start.elapsed().as_secs_f64();
    drop_journal(&mut sim, journal);
    steps as f64 / secs
}

/// Sequential steps/s of one NPS run.
fn nps(scale: &Scale, run: Run) -> f64 {
    let mut sim = NpsSimulation::new(scenario(scale, run.adversarial()));
    let rounds = scale.nps_clean_rounds;
    let steps: usize = (0..sim.len())
        .map(|i| sim.reference_points_of(i).len())
        .sum::<usize>()
        * rounds;
    let journal = (run == Run::Journaled)
        .then(|| attach_journal(&mut sim, "nps"))
        .flatten();
    let attack = swarm(scale, &sim);
    let start = Instant::now();
    ices_par::with_threads(1, || match run {
        Run::Clean | Run::Journaled => sim.run_clean(rounds),
        Run::HonestTwin => sim.run(rounds, &HonestWorld, false),
        Run::Sybil => sim.run(rounds, &attack, false),
    });
    let secs = start.elapsed().as_secs_f64();
    drop_journal(&mut sim, journal);
    steps as f64 / secs
}

/// The fastest of `reps` runs, in steps/s.
fn best_of(reps: usize, time: impl Fn() -> f64) -> f64 {
    (0..reps).map(|_| time()).fold(0.0, f64::max)
}

/// Print one budgeted ratio; returns whether it is over budget.
fn over_budget(driver: &str, what: &str, rate: f64, twin: f64, budget: f64) -> bool {
    let overhead = 100.0 * (1.0 - rate / twin);
    println!(
        "{driver:>8}  {what:<14} {rate:>12.0} steps/s vs twin {twin:>12.0}  \
         ({overhead:+.1}% overhead, budget {:.0}%)",
        100.0 * budget
    );
    let over = rate < twin * (1.0 - budget);
    if over {
        println!(
            "PERF WARNING: {driver} (threads=1) {what} overhead {overhead:.1}% exceeds the \
             {:.0}% budget — {twin:.0} → {rate:.0} steps/sec",
            100.0 * budget
        );
    }
    over
}

fn main() {
    let options = HarnessOptions::from_args();
    print_header(&options, "in-run overhead budgets");
    let scale = &options.scale;

    let mut warnings = 0;
    for (driver, rate) in [("vivaldi", vivaldi as fn(&Scale, Run) -> f64), ("nps", nps)] {
        let clean = best_of(REPS, || rate(scale, Run::Clean));
        let journaled = best_of(REPS, || rate(scale, Run::Journaled));
        let twin = best_of(ADV_REPS, || rate(scale, Run::HonestTwin));
        let sybil = best_of(ADV_REPS, || rate(scale, Run::Sybil));
        warnings += usize::from(over_budget(
            driver,
            "journaling",
            journaled,
            clean,
            JOURNAL_BUDGET,
        ));
        warnings += usize::from(over_budget(
            driver,
            "intercept-path",
            sybil,
            twin,
            ADVERSARY_BUDGET,
        ));
    }
    if warnings == 0 {
        println!("\noverhead_budgets: all 4 ratios within budget");
    } else {
        println!("\noverhead_budgets: {warnings}/4 ratios over budget (non-fatal; investigate)");
    }
}
