//! Tick-engine throughput: times `N` clean passes of each driver on the
//! exact sequential path (`ICES_THREADS=1`) and on every available
//! worker, and writes `BENCH_sim.json` at the working directory root so
//! future changes have a perf trajectory to compare against.
//!
//! A "step" is one embedding update: one neighbor probe for Vivaldi,
//! one reference-point probe for NPS. Determinism makes the two
//! configurations directly comparable — they produce bit-for-bit
//! identical simulations, so any throughput delta is pure scheduling.
//!
//! Alongside the paper-shaped PlanetLab run, a **scale sweep** times the
//! Vivaldi engine on streamed King topologies (no dense matrix, every
//! base RTT recomputed per probe) at 280 / 1740 / 50 000 nodes, and —
//! behind `ICES_SCALE=xl` — smoke-tests constructing a million-node
//! streamed network plus a probe storm over it. A pool-dispatch
//! microbenchmark records what one persistent-pool broadcast costs
//! per call.
//!
//! A **detector-bank** microbenchmark rides the same report, timing
//! the scalar per-peer vetting loop against the SoA `DetectorBank`
//! sweep at paper scale (1,740 peers) and asserting bit-identical
//! suspicious counts while it times.
//!
//! ```text
//! bench_tick [--scale test|harness|paper] [--seed N] [--no-json]
//! ICES_SCALE=xl bench_tick   # adds the million-node streamed smoke
//! ```

use ices_bench::{print_header, HarnessOptions};
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::{Detector, DetectorBank, StateSpaceParams};
use ices_netsim::{ChurnModel, FaultPlan, KingConfig, Network};
use ices_obs::Journal;
use ices_nps::{NpsConfig, NpsNode};
use ices_sim::experiments::Scale;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::{NpsSimulation, VivaldiSimulation};
use serde::Serialize;
use std::time::Instant;

/// The faulty-network configuration timed alongside the clean runs:
/// 10% probe loss, 2.5% timeouts, 5% per-epoch churn — the chaos
/// sweep's mid-grid operating point.
fn faulty_plan() -> FaultPlan {
    FaultPlan::lossy(0.10, 0.025).with_churn(ChurnModel::new(16, 0.05))
}

/// One timed configuration of one driver.
#[derive(Debug, Serialize)]
struct TickBench {
    driver: &'static str,
    nodes: usize,
    ticks: usize,
    threads: usize,
    /// Whether the faulty-network plan (loss + churn) was active.
    faults: bool,
    /// Whether the run emitted an `ices-obs` JSONL journal to disk.
    journal: bool,
    /// Which adversary ran through the attack-phase plumbing: `"none"`
    /// for the clean `run_clean` configurations, `"sybil"` for the
    /// Sybil swarm at the paper's malicious share, `"honest_twin"` for
    /// the honest-world run through the *same* attack-phase code path —
    /// the sybil/honest_twin delta is the intercept path's cost.
    adversary: &'static str,
    secs: f64,
    steps_per_sec: f64,
}

/// Batched detection microbenchmark: one snapshot-wide classification
/// sweep (predict → evaluate → accept/coast) over a paper-scale peer
/// population, timed as a scalar `Detector` loop and as the
/// `DetectorBank` SoA kernels. Both paths run the same FP ops in the
/// same order, so the ratio is pure execution-shape:
/// columnized state, no per-call dispatch, `Q⁻¹(α/2)` cached per slot.
#[derive(Debug, Serialize)]
struct DetectorBankBench {
    /// Detector slots per sweep (the paper's larger population).
    peers: usize,
    /// Full classification sweeps timed per path.
    sweeps: usize,
    scalar_sweeps_per_sec: f64,
    batched_sweeps_per_sec: f64,
    /// Batched over scalar throughput; the bank's reason to exist.
    speedup: f64,
}

/// NPS coordinate-solver microbenchmark: full positioning rounds
/// (buffer samples → security filter trial solve → final solve) of a
/// single node against a fixed synthetic reference-point set, isolated
/// from probing and driver scheduling.
#[derive(Debug, Serialize)]
struct SolverBench {
    /// Synthetic reference points per round.
    reference_points: usize,
    /// Coordinate-space dimensionality.
    dims: usize,
    /// Rounds timed (each runs the trial + final simplex solves).
    solves: usize,
    secs: f64,
    solves_per_sec: f64,
}

/// One row of the streamed-topology scale sweep.
#[derive(Debug, Serialize)]
struct ScaleRow {
    /// Substrate flavor; currently always `"streamed_king"`.
    topology: &'static str,
    nodes: usize,
    ticks: usize,
    threads: usize,
    secs: f64,
    steps_per_sec: f64,
}

/// Per-call cost of putting work on the persistent pool.
#[derive(Debug, Serialize)]
struct PoolDispatch {
    /// Mean µs per two-partition `par_map_mut` over a warm pool.
    pool_dispatch_us: f64,
}

/// `ICES_SCALE=xl` smoke: can a million-node streamed topology be
/// constructed and probed at all, and how fast.
#[derive(Debug, Serialize)]
struct XlSmoke {
    nodes: usize,
    construct_secs: f64,
    probes: usize,
    probes_per_sec: f64,
}

/// The full benchmark result written to `BENCH_sim.json`.
#[derive(Debug, Serialize)]
struct BenchReport {
    scale: String,
    host_parallelism: usize,
    runs: Vec<TickBench>,
    scale_sweep: Vec<ScaleRow>,
    detector_bank: DetectorBankBench,
    pool_dispatch: PoolDispatch,
    /// Present only when `ICES_SCALE=xl` requested the smoke.
    xl_streamed: Option<XlSmoke>,
    nps_solver: SolverBench,
    /// `None` on single-core hosts: a wide row is still timed (it is an
    /// oversubscription measurement), but calling its ratio to the
    /// sequential row a "speedup" would be dishonest, so none is
    /// recorded and bench_check must not expect one.
    vivaldi_speedup: Option<f64>,
    nps_speedup: Option<f64>,
}

fn scenario(scale: &Scale) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.0,
        alpha: 0.05,
        detection: false,
        clean_cycles: scale.clean_passes,
        attack_cycles: 0,
        embed_against_surveyors_only: false,
    }
}

/// The journal sink a journaled configuration writes through: a real
/// file under `target/`, so the measured overhead includes buffered I/O.
fn bench_journal(driver: &str) -> Option<Journal> {
    if let Err(e) = std::fs::create_dir_all("target") {
        eprintln!("warning: cannot create target/: {e}");
        return None;
    }
    let path = format!("target/bench_{driver}.jsonl");
    match Journal::to_file(&path) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("warning: cannot open {path}: {e}");
            None
        }
    }
}

/// Repetitions per configuration; the fastest is recorded. The
/// simulations are deterministic, so reps differ only by scheduling
/// noise — and at sub-second run lengths that noise easily exceeds the
/// 5% journaling budget, making the minimum the honest estimator.
const REPS: usize = 3;

fn best_of(
    timer: fn(&Scale, usize, bool, bool) -> TickBench,
    scale: &Scale,
    threads: usize,
    faults: bool,
    journal: bool,
) -> TickBench {
    let mut best = timer(scale, threads, faults, journal);
    for _ in 1..REPS {
        let run = timer(scale, threads, faults, journal);
        if run.steps_per_sec > best.steps_per_sec {
            best = run;
        }
    }
    best
}

fn time_vivaldi(scale: &Scale, threads: usize, faults: bool, journal: bool) -> TickBench {
    let mut sim = VivaldiSimulation::new(scenario(scale));
    if faults {
        sim.set_fault_plan(faulty_plan());
    }
    if journal {
        if let Some(j) = bench_journal("vivaldi") {
            sim.enable_journal(j);
        }
    }
    let passes = scale.clean_passes;
    let steps: usize = (0..sim.len())
        .map(|i| sim.neighbors_of(i).len())
        .sum::<usize>()
        * passes;
    let start = Instant::now();
    ices_par::with_threads(threads, || sim.run_clean(passes));
    let secs = start.elapsed().as_secs_f64();
    sim.finish_journal();
    TickBench {
        driver: "vivaldi",
        nodes: sim.len(),
        ticks: passes,
        threads,
        faults,
        journal,
        adversary: "none",
        secs,
        steps_per_sec: steps as f64 / secs,
    }
}

fn time_nps(scale: &Scale, threads: usize, faults: bool, journal: bool) -> TickBench {
    let mut sim = NpsSimulation::new(scenario(scale));
    if faults {
        sim.set_fault_plan(faulty_plan());
    }
    if journal {
        if let Some(j) = bench_journal("nps") {
            sim.enable_journal(j);
        }
    }
    let rounds = scale.nps_clean_rounds;
    let steps: usize = (0..sim.len())
        .map(|i| sim.reference_points_of(i).len())
        .sum::<usize>()
        * rounds;
    let start = Instant::now();
    ices_par::with_threads(threads, || sim.run_clean(rounds));
    let secs = start.elapsed().as_secs_f64();
    sim.finish_journal();
    TickBench {
        driver: "nps",
        nodes: sim.len(),
        ticks: rounds,
        threads,
        faults,
        journal,
        adversary: "none",
        secs,
        steps_per_sec: steps as f64 / secs,
    }
}

/// The adversarial scenario: the paper's malicious share is present in
/// the population, detection stays off, and the run goes through the
/// attack-phase plumbing (`run` with an adversary) rather than
/// `run_clean` — so the only variable between the sybil row and its
/// honest twin is the intercept path itself.
fn adversarial_scenario(scale: &Scale) -> ScenarioConfig {
    ScenarioConfig {
        malicious_fraction: 0.2,
        ..scenario(scale)
    }
}

/// Time one attack-phase configuration of one driver: the Sybil swarm
/// at paper-scale parameters (`sybil == true`) or its honest-world
/// twin (`sybil == false`), both sequential.
fn time_adversarial(scale: &Scale, driver: &'static str, sybil: bool) -> TickBench {
    let swarm = |sim_malicious: &std::collections::BTreeSet<usize>,
                 median_rtt: f64,
                 dims: usize| {
        ices_attack::SybilSwarmAttack::new(
            sim_malicious.iter().copied(),
            (median_rtt * 4.0).max(500.0),
            10.0,
            dims,
            scale.seed ^ 0x5B11,
        )
    };
    let honest = ices_attack::HonestWorld;
    if driver == "vivaldi" {
        let mut sim = VivaldiSimulation::new(adversarial_scenario(scale));
        // 4× the clean-pass count: the vivaldi engine finishes a pass in
        // tens of ms, and the sybil/twin delta this pair exists to bound
        // (<10%) drowns in scheduler noise at that run length.
        let passes = scale.clean_passes * 4;
        let steps: usize = (0..sim.len())
            .map(|i| sim.neighbors_of(i).len())
            .sum::<usize>()
            * passes;
        let attack = swarm(
            sim.malicious(),
            sim.network().median_base_rtt(),
            sim.coordinate(0).dims(),
        );
        let start = Instant::now();
        ices_par::with_threads(1, || {
            if sybil {
                sim.run(passes, &attack, false);
            } else {
                sim.run(passes, &honest, false);
            }
        });
        let secs = start.elapsed().as_secs_f64();
        TickBench {
            driver,
            nodes: sim.len(),
            ticks: passes,
            threads: 1,
            faults: false,
            journal: false,
            adversary: if sybil { "sybil" } else { "honest_twin" },
                secs,
            steps_per_sec: steps as f64 / secs,
        }
    } else {
        let mut sim = NpsSimulation::new(adversarial_scenario(scale));
        let rounds = scale.nps_clean_rounds;
        let steps: usize = (0..sim.len())
            .map(|i| sim.reference_points_of(i).len())
            .sum::<usize>()
            * rounds;
        let attack = swarm(
            sim.malicious(),
            sim.network().median_base_rtt(),
            sim.coordinate(0).dims(),
        );
        let start = Instant::now();
        ices_par::with_threads(1, || {
            if sybil {
                sim.run(rounds, &attack, false);
            } else {
                sim.run(rounds, &honest, false);
            }
        });
        let secs = start.elapsed().as_secs_f64();
        TickBench {
            driver,
            nodes: sim.len(),
            ticks: rounds,
            threads: 1,
            faults: false,
            journal: false,
            adversary: if sybil { "sybil" } else { "honest_twin" },
                secs,
            steps_per_sec: steps as f64 / secs,
        }
    }
}

/// Extra repetitions for the adversarial pair: the 10% intercept-path
/// budget is tighter than the 20% regression budget, so its two rows
/// get more chances to shed scheduler noise (best-of is the honest
/// estimator for a deterministic workload).
const ADV_REPS: usize = 5;

fn best_adversarial(scale: &Scale, driver: &'static str, sybil: bool) -> TickBench {
    let mut best = time_adversarial(scale, driver, sybil);
    for _ in 1..ADV_REPS {
        let run = time_adversarial(scale, driver, sybil);
        if run.steps_per_sec > best.steps_per_sec {
            best = run;
        }
    }
    best
}

/// A detection-off, fault-free scenario on a **streamed** King
/// topology: no dense matrix exists at any size, so the same code path
/// scales from the paper's 1740 nodes to 50k and beyond in O(n) memory.
fn streamed_scenario(seed: u64, nodes: usize, passes: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::StreamedKing(KingConfig::small(nodes)),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.0,
        alpha: 0.05,
        detection: false,
        clean_cycles: passes,
        attack_cycles: 0,
        embed_against_surveyors_only: false,
    }
}

/// Time `passes` clean Vivaldi passes on a streamed King topology.
fn time_streamed_vivaldi(seed: u64, nodes: usize, passes: usize, threads: usize) -> ScaleRow {
    let mut sim = VivaldiSimulation::new(streamed_scenario(seed, nodes, passes));
    let steps: usize = (0..sim.len())
        .map(|i| sim.neighbors_of(i).len())
        .sum::<usize>()
        * passes;
    let start = Instant::now();
    ices_par::with_threads(threads, || sim.run_clean(passes));
    let secs = start.elapsed().as_secs_f64();
    ScaleRow {
        topology: "streamed_king",
        nodes: sim.len(),
        ticks: passes,
        threads,
        secs,
        steps_per_sec: steps as f64 / secs,
    }
}

/// The streamed-topology scale sweep: `(nodes, passes, threads)` rows.
/// The paper's two population sizes run at every scale; the 50k row —
/// the one that only exists because RTTs stream — is skipped at
/// `--scale test` to keep the quick configuration quick.
fn sweep_plan(scale_name: &str) -> Vec<(usize, usize, usize)> {
    let mut plan = vec![(280, 4, 1), (1740, 2, 1), (1740, 2, 0 /* wide */)];
    if scale_name != "test" {
        plan.push((50_000, 1, 1));
    }
    plan
}

/// Per-call pool-dispatch cost: the mean over many calls on a warm
/// pool. The workload is deliberately trivial (64 float increments) so the
/// measurement is dispatch overhead, not work.
fn time_pool_dispatch() -> PoolDispatch {
    let mut data = vec![0.0f64; 64];
    ices_par::with_threads(2, || {
        // Warm-up: first dispatch spawns and parks the workers.
        for _ in 0..16 {
            ices_par::par_map_mut(&mut data, |_, x| *x += 1.0);
        }
        const CALLS: usize = 4000;
        let start = Instant::now();
        for _ in 0..CALLS {
            ices_par::par_map_mut(&mut data, |_, x| *x += 1.0);
        }
        PoolDispatch {
            pool_dispatch_us: start.elapsed().as_secs_f64() * 1e6 / CALLS as f64,
        }
    })
}

/// `ICES_SCALE=xl`: construct a million-node streamed King network (no
/// simulation — the point is that the topology itself is O(n)) and
/// storm it with deterministic pseudo-random probe pairs.
fn xl_smoke(seed: u64) -> XlSmoke {
    const NODES: usize = 1_000_000;
    const PROBES: usize = 200_000;
    let start = Instant::now();
    let network = Network::from_king_streamed(KingConfig::small(NODES), seed);
    let construct_secs = start.elapsed().as_secs_f64();

    // Weyl-sequence pair picks: deterministic, aperiodic enough for a
    // smoke, and free of any RNG the determinism rules care about.
    let mut acc = 0usize;
    let mut checksum = 0.0f64;
    let start = Instant::now();
    for i in 0..PROBES {
        acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15usize);
        let a = acc % NODES;
        let b = (acc >> 20).wrapping_add(i) % NODES;
        if a != b {
            checksum += network.base_rtt(a, b);
        }
    }
    let probe_secs = start.elapsed().as_secs_f64();
    assert!(checksum.is_finite() && checksum > 0.0);
    XlSmoke {
        nodes: NODES,
        construct_secs,
        probes: PROBES,
        probes_per_sec: PROBES as f64 / probe_secs,
    }
}

/// Time one snapshot-wide detection sweep both ways: a scalar loop over
/// per-peer `Detector`s (the pre-bank merge-phase shape) and the
/// `DetectorBank` SoA kernels the drivers now run. The observation
/// schedule is a deterministic mix of nominal values and large
/// excursions, so both accept and coast paths stay hot, and each path's
/// suspicious-verdict count is checked against the other — the bank is
/// bit-identical to the scalar loop, so any disagreement is a bug, not
/// noise.
fn time_detector_bank() -> DetectorBankBench {
    const PEERS: usize = 1740; // the paper's larger PlanetLab population
    const SWEEPS: usize = 400;
    let params = StateSpaceParams {
        beta: 0.85,
        v_w: 0.003,
        v_u: 0.002,
        w_bar: 0.015,
        w0: 0.3,
        p0: 0.02,
    };
    let alpha = 0.05;
    // Deterministic observation for (sweep, slot): nominal relative
    // error most of the time, a large excursion on a sliding subset so
    // some verdicts reject and the coast path is exercised too.
    let obs_at = |sweep: usize, slot: usize| -> f64 {
        let phase = (sweep.wrapping_mul(31).wrapping_add(slot.wrapping_mul(17))) % 97;
        if phase == 0 {
            3.0 // far outside any sane threshold
        } else {
            0.08 + 0.10 * (phase as f64 / 97.0)
        }
    };

    // Scalar path: per-peer evaluate → accept/coast, PEERS detectors.
    let time_scalar = || -> (f64, u64) {
        let mut detectors: Vec<Detector> =
            (0..PEERS).map(|_| Detector::new(params, alpha)).collect();
        let mut suspicious = 0u64;
        let start = Instant::now();
        for sweep in 0..SWEEPS {
            for (slot, det) in detectors.iter_mut().enumerate() {
                let obs = obs_at(sweep, slot);
                let verdict = det.evaluate(obs);
                if verdict.suspicious {
                    suspicious += 1;
                    det.coast();
                } else {
                    det.accept(obs);
                }
            }
        }
        (start.elapsed().as_secs_f64(), suspicious)
    };

    // Batched path: the same schedule through the bank's flat sweeps.
    let time_batched = || -> (f64, u64) {
        let proto = Detector::new(params, alpha);
        let mut bank = DetectorBank::new();
        for _ in 0..PEERS {
            bank.push(&proto);
        }
        let mut obs = vec![0.0f64; PEERS];
        let active = vec![true; PEERS];
        let mut accept = vec![false; PEERS];
        let mut coast = vec![false; PEERS];
        let mut suspicious = 0u64;
        let start = Instant::now();
        for sweep in 0..SWEEPS {
            for (slot, o) in obs.iter_mut().enumerate() {
                *o = obs_at(sweep, slot);
            }
            bank.predict_all();
            let verdicts = bank.evaluate_all(&obs, &active);
            for (slot, verdict) in verdicts.iter().enumerate() {
                let bad = verdict.map(|v| v.suspicious).unwrap_or(false);
                accept[slot] = !bad;
                coast[slot] = bad;
                suspicious += bad as u64;
            }
            bank.accept_all(&obs, &accept);
            bank.coast_all(&coast);
        }
        (start.elapsed().as_secs_f64(), suspicious)
    };

    let mut scalar_secs = f64::INFINITY;
    let mut batched_secs = f64::INFINITY;
    let mut scalar_sus = 0;
    let mut batched_sus = 0;
    for _ in 0..REPS {
        let (s, n) = time_scalar();
        if s < scalar_secs {
            scalar_secs = s;
        }
        scalar_sus = n;
        let (s, n) = time_batched();
        if s < batched_secs {
            batched_secs = s;
        }
        batched_sus = n;
    }
    assert_eq!(
        scalar_sus, batched_sus,
        "bank diverged from the scalar loop — bit-identity is broken"
    );
    assert!(scalar_sus > 0, "schedule never tripped a detector");
    let scalar_sweeps_per_sec = SWEEPS as f64 / scalar_secs;
    let batched_sweeps_per_sec = SWEEPS as f64 / batched_secs;
    DetectorBankBench {
        peers: PEERS,
        sweeps: SWEEPS,
        scalar_sweeps_per_sec,
        batched_sweeps_per_sec,
        speedup: batched_sweeps_per_sec / scalar_sweeps_per_sec,
    }
}

/// Time the NPS positioning round on one node with the paper's 8-d
/// configuration and a fixed synthetic reference-point layout (the same
/// deterministic anchor grid the solver unit tests use).
fn time_nps_solver() -> SolverBench {
    let config = NpsConfig::paper_default();
    let dims = config.space.dims();
    let rps = config.rps_per_node;
    let truth: Vec<f64> = (0..dims).map(|i| 10.0 * i as f64).collect();
    let samples: Vec<PeerSample> = (0..rps)
        .map(|k| {
            let pos: Vec<f64> = (0..dims)
                .map(|d| {
                    if (k + d) % 3 == 0 {
                        100.0
                    } else {
                        -30.0 * (d as f64 + 1.0) / (k as f64 + 1.0)
                    }
                })
                .collect();
            let dist = pos
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            PeerSample {
                peer: k,
                peer_coord: Coordinate::euclidean(pos),
                peer_error: 0.1,
                rtt_ms: dist.max(1.0),
            }
        })
        .collect();

    let mut node = NpsNode::new(0, config, 42);
    let round = |node: &mut NpsNode| {
        for s in &samples {
            node.apply_step(s);
        }
        node.finish_round();
    };
    // Warm up: converge the coordinate and the solver scratch buffers.
    for _ in 0..3 {
        round(&mut node);
    }
    let solves = 300;
    let start = Instant::now();
    for _ in 0..solves {
        round(&mut node);
    }
    let secs = start.elapsed().as_secs_f64();
    SolverBench {
        reference_points: rps,
        dims,
        solves,
        secs,
        solves_per_sec: solves as f64 / secs,
    }
}

fn main() {
    let options = HarnessOptions::from_args();
    print_header(&options, "tick-engine throughput (BENCH_sim)");

    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always time a wide configuration so the recorded speedups are
    // measured ratios, never an assumed 1. Host parallelism is read
    // directly (not `ices_par::max_threads`, which an ambient
    // ICES_THREADS would pin); a single-core host still times two
    // workers — an honest oversubscription measurement.
    let wide = host.max(2);

    let configs: [usize; 2] = [1, wide];
    let mut runs = Vec::new();
    for (name, timer) in [
        (
            "vivaldi",
            time_vivaldi as fn(&Scale, usize, bool, bool) -> TickBench,
        ),
        ("nps", time_nps),
    ] {
        for threads in configs {
            let bench = best_of(timer, &options.scale, threads, false, false);
            println!(
                "{name:>8}  threads={:<2}  {:>8.2}s  {:>12.0} steps/s",
                bench.threads, bench.secs, bench.steps_per_sec
            );
            runs.push(bench);
        }
        // One faulty-network configuration per driver (sequential), so
        // the fault layer's overhead is on the perf trajectory too.
        let bench = best_of(timer, &options.scale, 1, true, false);
        println!(
            "{name:>8}  threads={:<2}  {:>8.2}s  {:>12.0} steps/s  (faulty: 10% loss + churn)",
            bench.threads, bench.secs, bench.steps_per_sec
        );
        runs.push(bench);
        // One journaled sequential configuration per driver: the obs
        // layer's contract is < 5% overhead with the JSONL journal
        // streaming to disk.
        let bench = best_of(timer, &options.scale, 1, false, true);
        let clean = runs
            .iter()
            .find(|r| {
                r.driver == name && r.threads == 1 && !r.faults && !r.journal
                    && r.adversary == "none"
            })
            .map(|r| r.steps_per_sec);
        let overhead = clean
            .map(|c| (c / bench.steps_per_sec - 1.0) * 100.0)
            .unwrap_or(f64::NAN);
        println!(
            "{name:>8}  threads={:<2}  {:>8.2}s  {:>12.0} steps/s  (journaled: {overhead:+.1}% overhead)",
            bench.threads, bench.secs, bench.steps_per_sec
        );
        runs.push(bench);
        // Adversarial pair (sequential): the Sybil swarm at the paper's
        // malicious share vs its honest-world twin through the same
        // attack-phase plumbing. bench_check holds the delta — the
        // intercept path's cost — under 10%.
        let twin = best_adversarial(&options.scale, name, false);
        let sybil = best_adversarial(&options.scale, name, true);
        let overhead = (twin.steps_per_sec / sybil.steps_per_sec - 1.0) * 100.0;
        println!(
            "{name:>8}  threads=1   {:>8.2}s  {:>12.0} steps/s  (sybil swarm: {overhead:+.1}% vs honest twin)",
            sybil.secs, sybil.steps_per_sec
        );
        runs.push(twin);
        runs.push(sybil);
    }

    // Streamed-topology scale sweep: the paper's sizes plus 50k, all on
    // the generator that never materializes a matrix.
    let mut scale_sweep = Vec::new();
    for (nodes, passes, threads) in sweep_plan(&options.scale_name) {
        let threads = if threads == 0 { wide } else { threads };
        // One rep at 50k (seconds per run); best-of-2 below that.
        let mut row = time_streamed_vivaldi(options.scale.seed, nodes, passes, threads);
        if nodes <= 1740 {
            let rerun = time_streamed_vivaldi(options.scale.seed, nodes, passes, threads);
            if rerun.steps_per_sec > row.steps_per_sec {
                row = rerun;
            }
        }
        println!(
            "{:>8}  n={:<7} threads={:<2}  {:>8.2}s  {:>12.0} steps/s  (streamed)",
            "sweep", row.nodes, row.threads, row.secs, row.steps_per_sec
        );
        scale_sweep.push(row);
    }

    let detector_bank = time_detector_bank();
    println!(
        "{:>8}  {} peers × {} sweeps  scalar {:>8.0}/s  batched {:>8.0}/s  ({:.2}x)",
        "detbank",
        detector_bank.peers,
        detector_bank.sweeps,
        detector_bank.scalar_sweeps_per_sec,
        detector_bank.batched_sweeps_per_sec,
        detector_bank.speedup
    );

    let pool_dispatch = time_pool_dispatch();
    println!(
        "{:>8}  pool broadcast {:.2} µs/call",
        "pool", pool_dispatch.pool_dispatch_us
    );

    let xl_streamed = if std::env::var("ICES_SCALE").as_deref() == Ok("xl") {
        let smoke = xl_smoke(options.scale.seed);
        println!(
            "{:>8}  n={} constructed in {:.2}s, {} probes at {:.0}/s",
            "xl", smoke.nodes, smoke.construct_secs, smoke.probes, smoke.probes_per_sec
        );
        Some(smoke)
    } else {
        None
    };

    let solver = time_nps_solver();
    println!(
        "{:>8}  {} rounds × ({}-d, {} RPs)  {:>8.2}s  {:>12.1} solves/s",
        "nps-kern", solver.solves, solver.dims, solver.reference_points, solver.secs,
        solver.solves_per_sec
    );

    // Speedup compares the clean configurations only — and only on a
    // host that actually has two cores. On a single-core host the wide
    // row measures oversubscription, not parallel speedup, so the field
    // stays `null` rather than recording a ratio no other host should
    // be compared against.
    let speedup = |driver: &str| -> Option<f64> {
        if host < 2 {
            return None;
        }
        let of = |t: usize| {
            runs.iter()
                .find(|r| {
                    r.driver == driver && r.threads == t && !r.faults && !r.journal
                        && r.adversary == "none"
                })
                .map(|r| r.steps_per_sec)
        };
        Some(of(wide)? / of(1)?)
    };
    let (vivaldi_speedup, nps_speedup) = (speedup("vivaldi"), speedup("nps"));
    let report = BenchReport {
        scale: options.scale_name.clone(),
        host_parallelism: host,
        vivaldi_speedup,
        nps_speedup,
        nps_solver: solver,
        scale_sweep,
        detector_bank,
        pool_dispatch,
        xl_streamed,
        runs,
    };
    match (report.vivaldi_speedup, report.nps_speedup) {
        (Some(v), Some(n)) => println!(
            "\nspeedup: vivaldi {v:.2}x, nps {n:.2}x (host parallelism {host})"
        ),
        _ => println!(
            "\nspeedup: not measured — single-core host (parallelism {host}); \
             the threads={wide} rows are oversubscription measurements"
        ),
    }

    if options.write_json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write("BENCH_sim.json", json) {
                    eprintln!("warning: cannot write BENCH_sim.json: {e}");
                } else {
                    eprintln!("(result written to BENCH_sim.json)");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize result: {e}"),
        }
    }
}
