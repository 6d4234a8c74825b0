//! Full-system Vivaldi simulation driver.
//!
//! Runs the paper's Vivaldi setup end to end: the synthetic topology,
//! 64-neighbor spring relaxation, Surveyors embedding exclusively among
//! themselves, EM calibration, the detection protocol in front of every
//! honest node, and the colluding-isolation adversary.
//!
//! ## The two-phase tick loop
//!
//! Each embedding *tick* (one neighbor slot of one pass) runs two
//! phases, snapshot and update, with a probe pass between them:
//!
//! 1. **Snapshot** — every node's `(coordinate, local error)` is copied
//!    into reusable flat structure-of-arrays buffers
//!    ([`crate::snapshot::CoordSnapshot`]);
//! 2. **Probe** — every node's probe of its slot peer is planned from
//!    the liveness mask and the link-fault draws, then every probe that
//!    gets through is measured in batched passes
//!    ([`ices_netsim::Network::smoothed_batch`]);
//! 3. **Update** — every node independently consults the adversary
//!    with its measured RTT and steps its own embedding against the
//!    snapshot. Nodes mutate only themselves, so this phase fans out
//!    over [`ices_par::par_map_mut`].
//!
//! Per-step probe nonces are derived from `(tick, node)` via
//! [`ices_stats::rng::derive2`] rather than drawn from a shared counter,
//! and the per-node effects (trace samples, confusion counts, neighbor
//! replacements) are merged *in node order* afterwards — so the result
//! is bit-for-bit identical at any worker count, including the
//! sequential `ICES_THREADS=1` path.

use crate::metrics::{AccuracyReport, DetectionReport};
use crate::obs::SimObs;
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::snapshot::CoordSnapshot;
use crate::trace::TraceRing;
use ices_obs::Journal;
use ices_attack::defense::witness_votes_against;
use ices_attack::{Adversary, DefenseConfig};
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::{
    calibrate, vet_single, CalibrationOutcome, DetectorBank, EmConfig, SecureNode, SecureStep,
    SecurityConfig, StateSpaceParams, SurveyorInfo, SurveyorRegistry, VetEvent,
};
use ices_netsim::{
    EclipsePlan, FaultPlan, Network, ProbeBatch, ProbeKey, ProbeOutcome, ProbeRequest,
};
use ices_stats::kmeans::kmeans;
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use ices_vivaldi::{select_neighbors, ClosePeers, VivaldiConfig, VivaldiNode};
use rand::RngExt;
use std::collections::BTreeSet;
use ices_stats::streams;

/// How many random Surveyors a joining node probes before adopting the
/// closest one's filter (§4.2's join protocol).
const JOIN_PROBE_CANDIDATES: usize = 8;

/// Cap on the per-node trace length kept for calibration and replay.
const TRACE_CAP: usize = 8192;

/// Recent clean samples used to prime a freshly adopted filter.
const PRIME_SAMPLES: usize = 64;

/// Extra probe attempts after a lost/timed-out probe within one tick
/// (the bounded deterministic backoff: retries are immediate re-probes
/// under fresh nonces, capped per tick).
const PROBE_RETRIES: u32 = 2;

/// Consecutive failed ticks toward one neighbor before the node gives
/// up and evicts it as dead.
pub const DEAD_PEER_EVICT_FAILURES: u32 = 3;

/// Above this population size, neighbor selection samples a bounded
/// candidate pool per node instead of scanning all n−1 peers — the full
/// scan is O(n²) at construction, untenable at 50k+. Both paper-scale
/// populations (280, 1740) sit below the cap, so their candidate pools —
/// and every downstream fingerprint — are unchanged.
const NEIGHBOR_CANDIDATE_CAP: usize = 2048;

/// Distinct candidates sampled per node above the cap — comfortably more
/// than the paper's 64-neighbor budget needs for a healthy close/far mix.
const NEIGHBOR_CANDIDATE_SAMPLE: usize = 512;

enum Participant {
    /// No detection in front of the embedding (Surveyors, malicious
    /// nodes, and every node in detection-off baselines).
    Plain(VivaldiNode),
    /// Vetted by the detection protocol.
    Secured(Box<SecureNode<VivaldiNode>>),
}

impl Participant {
    fn coordinate(&self) -> &Coordinate {
        match self {
            Participant::Plain(n) => n.coordinate(),
            Participant::Secured(s) => s.inner().coordinate(),
        }
    }

    fn local_error(&self) -> f64 {
        match self {
            Participant::Plain(n) => n.local_error(),
            Participant::Secured(s) => s.inner().local_error(),
        }
    }
}

/// Why a probe produced no measurement (terminal, after retries).
#[derive(Debug, Clone, Copy)]
enum ProbeFate {
    Lost,
    TimedOut,
    PeerDown,
}

/// A secured node's detector work for this tick, deferred out of the
/// parallel update phase so the merge phase can classify the whole
/// snapshot of peer samples in one [`DetectorBank`] sweep. The sweep
/// replays the exact per-node f64 op order of the scalar
/// [`SecureNode::step`] / [`SecureNode::step_missing`] calls it
/// replaces, so every fingerprint and determinism suite is unchanged.
enum PendingVet {
    /// Run the innovation test on this sample (the scalar `step` path).
    Test {
        sample: PeerSample,
        label_malicious: bool,
    },
    /// Coast the detector: missing sample or defense rejection (the
    /// scalar `step_missing` path).
    Coast,
}

/// What one node's embedding step asks the driver to apply globally.
/// Collected from the parallel update phase and merged in node order.
#[derive(Default)]
struct StepEffect {
    /// Measured relative error to append to the node's trace.
    recorded: Option<f64>,
    /// `(label_malicious, flagged)` for the detection confusion matrix.
    vetted: Option<(bool, bool)>,
    /// The step hit the first-time-peer reprieve.
    reprieved: bool,
    /// The detection test rejected this peer; replace it.
    rejected_peer: Option<usize>,
    /// The node was crashed for this tick (churn) and did nothing.
    self_down: bool,
    /// The probe completed but needed at least one retry.
    retried: bool,
    /// The probe completed: clear the peer's consecutive-failure count.
    probe_ok_peer: Option<usize>,
    /// The probe failed after all retries: `(peer, terminal fate)`.
    failed_probe: Option<(usize, ProbeFate)>,
    /// A secured node absorbed the missing sample as a detector coast.
    coasted: bool,
    /// The adversary injected a tampered sample this step (ground
    /// truth, counted before any vetting).
    lied: bool,
    /// The intake clamp raised a tampered sample's deflated RTT.
    clamped_rtt: bool,
    /// Cross-verification witness probes this step issued.
    cross_checks: u64,
    /// The defense rejected the sample before the innovation test.
    defense_rejected: bool,
    /// Detector work this node deferred to the merge-phase batched
    /// sweep (`None` for plain nodes and idle slots).
    pending: Option<PendingVet>,
}

/// The Vivaldi system simulation.
pub struct VivaldiSimulation {
    config: ScenarioConfig,
    vivaldi: VivaldiConfig,
    security: SecurityConfig,
    network: Network,
    /// Ground-truth latent positions (for k-means Surveyor placement).
    latent: Vec<(f64, f64)>,
    surveyors: BTreeSet<usize>,
    malicious: BTreeSet<usize>,
    neighbors: Vec<Vec<usize>>,
    /// The slot-major probe plan: `links[slot * n + node]` is `node`'s
    /// neighbor in `slot` with its probe key (`None` past the node's
    /// degree), one row per slot. A tick reads one contiguous row
    /// instead of a heap row per node, and its probes skip the O(n²)
    /// base-RTT store and the pair hashes. Kept in step with
    /// `neighbors` by [`VivaldiSimulation::set_neighbor`], the only
    /// neighbor writer after `new`.
    links: Vec<Option<Link>>,
    participants: Vec<Participant>,
    registry: SurveyorRegistry,
    traces: Vec<TraceRing>,
    /// Count of completed embedding ticks; each tick's probe nonces are
    /// derived from `(tick, node)`, independent of execution order.
    tick: u64,
    /// Metrics registry + optional run journal; the single source of
    /// truth the [`DetectionReport`] is derived from.
    obs: SimObs,
    rng: SimRng,
    /// Reusable SoA snapshot buffer for the tick loop's phase 1 — flat
    /// arrays refilled in place, so steady-state ticks allocate nothing
    /// to photograph the population.
    snapshot: CoordSnapshot,
    /// Per-node liveness at the current tick (fault mode only), filled
    /// once per tick in place of per-probe churn draws.
    up: Vec<bool>,
    /// The tick's probe plan and batched measurements, in chunks of
    /// [`PROBE_CHUNK`] nodes; refilled in place every tick.
    probe_chunks: Vec<ProbeChunk>,
    /// Per-node consecutive probe-failure counts toward each neighbor
    /// (fault mode only; empty maps on a clean network).
    probe_failures: Vec<std::collections::BTreeMap<usize, u32>>,
    /// Nodes whose [`VivaldiSimulation::arm_detection`] found no live
    /// Surveyor candidate (total outage); retried each tick.
    pending_arms: BTreeSet<usize>,
    /// Opt-in cross-verification defense; [`DefenseConfig::off`] (the
    /// paper's system) by default.
    defense: DefenseConfig,
    /// Registrar-poisoning plan; the empty plan steers nothing and
    /// keeps every draw bit-identical to an un-eclipsed run.
    eclipse: EclipsePlan,
    /// Monotone nonce for eclipse-steered replacement draws.
    replacement_draws: u64,
    /// Reusable SoA execution engine for the merge-phase detection
    /// sweep. Transient per tick: state is gathered from and scattered
    /// back to each node's scalar [`ices_core::Detector`], which stays
    /// the source of truth.
    bank: DetectorBank,
}

/// One neighbor slot of one node in the slot-major probe plan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Link {
    peer: usize,
    key: ProbeKey,
}

/// Nodes per chunk of a tick's probe plan: a chunk's batched
/// measurement buffers stay cache-resident, and the chunks are the
/// units the worker pool shares out.
const PROBE_CHUNK: usize = 256;

/// What the plan pass settles about one node's probe in a tick,
/// before anything is measured: liveness and every link-fault draw
/// are pure functions of the tick, so the first attempt that gets
/// through is known up front.
#[derive(Debug, Clone, Copy)]
enum PlannedProbe {
    /// No neighbor in this slot.
    Idle,
    /// The node is crashed for this tick.
    SelfDown,
    /// Every attempt failed; `fate` is the last one's.
    Failed { peer: usize, fate: ProbeFate },
    /// An attempt got through: its RTT is `rtts[request]` of the chunk.
    Measured {
        peer: usize,
        request: usize,
        retried: bool,
    },
}

/// The probe plan of [`PROBE_CHUNK`] consecutive nodes for one tick,
/// with the buffers of its batched measurement.
#[derive(Default)]
struct ProbeChunk {
    /// One plan per node of the chunk.
    plans: Vec<PlannedProbe>,
    /// The probes that get through, in node order.
    requests: Vec<ProbeRequest>,
    /// `requests`' smoothed RTTs.
    rtts: Vec<f64>,
    batch: ProbeBatch,
}

impl ProbeChunk {
    /// Plan the probes of the chunk's nodes (`row` is their slice of
    /// the tick's `links` row, starting at node `first`), then measure
    /// every probe that gets through in one [`Network::smoothed_batch`].
    fn plan_and_measure(
        &mut self,
        network: &Network,
        row: &[Option<Link>],
        first: usize,
        faulty: bool,
        up: &[bool],
        nonces: &TickNonces,
    ) {
        self.plans.clear();
        self.requests.clear();
        for (offset, link) in row.iter().enumerate() {
            let node = first + offset;
            let plan = match *link {
                None => PlannedProbe::Idle,
                Some(_) if faulty && !up[node] => PlannedProbe::SelfDown,
                Some(Link { peer, key }) => {
                    match first_attempt(network, &key, node, peer, faulty, up, nonces) {
                        Ok(attempt) => {
                            self.requests.push(ProbeRequest {
                                a: node,
                                b: peer,
                                key,
                                nonce: nonces.nonce(node, attempt),
                            });
                            PlannedProbe::Measured {
                                peer,
                                request: self.requests.len() - 1,
                                retried: attempt > 0,
                            }
                        }
                        Err(fate) => PlannedProbe::Failed { peer, fate },
                    }
                }
            };
            self.plans.push(plan);
        }
        network.smoothed_batch(&self.requests, &mut self.batch, &mut self.rtts);
    }
}

/// The first attempt of `node`'s probe of `peer` that gets through,
/// or the terminal fate when none does. Both endpoints up, only the
/// link-fault gate decides each attempt. Bounded deterministic backoff:
/// immediate re-probes under fresh retry-stream nonces, capped per
/// tick. On a clean network the first attempt always gets through.
fn first_attempt(
    network: &Network,
    key: &ProbeKey,
    node: usize,
    peer: usize,
    faulty: bool,
    up: &[bool],
    nonces: &TickNonces,
) -> Result<u32, ProbeFate> {
    if !faulty {
        return Ok(0);
    }
    if !up[peer] {
        return Err(ProbeFate::PeerDown);
    }
    let mut fate = ProbeFate::Lost;
    for attempt in 0..=PROBE_RETRIES {
        match network.link_fate(key, nonces.nonce(node, attempt)) {
            None => return Ok(attempt),
            Some(ProbeOutcome::TimedOut) => fate = ProbeFate::TimedOut,
            // The gate yields only `Lost` and `TimedOut`.
            Some(_) => fate = ProbeFate::Lost,
        }
    }
    Err(fate)
}

/// The probe nonces of one tick. The nonce of retry `attempt` of
/// `node`'s step is `derive2(stream, tick, node)`: a pure function of
/// the triple, so concurrent workers need no shared counter. Attempt 0
/// draws from the `STEP` stream — the clean-network nonce, so an empty
/// fault plan reproduces seed behavior bit for bit; later attempts
/// draw from disjoint `RTRY` retry streams. The per-tick half of each
/// derivation is done once here, leaving one hash per probe.
struct TickNonces([u64; PROBE_RETRIES as usize + 1]);

impl TickNonces {
    fn new(tick: u64) -> Self {
        Self(std::array::from_fn(|attempt| {
            let stream = if attempt == 0 {
                streams::STEP
            } else {
                derive(streams::RTRY, attempt as u64)
            };
            derive(stream, tick)
        }))
    }

    fn nonce(&self, node: usize, attempt: u32) -> u64 {
        derive(self.0[attempt as usize], node as u64)
    }
}

impl VivaldiSimulation {
    /// Build the system: topology, Surveyor/malicious assignment, and
    /// neighbor sets. All nodes start at the origin, unconverged.
    ///
    /// # Panics
    /// Panics on invalid scenario configuration or if the Surveyor
    /// budget rounds to fewer than 2 nodes (Surveyors need each other).
    pub fn new(config: ScenarioConfig) -> Self {
        Self::with_vivaldi_config(config, VivaldiConfig::paper_default())
    }

    /// Like [`VivaldiSimulation::new`] with explicit Vivaldi parameters.
    pub fn with_vivaldi_config(config: ScenarioConfig, vivaldi: VivaldiConfig) -> Self {
        config.validate();
        vivaldi.validate();
        let seed = config.seed;
        let (network, latent) = match &config.topology {
            TopologyKind::King(kc) => {
                let mut topo = kc.generate(seed);
                let positions = std::mem::take(&mut topo.positions);
                (Network::from_king(topo, seed), positions)
            }
            TopologyKind::StreamedKing(kc) => {
                // Same King model, no O(n²) matrix: pairs are recomputed
                // on demand and the placement is the only per-node state.
                let synth = ices_netsim::SynthRtt::new(kc.clone(), seed);
                let positions = synth.placement().positions.clone();
                (Network::from_synth(synth, seed), positions)
            }
            TopologyKind::PlanetLab(pc) => {
                let mut pl = pc.generate(seed);
                let positions = std::mem::take(&mut pl.topology.positions);
                (Network::from_planetlab(pl, seed), positions)
            }
        };
        let n = network.len();
        let mut rng = SimRng::from_stream(seed, streams::VIVD,0); // "VIVD"

        // Surveyor deployment.
        let want = ((n as f64) * config.surveyors.fraction()).round().max(2.0) as usize;
        let surveyors: BTreeSet<usize> = match config.surveyors {
            SurveyorPlacement::Random { .. } => sample_indices(&mut rng, n, want.min(n))
                .into_iter()
                .collect(),
            SurveyorPlacement::KMeansHeads { .. } => {
                let points: Vec<Vec<f64>> = latent.iter().map(|&(x, y)| vec![x, y]).collect();
                let mut heads: BTreeSet<usize> = kmeans(&points, want.min(n), seed, 100)
                    .heads
                    .into_iter()
                    .collect();
                // Top up with random nodes if clusters shared heads.
                while heads.len() < want.min(n) {
                    heads.insert(rng.random_range(0..n));
                }
                heads
            }
        };
        assert!(
            surveyors.len() >= 2,
            "need at least 2 Surveyors so they can position each other"
        );

        // Malicious assignment among non-Surveyors.
        let civilians: Vec<usize> = (0..n).filter(|i| !surveyors.contains(i)).collect();
        let mal_count = ((n as f64) * config.malicious_fraction).round() as usize;
        let malicious: BTreeSet<usize> =
            sample_indices(&mut rng, civilians.len(), mal_count.min(civilians.len()))
                .into_iter()
                .map(|i| civilians[i])
                .collect();

        // Neighbor sets: Surveyors use each other exclusively; everyone
        // else draws the paper's 64-neighbor close/far mix from the whole
        // population — or, above [`NEIGHBOR_CANDIDATE_CAP`], from a
        // bounded per-node candidate sample so construction stays O(n)
        // per node instead of O(n²) total. Both paper-scale populations
        // sit below the cap, so their candidate pools are the full scan:
        // close/far pools filled from the store's upper triangle one row
        // per node, in row-major order. Node `i`'s pools are complete
        // once its own row is in, and the peers after it are in that row.
        let mut full_scan = (!config.embed_against_surveyors_only
            && n - 1 <= NEIGHBOR_CANDIDATE_CAP)
            .then(|| ClosePeers::new(n));
        let mut row = Vec::new();
        let mut neighbors = Vec::with_capacity(n);
        let mut keys: Vec<Vec<ProbeKey>> = Vec::with_capacity(n);
        for node in 0..n {
            let later = full_scan.as_mut().map(|pools| {
                let later = network.rtt_store().upper_row(node, &mut row);
                pools.add_row(node, later, vivaldi.close_threshold_ms);
                later
            });
            let surveyor_only = surveyors.contains(&node) || config.embed_against_surveyors_only;
            let (chosen, node_keys) = match (&full_scan, later) {
                (Some(pools), Some(later)) if !surveyor_only => {
                    let chosen = pools.select(node, &vivaldi, &mut rng);
                    // A later peer's base RTT is in the row just read.
                    let base = |p: usize| match p.checked_sub(node + 1) {
                        Some(k) => later[k],
                        None => network.base_rtt(node, p),
                    };
                    let node_keys = chosen
                        .iter()
                        .map(|&p| network.probe_key_with_base(node, p, base(p)))
                        .collect();
                    (chosen, node_keys)
                }
                _ => {
                    let candidates: Vec<(usize, f64)> = if surveyor_only {
                        surveyors
                            .iter()
                            .filter(|&&s| s != node)
                            .map(|&s| (s, network.base_rtt(node, s)))
                            .collect()
                    } else {
                        // Distinct draws from a per-node stream:
                        // deterministic in (seed, node), independent of
                        // construction order.
                        let mut pool_rng = SimRng::from_stream(seed, streams::NCND, node as u64);
                        let mut pool = BTreeSet::new();
                        while pool.len() < NEIGHBOR_CANDIDATE_SAMPLE {
                            let p = pool_rng.random_range(0..n);
                            if p != node {
                                pool.insert(p);
                            }
                        }
                        pool.into_iter()
                            .map(|p| (p, network.base_rtt(node, p)))
                            .collect()
                    };
                    let chosen = select_neighbors(&candidates, &vivaldi, &mut rng);
                    // Both candidate pools above are in ascending id
                    // order, so a binary search finds each chosen peer's
                    // base RTT among the candidates instead of re-reading
                    // the store.
                    let node_keys = chosen
                        .iter()
                        .map(
                            |&p| match candidates.binary_search_by_key(&p, |&(id, _)| id) {
                                Ok(i) => network.probe_key_with_base(node, p, candidates[i].1),
                                Err(_) => network.probe_key(node, p),
                            },
                        )
                        .collect();
                    (chosen, node_keys)
                }
            };
            keys.push(node_keys);
            neighbors.push(chosen);
        }
        // The slot-major plan, written row by row from the node-major
        // keys. Writing each node's slots straight into the table would
        // scatter them over every row while the matrix reads evict the
        // table from cache: that measured slower than this pass.
        let max_degree = neighbors.iter().map(Vec::len).max().unwrap_or(0);
        let links = (0..max_degree)
            .flat_map(|slot| {
                let (neighbors, keys) = (&neighbors, &keys);
                (0..n).map(move |node| {
                    let peer = *neighbors[node].get(slot)?;
                    Some(Link {
                        peer,
                        key: keys[node][slot],
                    })
                })
            })
            .collect();

        let participants = (0..n)
            .map(|id| Participant::Plain(VivaldiNode::new(id, vivaldi, seed)))
            .collect();

        Self {
            security: SecurityConfig {
                alpha: config.alpha,
                ..SecurityConfig::paper_default()
            },
            config,
            vivaldi,
            network,
            latent,
            surveyors,
            malicious,
            neighbors,
            links,
            participants,
            registry: SurveyorRegistry::new(),
            traces: vec![TraceRing::with_capacity(TRACE_CAP); n],
            tick: 0,
            obs: SimObs::new(),
            rng,
            snapshot: CoordSnapshot::new(),
            up: Vec::new(),
            probe_chunks: Vec::new(),
            probe_failures: vec![std::collections::BTreeMap::new(); n],
            pending_arms: BTreeSet::new(),
            defense: DefenseConfig::off(),
            eclipse: EclipsePlan::none(),
            replacement_draws: 0,
            bank: DetectorBank::new(),
        }
    }

    /// Arm (or disarm) the VerLoc-style cross-verification defense.
    /// Takes effect from the next tick; the off config is the paper's
    /// system.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`DefenseConfig::validate`]).
    pub fn set_defense(&mut self, defense: DefenseConfig) {
        defense.validate();
        self.defense = defense;
    }

    /// Apply a registrar-poisoning plan: victims' current neighbor sets
    /// are re-steered toward attacker nodes immediately, and future
    /// replacement draws are steered with the plan's strength. Surveyor
    /// victims are ignored — their §3.3 isolation invariant (Surveyors
    /// embed only among themselves) outranks the poisoning model. The
    /// empty plan is a bit-identical no-op.
    pub fn set_eclipse(&mut self, plan: EclipsePlan) {
        for node in 0..self.len() {
            if self.surveyors.contains(&node) || !plan.is_victim(node) {
                continue;
            }
            let mut poisoned = self.neighbors[node].clone();
            plan.poison_neighbors(node, &mut poisoned);
            for (slot, peer) in poisoned.into_iter().enumerate() {
                if peer != self.neighbors[node][slot] {
                    self.set_neighbor(node, slot, peer);
                }
            }
        }
        self.eclipse = plan;
    }

    /// Attach a fault plan to the underlying network. The default plan
    /// is empty; see [`ices_netsim::FaultPlan`].
    ///
    /// # Panics
    /// Panics if the plan is invalid.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.network.set_fault_plan(plan);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Completed embedding ticks so far (adversaries that calibrate
    /// their behavior to elapsed time — e.g. slow drift — anchor on
    /// this).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Surveyor node ids.
    pub fn surveyors(&self) -> &BTreeSet<usize> {
        &self.surveyors
    }

    /// Malicious node ids.
    pub fn malicious(&self) -> &BTreeSet<usize> {
        &self.malicious
    }

    /// Honest non-Surveyor node ids (the paper's "normal nodes").
    pub fn normal_nodes(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|i| !self.surveyors.contains(i) && !self.malicious.contains(i))
            .collect()
    }

    /// A node's current neighbor set.
    pub fn neighbors_of(&self, node: usize) -> &[usize] {
        &self.neighbors[node]
    }

    /// Latent ground-truth positions.
    pub fn latent_positions(&self) -> &[(f64, f64)] {
        &self.latent
    }

    /// Per-node traces of measured relative errors collected so far.
    /// Each [`TraceRing`] derefs to a contiguous `&[f64]`, oldest first.
    pub fn traces(&self) -> &[TraceRing] {
        &self.traces
    }

    /// Clear collected traces (e.g. between calibration and validation
    /// phases).
    pub fn clear_traces(&mut self) {
        for t in &mut self.traces {
            t.clear();
        }
    }

    /// The Surveyor registry (filled by
    /// [`VivaldiSimulation::calibrate_surveyors`]).
    pub fn registry(&self) -> &SurveyorRegistry {
        &self.registry
    }

    /// Detection metrics accumulated during attack phases, derived
    /// from the observability registry (the counters are the primary
    /// record; this assembles the serialized report shape from them).
    pub fn report(&self) -> DetectionReport {
        self.obs.detection_report()
    }

    /// Attach a run journal: every subsequent tick emits a counter
    /// delta line, and discrete events (evictions, rejections, filter
    /// refreshes, deferred arms) are recorded as they happen. Journal
    /// emission reads the same registry the report is derived from, so
    /// simulation outputs are bit-identical with or without one.
    pub fn enable_journal(&mut self, journal: Journal) {
        let (nodes, seed) = (self.len(), self.config.seed);
        self.obs.enable_journal(journal, "vivaldi", nodes, seed);
    }

    /// Emit the journal's `summary` line and detach it, returning the
    /// accumulated bytes for in-memory journals (`None` for file
    /// journals, whose bytes are flushed to disk).
    pub fn finish_journal(&mut self) -> Option<Vec<u8>> {
        self.obs.finish_journal()
    }

    /// Whether `node` is currently wrapped in the detection protocol.
    pub fn is_secured(&self, node: usize) -> bool {
        matches!(self.participants[node], Participant::Secured(_))
    }

    /// Nodes whose detection arming is still deferred (Surveyor outage
    /// at arm time and no live candidate since).
    pub fn pending_arms(&self) -> &BTreeSet<usize> {
        &self.pending_arms
    }

    /// A node's current coordinate.
    pub fn coordinate(&self, node: usize) -> &Coordinate {
        self.participants[node].coordinate()
    }

    /// A node's current local error.
    pub fn local_error(&self, node: usize) -> f64 {
        self.participants[node].local_error()
    }

    /// Reset every node's positioning state (the §3.2 "forget and
    /// rejoin" protocol). Traces, calibration, and Surveyor filters are
    /// kept.
    pub fn forget_coordinates(&mut self) {
        for p in &mut self.participants {
            match p {
                Participant::Plain(n) => n.reset(),
                Participant::Secured(s) => s.inner_mut().reset(),
            }
        }
    }

    /// One embedding tick: every node with a peer in this neighbor
    /// `slot` probes it and steps its own embedding, all against the
    /// same immutable snapshot of the population.
    ///
    /// Phase 1 snapshots `(coordinate, local error)` per node; phase 2
    /// plans every node's probe from the slot's `links` row and
    /// measures the ones that get through, chunk by chunk
    /// ([`ProbeChunk`]); phase 3 fans the per-node work out over
    /// [`ices_par::par_map_mut`] (each node mutates only itself); phase
    /// 4 merges the returned [`StepEffect`]s in node order, applying
    /// trace appends, confusion counts and neighbor replacements. Probe
    /// nonces come from [`TickNonces`], so no phase depends on
    /// execution order and the tick is bit-for-bit reproducible at any
    /// worker count.
    fn tick(&mut self, slot: usize, adversary: &dyn Adversary, collect_traces: bool) {
        let tick = self.tick;
        self.tick += 1;
        self.obs.begin_tick(tick);
        // Nodes whose arming was deferred by a Surveyor outage retry
        // before the tick proper (no-op — and no RNG draw — unless a
        // deferral actually happened).
        self.retry_pending_arms();

        // SoA snapshot: flat buffers refilled in place — no per-node
        // allocation to photograph the population.
        {
            let snapshot = &mut self.snapshot;
            snapshot.fill(
                self.participants
                    .iter()
                    .map(|p| (p.coordinate(), p.local_error())),
            );
        }

        let network = &self.network;
        let nonces = TickNonces::new(tick);
        let snapshot = &self.snapshot;
        let faulty = !network.fault_plan().is_empty();
        if faulty {
            network.fill_up_mask(tick, &mut self.up);
        }
        let up = &self.up;
        let defense = self.defense;
        let population = self.participants.len();

        // Plan, then measure: each chunk settles its nodes' probe
        // outcomes from the up mask and the link-fault gate, then
        // measures every probe that gets through in one batched call.
        // Every outcome is a pure function of (tick, node), so the
        // chunking never shows in the results.
        let row = &self.links[slot * population..(slot + 1) * population];
        #[cfg(debug_assertions)]
        for (node, link) in row.iter().enumerate() {
            let expected = self.neighbors[node].get(slot).map(|&peer| Link {
                peer,
                key: network.probe_key(node, peer),
            });
            debug_assert_eq!(
                *link, expected,
                "probe plan of node {node} slot {slot} is stale"
            );
        }
        self.probe_chunks
            .resize_with(population.div_ceil(PROBE_CHUNK), ProbeChunk::default);
        ices_par::par_map_mut(&mut self.probe_chunks, |c, chunk| {
            let first = c * PROBE_CHUNK;
            let last = (first + PROBE_CHUNK).min(population);
            chunk.plan_and_measure(network, &row[first..last], first, faulty, up, &nonces);
        });

        let chunks = &self.probe_chunks;
        let effects = ices_par::par_map_mut(&mut self.participants, |node, participant| {
            let chunk = &chunks[node / PROBE_CHUNK];
            let mut effect = StepEffect::default();
            let (peer, rtt) = match chunk.plans[node % PROBE_CHUNK] {
                PlannedProbe::Idle => return effect,
                PlannedProbe::SelfDown => {
                    // Crashed for this epoch: the node does nothing and
                    // rejoins warm (coordinate intact) when the epoch turns.
                    effect.self_down = true;
                    return effect;
                }
                PlannedProbe::Failed { peer, fate } => {
                    effect.failed_probe = Some((peer, fate));
                    // Missing sample: a secured node's detector coasts
                    // (time-update only) so its innovation statistics
                    // widen honestly; the embedding is untouched either
                    // way. The coast itself runs in the merge-phase
                    // batched sweep.
                    if let Participant::Secured(_) = participant {
                        effect.pending = Some(PendingVet::Coast);
                        effect.coasted = true;
                    }
                    return effect;
                }
                PlannedProbe::Measured {
                    peer,
                    request,
                    retried,
                } => {
                    if faulty {
                        effect.retried = retried;
                        effect.probe_ok_peer = Some(peer);
                    }
                    (peer, chunk.rtts[request])
                }
            };
            // Materialize only the peer coordinate; the honest path then
            // *moves* it into the sample instead of cloning it again. The
            // victim's own coordinate is read live: a node mutates only
            // itself, and only after this point, so it still equals its
            // snapshot bit for bit.
            let peer_coord = snapshot.coordinate(peer);
            let peer_error = snapshot.error(peer);
            let tampered = adversary.intercept(
                peer,
                node,
                tick,
                &peer_coord,
                peer_error,
                rtt,
                participant.coordinate(),
            );
            let label_malicious = tampered.is_some();
            let sample = match tampered {
                Some(mut t) => {
                    effect.lied = true;
                    // Intake invariant: an attacker can delay its probe
                    // reply but cannot make light travel faster, so a
                    // tampered RTT below the measured one is clamped
                    // back up (and counted) before anything consumes it.
                    if t.clamp_rtt(rtt) {
                        effect.clamped_rtt = true;
                    }
                    debug_assert!(
                        t.rtt_ms >= rtt,
                        "intake clamp must enforce rtt_ms >= measured rtt"
                    );
                    PeerSample {
                        peer,
                        peer_coord: t.coord,
                        peer_error: t.error,
                        rtt_ms: t.rtt_ms,
                    }
                }
                None => PeerSample {
                    peer,
                    peer_coord,
                    peer_error,
                    rtt_ms: rtt,
                },
            };

            // Opt-in cross-verification (the defense knob): before the
            // innovation test sees the sample, the victim cross-probes
            // the claimed coordinate through seeded witnesses and
            // rejects outright on quorum geometric inconsistency.
            // Layered on the detection protocol, so only secured nodes
            // run it; witness draws and probe nonces are pure functions
            // of (tick, node, peer, witness), preserving thread-count
            // invariance.
            if defense.enabled {
                if let Participant::Secured(_) = participant {
                    let witnesses = defense.draw_witnesses(tick, node, peer, population);
                    let mut against = 0usize;
                    for &w in &witnesses {
                        effect.cross_checks += 1;
                        // Colluding witnesses corroborate a colluding
                        // peer's story unconditionally.
                        if label_malicious && adversary.is_malicious(w) {
                            continue;
                        }
                        let w_rtt = network.measure_rtt_smoothed(
                            w,
                            peer,
                            derive2(derive(streams::XPRB, w as u64), tick, node as u64),
                        );
                        if witness_votes_against(
                            &sample.peer_coord,
                            &snapshot.coordinate(w),
                            w_rtt,
                            defense.tolerance,
                        ) {
                            against += 1;
                        }
                    }
                    if against >= defense.quorum {
                        // The detector never sees the sample: coast the
                        // filter honestly (in the merge-phase batched
                        // sweep) and swap the peer out.
                        effect.pending = Some(PendingVet::Coast);
                        effect.vetted = Some((label_malicious, true));
                        effect.rejected_peer = Some(peer);
                        effect.defense_rejected = true;
                        return effect;
                    }
                }
            }

            match participant {
                Participant::Plain(v) => {
                    let out = v.apply_step(&sample);
                    effect.recorded = Some(out.relative_error);
                }
                Participant::Secured(_) => {
                    // Defer the innovation test (and the apply-on-accept)
                    // to the merge phase, where the whole tick's samples
                    // are classified in one DetectorBank sweep. Nothing
                    // after this point in the closure reads the node's
                    // post-step state, so the move is order-preserving.
                    effect.pending = Some(PendingVet::Test {
                        sample,
                        label_malicious,
                    });
                }
            }
            effect
        });

        // Batched detection sweep: replay every deferred detector event
        // through one DetectorBank pass, bit-identical to the scalar
        // per-node calls it replaces (asserted by
        // `ices_core::protocol`'s equivalence suite). Results are
        // written back into each node's StepEffect before the ordinary
        // merge loop below consumes them.
        let mut effects = effects;
        {
            let mut vet_nodes = Vec::new();
            let mut events = Vec::new();
            let mut labels = Vec::new();
            for (node, effect) in effects.iter_mut().enumerate() {
                if let Some(pending) = effect.pending.take() {
                    vet_nodes.push(node);
                    match pending {
                        PendingVet::Test {
                            sample,
                            label_malicious,
                        } => {
                            labels.push(label_malicious);
                            events.push(VetEvent::Sample(sample));
                        }
                        PendingVet::Coast => {
                            // Placeholder label; a Missing event yields
                            // no step, so it is never read.
                            labels.push(false);
                            events.push(VetEvent::Missing);
                        }
                    }
                }
            }
            if !vet_nodes.is_empty() {
                let mut secured: Vec<&mut SecureNode<VivaldiNode>> =
                    ices_par::select_disjoint_mut(&mut self.participants, &vet_nodes)
                        .into_iter()
                        .map(|p| match p {
                            Participant::Secured(s) => &mut **s,
                            Participant::Plain(_) => {
                                panic!("only secured nodes defer detector work")
                            }
                        })
                        .collect();
                vet_single(&mut self.bank, &mut secured, &events, |k, step| {
                    let effect = &mut effects[vet_nodes[k]];
                    effect.vetted = Some((labels[k], !step.accepted()));
                    match &step {
                        SecureStep::Accepted { outcome, .. } => {
                            effect.recorded = Some(outcome.relative_error);
                        }
                        SecureStep::Reprieved { .. } => {
                            effect.reprieved = true;
                        }
                        SecureStep::Rejected { .. } => {
                            if let VetEvent::Sample(sample) = &events[k] {
                                effect.rejected_peer = Some(sample.peer);
                            }
                        }
                    }
                });
            }
        }

        let journaled = self.obs.journal_enabled();
        for (node, effect) in effects.into_iter().enumerate() {
            if effect.vetted.is_some() || effect.recorded.is_some() {
                // A measurement arrived (vetted or plain) — the probe
                // completed, whatever the detector then decided.
                self.obs.probe_ok();
            }
            if let Some((label_malicious, flagged)) = effect.vetted {
                self.obs.record_confusion(label_malicious, flagged);
            }
            if effect.reprieved {
                self.obs.reprieve();
            }
            if let Some(d) = effect.recorded {
                if journaled {
                    self.obs.observe_relative_error(d);
                }
                if collect_traces {
                    self.traces[node].push(d);
                }
            }
            if effect.lied {
                self.obs.active_lies(1);
            }
            if effect.clamped_rtt {
                self.obs.clamped_rtts(1);
            }
            if effect.cross_checks > 0 {
                self.obs.cross_checks(effect.cross_checks);
            }
            if let Some(peer) = effect.rejected_peer {
                self.replace_neighbor(node, peer);
                self.obs.replacement(node, peer);
                if effect.defense_rejected {
                    self.obs.defense_rejection(node, peer);
                }
            }
            // Fault bookkeeping (all branches dead on a clean network).
            if effect.self_down {
                self.obs.node_down_tick();
            }
            if effect.retried {
                self.obs.retried_probes(1);
            }
            if effect.coasted {
                self.obs.coasted_steps(1);
            }
            if let Some(peer) = effect.probe_ok_peer {
                self.probe_failures[node].remove(&peer);
            }
            if let Some((peer, fate)) = effect.failed_probe {
                match fate {
                    ProbeFate::Lost => self.obs.lost_probe(),
                    ProbeFate::TimedOut => self.obs.timed_out_probe(),
                    ProbeFate::PeerDown => self.obs.peer_down_probe(),
                }
                let failures = self.probe_failures[node].entry(peer).or_insert(0);
                *failures += 1;
                if *failures >= DEAD_PEER_EVICT_FAILURES {
                    self.probe_failures[node].remove(&peer);
                    self.evict_dead_neighbor(node, peer);
                }
            }
        }
        // Slow-drift displacement gauge: a level, set only when the
        // adversary actually drifts so honest-run journals stay
        // byte-identical (unset gauges are NaN and never emitted).
        let drift = adversary.drift_accumulated_ms(tick);
        if drift > 0.0 {
            self.obs.set_drift_ms(drift);
        }
        if journaled {
            // Journal-only gauge: mean node-local embedding error. Only
            // computed when someone is listening.
            let n = self.participants.len().max(1) as f64;
            let sum: f64 = self.participants.iter().map(Participant::local_error).sum();
            self.obs.set_mean_local_error(sum / n);
        }
        self.obs.tick_boundary(tick);
    }

    /// Put `peer` in `node`'s neighbor `slot`, with its probe key
    /// beside it. Every neighbor change (replacement, dead-peer
    /// eviction, eclipse poisoning) goes through here.
    fn set_neighbor(&mut self, node: usize, slot: usize, peer: usize) {
        self.neighbors[node][slot] = peer;
        let key = self.network.probe_key(node, peer);
        let n = self.len();
        self.links[slot * n + node] = Some(Link { peer, key });
    }

    /// Put `new` in the slot `old` holds in `node`'s neighbor set.
    fn swap_neighbor(&mut self, node: usize, old: usize, new: usize) {
        if let Some(slot) = self.neighbors[node].iter().position(|&p| p == old) {
            self.set_neighbor(node, slot, new);
        }
    }

    /// Swap a rejected peer for a fresh random node (not self, not
    /// already a neighbor).
    fn replace_neighbor(&mut self, node: usize, rejected: usize) {
        let n = self.len();
        // Registrar poisoning: an eclipsed victim's replacement draw is
        // steered toward an attacker with the plan's strength. A
        // steered pick already in the set falls back to an honest draw
        // rather than duplicating a neighbor.
        if self.eclipse.is_victim(node) {
            self.replacement_draws += 1;
            if let Some(candidate) = self.eclipse.steer_replacement(node, self.replacement_draws) {
                if candidate != node && !self.neighbors[node].contains(&candidate) {
                    self.swap_neighbor(node, rejected, candidate);
                    return;
                }
            }
        }
        for _ in 0..32 {
            let candidate = self.rng.random_range(0..n);
            if candidate != node && !self.neighbors[node].contains(&candidate) {
                self.swap_neighbor(node, rejected, candidate);
                return;
            }
        }
        // Population exhausted (tiny tests): keep the peer.
    }

    /// Evict a neighbor that failed [`DEAD_PEER_EVICT_FAILURES`]
    /// consecutive probes. Surveyors (and surveyor-only scenarios) must
    /// draw the replacement from the Surveyor pool to preserve the §3.3
    /// isolation invariant; everyone else uses the ordinary
    /// random-replacement path.
    fn evict_dead_neighbor(&mut self, node: usize, dead: usize) {
        self.obs.eviction(node);
        if !self.surveyors.contains(&node) && !self.config.embed_against_surveyors_only {
            self.replace_neighbor(node, dead);
            return;
        }
        let pool: Vec<usize> = self
            .surveyors
            .iter()
            .copied()
            .filter(|&s| s != node && !self.neighbors[node].contains(&s))
            .collect();
        if pool.is_empty() {
            return; // No fresh Surveyor available: keep the dead peer.
        }
        let candidate = pool[self.rng.random_range(0..pool.len())];
        self.swap_neighbor(node, dead, candidate);
    }

    /// Run `passes` full embedding passes (each node visits every one of
    /// its neighbors once per pass) with the adversary in the path. Each
    /// neighbor slot is one two-phase [`tick`](Self::tick); the worker
    /// count comes from `ICES_THREADS` / [`ices_par::max_threads`] and
    /// never changes the result.
    pub fn run(&mut self, passes: usize, adversary: &dyn Adversary, collect_traces: bool) {
        let start = self.tick;
        for _pass in 0..passes {
            let max_degree = self.neighbors.iter().map(|v| v.len()).max().unwrap_or(0);
            for slot in 0..max_degree {
                self.tick(slot, adversary, collect_traces);
            }
            // Round boundary: the half-rejected refresh rule.
            self.end_pass();
        }
        self.obs.phase("run", self.tick - start);
    }

    /// Run clean (attack-free) passes, collecting traces.
    pub fn run_clean(&mut self, passes: usize) {
        self.run(passes, &ices_attack::HonestWorld, true);
    }

    fn end_pass(&mut self) {
        // Refresh registry coordinates so closest-Surveyor lookups stay
        // current.
        let updates: Vec<SurveyorInfo> = self
            .registry
            .all()
            .iter()
            .map(|s| SurveyorInfo {
                id: s.id,
                coordinate: self.participants[s.id].coordinate().clone(),
                params: s.params,
            })
            .collect();
        for info in updates {
            self.registry.register(info);
        }
        // Per-node round action. Refreshes only consider Surveyors that
        // are up right now; with every Surveyor down the node keeps its
        // stale-but-bounded calibration until one rejoins. (On a clean
        // network `node_up` is always true, so this is exactly the
        // unconditional closest-Surveyor lookup.)
        let tick = self.tick;
        let network = &self.network;
        for node in 0..self.len() {
            let coord = self.participants[node].coordinate().clone();
            if let Participant::Secured(s) = &mut self.participants[node] {
                if s.end_round() == ices_core::protocol::RoundAction::RefreshFilter {
                    match self
                        .registry
                        .closest_available_by_coordinate(&coord, |info| {
                            network.node_up(info.id, tick)
                        }) {
                        Some(info) => {
                            let params = info.params;
                            let id = info.id;
                            s.refresh_filter(params, id);
                            self.obs.filter_refresh(node);
                        }
                        None => {
                            self.obs.stale_filter_fallback(node);
                        }
                    }
                }
            }
        }
    }

    /// EM-calibrate every Surveyor on its collected trace and publish
    /// the results in the registry.
    ///
    /// # Panics
    /// Panics if a Surveyor has fewer than 10 trace samples (run more
    /// clean passes first).
    pub fn calibrate_surveyors(&mut self, em: &EmConfig) {
        let ids: Vec<usize> = self.surveyors.iter().copied().collect();
        for id in ids {
            let outcome = calibrate(&self.traces[id], StateSpaceParams::em_initial_guess(), em);
            self.registry.register(SurveyorInfo {
                id,
                coordinate: self.participants[id].coordinate().clone(),
                params: outcome.params,
            });
        }
        self.obs.phase("calibrate", 0);
    }

    /// EM-calibrate *every* node on its own trace (the §3.2 validation
    /// needs per-node filters). Returns outcomes indexed by node.
    pub fn calibrate_all(&self, em: &EmConfig) -> Vec<CalibrationOutcome> {
        self.traces
            .iter()
            .map(|t| calibrate(t, StateSpaceParams::em_initial_guess(), em))
            .collect()
    }

    /// Arm the detection protocol on every honest non-Surveyor node:
    /// each probes a handful (8) of random Surveyors, adopts the
    /// closest one's filter (§4.2 join), and is wrapped in a
    /// [`SecureNode`]. No-op when the scenario disables detection.
    ///
    /// # Panics
    /// Panics if the registry is empty (calibrate Surveyors first).
    pub fn arm_detection(&mut self) {
        if !self.config.detection {
            return;
        }
        assert!(
            !self.registry.is_empty(),
            "calibrate Surveyors before arming detection"
        );
        for node in self.normal_nodes() {
            if !self.try_arm_node(node) {
                // Total Surveyor outage at arm time: defer this node's
                // arming to the next tick rather than indexing an empty
                // candidate draw.
                self.pending_arms.insert(node);
                self.obs.defer_arm(node);
            }
        }
        self.obs.phase("arm", 0);
    }

    /// Retry every deferred arm. Nodes that secure now count as late
    /// arms; the rest stay pending, each failed retry counting as
    /// another deferral. No-op (and no RNG draw) when nothing is
    /// pending, so runs without deferrals are bit-identical to the
    /// pre-deferral behavior.
    fn retry_pending_arms(&mut self) {
        if self.pending_arms.is_empty() {
            return;
        }
        let pending: Vec<usize> = self.pending_arms.iter().copied().collect();
        for node in pending {
            if self.try_arm_node(node) {
                self.pending_arms.remove(&node);
                self.obs.late_arm(node);
            } else {
                self.obs.defer_arm(node);
            }
        }
    }

    /// Arm one node: sample Surveyor candidates, probe them, adopt the
    /// closest live one's filter (§4.2 join), and wrap the node in a
    /// [`SecureNode`]. Returns `false` — deferring the arm — when the
    /// candidate draw has no live Surveyor at all (total outage).
    fn try_arm_node(&mut self, node: usize) -> bool {
        let faulty = !self.network.fault_plan().is_empty();
        let tick = self.tick;
        let mut candidates = self.registry.sample(JOIN_PROBE_CANDIDATES, &mut self.rng);
        // Registrar poisoning: an eclipsed victim is shown only the
        // honest share of Surveyor referrals (never zero — total
        // starvation would stall the join rather than subvert it).
        candidates.truncate(self.eclipse.surveyor_referrals(node, candidates.len()));
        if faulty {
            // Crashed Surveyors drop out of the candidate race before
            // anything is probed; on a clean network every node is up,
            // so this retain is a no-op and candidate indices (and
            // their join nonces) are unchanged from seed behavior.
            candidates.retain(|s| self.network.node_up(s.id, tick));
        }
        if candidates.is_empty() {
            return false;
        }
        let mut best: Option<(usize, f64)> = None;
        for (k, s) in candidates.iter().enumerate() {
            // Join probes draw nonces from their own stream, keyed by
            // (node, candidate index) — disjoint from the embedding
            // ticks' step nonces.
            let nonce = derive2(streams::JOIN, node as u64, k as u64);
            if !faulty {
                let rtt = self.network.measure_rtt_smoothed(node, s.id, nonce);
                if best.map(|(_, d)| rtt < d).unwrap_or(true) {
                    best = Some((k, rtt));
                }
            } else {
                match self.network.try_measure_rtt_smoothed(node, s.id, nonce, tick) {
                    ProbeOutcome::Ok(rtt) => {
                        if best.map(|(_, d)| rtt < d).unwrap_or(true) {
                            best = Some((k, rtt));
                        }
                    }
                    ProbeOutcome::Lost | ProbeOutcome::TimedOut => {}
                }
            }
        }
        // Every probe lost (heavy loss against live Surveyors): fall
        // back to the first live candidate rather than refusing to arm
        // — a stale choice beats no detector. The guard above makes the
        // index safe: `candidates` is non-empty here by construction.
        let chosen = best
            .map(|(k, _)| &candidates[k])
            // audit:allow(PANIC02): non-empty guard above (see comment)
            .unwrap_or_else(|| &candidates[0]);
        let source = chosen.id;
        let params = chosen.params;
        let placeholder = Participant::Plain(VivaldiNode::new(node, self.vivaldi, 0));
        let old = std::mem::replace(&mut self.participants[node], placeholder);
        let inner = match old {
            Participant::Plain(v) => v,
            Participant::Secured(s) => panic!(
                "node {} already secured (filter source {})",
                node,
                s.filter_source()
            ),
        };
        let mut secured = SecureNode::new(inner, params, source, self.security);
        // Prime the filter with the node's recent clean history so a
        // converged node is not mistaken for a freshly joining one.
        let trace = &self.traces[node];
        let tail = &trace[trace.len().saturating_sub(PRIME_SAMPLES)..];
        secured.prime(tail);
        self.participants[node] = Participant::Secured(Box::new(secured));
        true
    }

    /// Rewrite every registered Surveyor's filter parameters through a
    /// caller-supplied transformation (ablation support: white-model β,
    /// random-walk β, stale parameters, …). Call between
    /// [`VivaldiSimulation::calibrate_surveyors`] and
    /// [`VivaldiSimulation::arm_detection`].
    pub fn transform_registry_params(
        &mut self,
        transform: &mut dyn FnMut(StateSpaceParams) -> StateSpaceParams,
    ) {
        let updated: Vec<SurveyorInfo> = self
            .registry
            .all()
            .iter()
            .map(|info| SurveyorInfo {
                id: info.id,
                coordinate: info.coordinate.clone(),
                params: transform(info.params),
            })
            .collect();
        for info in updated {
            self.registry.register(info);
        }
    }

    /// Rotate the registered parameters among Surveyors so every lookup
    /// returns an *unrelated* Surveyor's filter (the "random Surveyor"
    /// ablation arm). No-op with fewer than 2 Surveyors.
    pub fn shuffle_registry_params(&mut self) {
        let infos: Vec<SurveyorInfo> = self.registry.all().to_vec();
        if infos.len() < 2 {
            return;
        }
        let shift = infos.len() / 2;
        for (i, info) in infos.iter().enumerate() {
            let donor = &infos[(i + shift) % infos.len()];
            self.registry.register(SurveyorInfo {
                id: info.id,
                coordinate: info.coordinate.clone(),
                params: donor.params,
            });
        }
    }

    /// Enable or disable the first-time-peer reprieve (ablation switch).
    /// Takes effect for nodes armed afterwards.
    pub fn set_reprieve_enabled(&mut self, enabled: bool) {
        self.security.reprieve_enabled = enabled;
    }

    /// Measure system accuracy: relative errors of coordinate-estimated
    /// RTTs against base RTTs over up to `pairs_per_node` random honest
    /// partners per honest normal node.
    pub fn accuracy_report(&mut self, pairs_per_node: usize) -> AccuracyReport {
        let nodes = self.normal_nodes();
        let mut all = Vec::new();
        let mut p95 = Vec::new();
        for &node in &nodes {
            let mut errors = Vec::with_capacity(pairs_per_node);
            for _ in 0..pairs_per_node {
                let other = nodes[self.rng.random_range(0..nodes.len())];
                if other == node {
                    continue;
                }
                let est = self.participants[node]
                    .coordinate()
                    .distance(self.participants[other].coordinate());
                let truth = self.network.base_rtt(node, other);
                errors.push((est - truth).abs() / truth);
            }
            if errors.is_empty() {
                continue;
            }
            all.extend_from_slice(&errors);
            p95.push(ices_stats::ecdf::percentile(&errors, 95.0));
        }
        AccuracyReport {
            relative_errors: all,
            p95_per_node: p95,
        }
    }

    /// Per-node 95th-percentile report restricted to an arbitrary subset
    /// (used by the Fig 4 representativeness comparison).
    pub fn p95_for_subset(&mut self, subset: &[usize], pairs_per_node: usize) -> Vec<f64> {
        let nodes = self.normal_nodes();
        let mut p95 = Vec::with_capacity(subset.len());
        for &node in subset {
            let mut errors = Vec::with_capacity(pairs_per_node);
            for _ in 0..pairs_per_node {
                let other = nodes[self.rng.random_range(0..nodes.len())];
                if other == node {
                    continue;
                }
                let est = self.participants[node]
                    .coordinate()
                    .distance(self.participants[other].coordinate());
                let truth = self.network.base_rtt(node, other);
                errors.push((est - truth).abs() / truth);
            }
            if !errors.is_empty() {
                p95.push(ices_stats::ecdf::percentile(&errors, 95.0));
            }
        }
        p95
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_attack::VivaldiIsolationAttack;

    fn scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            topology: TopologyKind::small_king(50),
            surveyors: SurveyorPlacement::Random { fraction: 0.12 },
            malicious_fraction: 0.2,
            alpha: 0.05,
            detection: true,
            clean_cycles: 6,
            attack_cycles: 3,
            embed_against_surveyors_only: false,
        }
    }

    #[test]
    fn construction_partitions_population() {
        let sim = VivaldiSimulation::new(scenario(1));
        assert_eq!(sim.len(), 50);
        assert_eq!(sim.surveyors().len(), 6); // 12% of 50
        assert_eq!(sim.malicious().len(), 10); // 20% of 50
                                               // Disjoint partitions.
        for m in sim.malicious() {
            assert!(!sim.surveyors().contains(m));
        }
        assert_eq!(
            sim.normal_nodes().len(),
            50 - sim.surveyors().len() - sim.malicious().len()
        );
    }

    #[test]
    fn surveyors_only_neighbor_each_other() {
        let sim = VivaldiSimulation::new(scenario(2));
        for &s in sim.surveyors() {
            for &p in &sim.neighbors[s] {
                assert!(
                    sim.surveyors().contains(&p),
                    "surveyor {s} has non-surveyor neighbor {p}"
                );
            }
        }
    }

    #[test]
    fn clean_run_converges() {
        let mut sim = VivaldiSimulation::new(scenario(3));
        sim.run_clean(8);
        let report = sim.accuracy_report(20);
        assert!(
            report.median() < 0.25,
            "median accuracy after clean run: {}",
            report.median()
        );
        // Local errors should have dropped well below 1.
        let mean_el: f64 = sim
            .normal_nodes()
            .iter()
            .map(|&n| sim.local_error(n))
            .sum::<f64>()
            / sim.normal_nodes().len() as f64;
        assert!(mean_el < 0.35, "mean local error {mean_el}");
    }

    #[test]
    fn traces_are_collected_per_node() {
        let mut sim = VivaldiSimulation::new(scenario(4));
        sim.run_clean(2);
        for node in 0..sim.len() {
            let expected = sim.neighbors[node].len() * 2;
            assert_eq!(sim.traces()[node].len(), expected, "node {node}");
        }
        sim.clear_traces();
        assert!(sim.traces().iter().all(|t| t.is_empty()));
    }

    #[test]
    fn calibration_fills_registry() {
        let mut sim = VivaldiSimulation::new(scenario(5));
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        assert_eq!(sim.registry().len(), sim.surveyors().len());
        for info in sim.registry().all() {
            info.params.validate();
        }
    }

    #[test]
    fn arm_detection_secures_normal_nodes_only() {
        let mut sim = VivaldiSimulation::new(scenario(6));
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        for node in 0..sim.len() {
            let secured = matches!(sim.participants[node], Participant::Secured(_));
            let should = !sim.surveyors().contains(&node) && !sim.malicious().contains(&node);
            assert_eq!(secured, should, "node {node}");
        }
    }

    #[test]
    fn attack_with_detection_yields_confusion_counts() {
        let mut sim = VivaldiSimulation::new(scenario(7));
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let target = sim.normal_nodes()[0];
        let attack = VivaldiIsolationAttack::new(
            sim.malicious().iter().copied(),
            sim.coordinate(target).clone(),
            100.0,
            7,
        );
        sim.run(3, &attack, false);
        let c = &sim.report().confusion;
        assert!(c.positives() > 0, "attack steps should have been observed");
        assert!(c.negatives() > 0);
        assert!(
            c.tpr() > 0.5,
            "the blatant isolation attack should mostly be caught, tpr = {}",
            c.tpr()
        );
    }

    #[test]
    fn detection_off_scenario_keeps_everyone_plain() {
        let mut cfg = scenario(8);
        cfg.detection = false;
        let mut sim = VivaldiSimulation::new(cfg);
        sim.run_clean(3);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection(); // no-op
        assert!(sim
            .participants
            .iter()
            .all(|p| matches!(p, Participant::Plain(_))));
    }

    #[test]
    fn forget_coordinates_resets_positions() {
        let mut sim = VivaldiSimulation::new(scenario(9));
        sim.run_clean(3);
        let moved = ices_coord::vector::norm(sim.coordinate(0).position());
        assert!(moved > 0.0);
        sim.forget_coordinates();
        // Back to the bootstrap state: origin position, initial height.
        assert_eq!(sim.coordinate(0).position(), &[0.0, 0.0]);
        assert_eq!(
            sim.coordinate(0).magnitude(),
            ices_vivaldi::VivaldiConfig::paper_default().initial_height_ms
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = VivaldiSimulation::new(scenario(10));
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = || {
            let mut sim = VivaldiSimulation::new(scenario(12));
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        let explicit_empty = || {
            let mut sim = VivaldiSimulation::new(scenario(12));
            sim.set_fault_plan(FaultPlan::none());
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        assert_eq!(clean(), explicit_empty());
    }

    #[test]
    fn lossy_network_still_converges_and_counts_faults() {
        let mut sim = VivaldiSimulation::new(scenario(13));
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        sim.run_clean(8);
        let faults = &sim.report().faults;
        assert!(faults.retried_probes > 0, "retries should fire at 15% failure");
        assert!(
            faults.lost_probes + faults.timed_out_probes > 0,
            "some probes should fail terminally"
        );
        let report = sim.accuracy_report(20);
        assert!(
            report.median() < 0.3,
            "embedding should still converge under 15% probe failure, median {}",
            report.median()
        );
    }

    #[test]
    fn churn_crashes_nodes_and_coasts_detectors() {
        use ices_netsim::ChurnModel;
        let mut sim = VivaldiSimulation::new(scenario(14));
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        sim.set_fault_plan(
            FaultPlan::lossy(0.15, 0.05).with_churn(ChurnModel::new(16, 0.2)),
        );
        sim.run(3, &ices_attack::HonestWorld, false);
        let faults = &sim.report().faults;
        assert!(faults.node_down_ticks > 0, "churn should crash some nodes");
        assert!(faults.peer_down_probes > 0, "probes should hit crashed peers");
        assert!(
            faults.coasted_steps > 0,
            "secured nodes should coast over missing samples"
        );
    }

    #[test]
    fn dead_peers_are_evicted() {
        use ices_netsim::ChurnModel;
        // Small neighbor sets so the 50-node population leaves room for
        // replacements (the paper's 64-neighbor default saturates it).
        let vivaldi = VivaldiConfig {
            neighbors: 8,
            close_neighbors: 4,
            ..VivaldiConfig::paper_default()
        };
        let mut sim = VivaldiSimulation::with_vivaldi_config(scenario(15), vivaldi);
        // A node that is (almost) always down: every probe toward it
        // fails, so its neighbors evict it after the failure limit.
        let victim = sim.normal_nodes()[0];
        sim.set_fault_plan(
            FaultPlan::none().with_node_churn(victim, ChurnModel::new(u64::MAX, 0.999_999)),
        );
        sim.run_clean(6);
        let faults = &sim.report().faults;
        assert!(
            faults.evictions > 0,
            "a permanently dead node should get evicted by its neighbors"
        );
        assert!(
            !sim.normal_nodes()
                .iter()
                .filter(|&&n| n != victim)
                .any(|&n| sim.neighbors_of(n).contains(&victim)),
            "no live node should still neighbor the dead one after eviction"
        );
    }

    /// Every entry of the slot-major probe plan is the neighbor in its
    /// slot with a freshly derived probe key (base RTT included); slots
    /// past a node's degree are empty; there is one row per slot of the
    /// largest neighbor set.
    fn assert_links_in_step(sim: &VivaldiSimulation, when: &str) {
        let n = sim.len();
        let max_degree = sim.neighbors.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(sim.links.len(), max_degree * n, "{when}: one row per slot");
        for node in 0..n {
            for slot in 0..max_degree {
                let expected = sim.neighbors[node].get(slot).map(|&peer| Link {
                    peer,
                    key: sim.network.probe_key(node, peer),
                });
                assert_eq!(
                    sim.links[slot * n + node],
                    expected,
                    "{when}: node {node} slot {slot}"
                );
            }
        }
    }

    /// The slot-major probe plan must equal a fresh derivation after
    /// every kind of neighbor change — eclipse poisoning, rejection
    /// replacements and dead-peer evictions — and after a fault plan is
    /// attached or detached.
    #[test]
    fn neighbor_base_rtts_track_every_neighbor_change() {
        use ices_netsim::ChurnModel;
        let vivaldi = VivaldiConfig {
            neighbors: 8,
            close_neighbors: 4,
            ..VivaldiConfig::paper_default()
        };
        let mut sim = VivaldiSimulation::with_vivaldi_config(scenario(16), vivaldi);
        let assert_in_step = |sim: &VivaldiSimulation, when: &str| {
            assert_links_in_step(sim, when);
        };
        assert_in_step(&sim, "after construction");
        let before: Vec<Vec<usize>> = sim.neighbors.clone();
        let victims: Vec<usize> = sim.normal_nodes().into_iter().take(10).collect();
        let attackers: Vec<usize> = sim.malicious().iter().copied().collect();
        sim.set_eclipse(EclipsePlan::new(victims, attackers, 0.5, 16));
        assert_ne!(before, sim.neighbors, "poisoning should rewrite slots");
        assert_in_step(&sim, "after poisoning");
        let dead = sim.normal_nodes()[12];
        sim.set_fault_plan(
            FaultPlan::lossy(0.1, 0.05)
                .with_churn(ChurnModel::new(8, 0.1))
                .with_node_churn(dead, ChurnModel::permanent_outage()),
        );
        assert_in_step(&sim, "after attaching the fault plan");
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let target = sim.normal_nodes()[0];
        let attack = VivaldiIsolationAttack::new(
            sim.malicious().iter().copied(),
            sim.coordinate(target).clone(),
            100.0,
            16,
        );
        sim.run(3, &attack, false);
        let report = sim.report();
        assert!(report.faults.evictions > 0, "dead peers should be evicted");
        assert!(report.replacements > 0, "rejected peers should be replaced");
        assert_in_step(&sim, "after the attack");
        sim.set_fault_plan(FaultPlan::none());
        assert_in_step(&sim, "after detaching the fault plan");
        sim.run(1, &attack, false);
        assert_in_step(&sim, "after a clean-network pass");
    }

    /// A simulation whose plan is attached right after `new`, before
    /// any tick, probes exactly like one whose keys were derived under
    /// that plan: the keys never encode the plan.
    #[test]
    fn fault_plan_attached_after_new_leaves_keys_valid() {
        let mut sim = VivaldiSimulation::new(scenario(17));
        let links = sim.links.clone();
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        assert_eq!(links, sim.links);
        assert_links_in_step(&sim, "after attaching the fault plan");
        sim.run_clean(2);
        assert!(
            sim.report().faults.retried_probes > 0,
            "the plan must be live"
        );
    }

    /// The per-tick nonce streams reproduce the full per-probe
    /// derivation: `derive2(STEP, tick, node)` for the first attempt,
    /// `derive2(derive(RTRY, attempt), tick, node)` for retries.
    #[test]
    fn tick_nonces_match_the_per_probe_derivation() {
        let step_nonce = |tick: u64, node: usize| derive2(streams::STEP, tick, node as u64);
        let retry_nonce = |tick: u64, node: usize, attempt: u32| {
            derive2(derive(streams::RTRY, attempt as u64), tick, node as u64)
        };
        for tick in [0, 1, 2, 63, 64, 1_000_003, u64::MAX] {
            let nonces = TickNonces::new(tick);
            for node in [0, 1, 17, 1739, 50_000, usize::MAX] {
                assert_eq!(nonces.nonce(node, 0), step_nonce(tick, node));
                for attempt in 1..=PROBE_RETRIES {
                    assert_eq!(
                        nonces.nonce(node, attempt),
                        retry_nonce(tick, node, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn full_surveyor_outage_falls_back_to_stale_filters() {
        use ices_netsim::ChurnModel;
        let mut sim = VivaldiSimulation::new(scenario(16));
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        // Crash every Surveyor forever and make the network lossy enough
        // (~97% terminal failure per tick even after retries) that
        // detectors starve and ask for refreshes.
        let mut plan = FaultPlan::lossy(0.7, 0.29);
        let surveyor_ids: Vec<usize> = sim.surveyors().iter().copied().collect();
        for id in surveyor_ids {
            plan = plan.with_node_churn(id, ChurnModel::new(u64::MAX, 0.999_999));
        }
        sim.set_fault_plan(plan);
        sim.run(8, &ices_attack::HonestWorld, false);
        assert!(
            sim.report().faults.coasted_steps > 0,
            "nearly every secured step should coast under this plan"
        );
        assert!(
            sim.report().faults.stale_filter_fallbacks > 0,
            "with all Surveyors down, refresh requests must fall back to stale filters"
        );
    }

    #[test]
    fn kmeans_placement_produces_surveyors() {
        let mut cfg = scenario(11);
        cfg.surveyors = SurveyorPlacement::KMeansHeads { fraction: 0.1 };
        let sim = VivaldiSimulation::new(cfg);
        assert_eq!(sim.surveyors().len(), 5);
    }
}
