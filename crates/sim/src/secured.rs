//! The secured population both simulations share.
//!
//! The paper's detector watches only the relative error a step would
//! see, so one implementation secures any embedding system (§4).
//! [`SecuredSim<B>`] is that shared part: the population of plain and
//! secured participants, the Surveyor registry, the per-node traces,
//! the fault bookkeeping, the join-and-arm pipeline, the round-boundary
//! filter refresh, the accuracy report and the metrics. A backend `B`
//! keeps only its own policy: how it builds and repairs peer sets, and
//! its probe schedule — Vivaldi's slot-major ticks
//! ([`crate::vivaldi_driver`]) and NPS's layered rounds
//! ([`crate::nps_driver`]). The schedules have different shapes —
//! Vivaldi takes one probe per node per tick, NPS probes every
//! reference point of every node, layer by layer — so each backend
//! writes its own tick out and calls the small shared steps below.

use crate::metrics::{AccuracyReport, DetectionReport};
use crate::obs::SimObs;
use crate::scenario::ScenarioConfig;
use crate::snapshot::CoordSnapshot;
use crate::trace::TraceRing;
use ices_attack::Adversary;
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::protocol::RoundAction;
use ices_core::{
    calibrate, CalibrationOutcome, DetectorBank, EmConfig, SecureNode, SecurityConfig,
    StateSpaceParams, SurveyorInfo, SurveyorRegistry,
};
use ices_netsim::{FaultPlan, Network, ProbeKey, ProbeOutcome};
use ices_obs::Journal;
use ices_stats::rng::{derive2, SimRng};
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

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
pub(crate) const PROBE_RETRIES: u32 = 2;

/// Consecutive failed ticks toward one peer (neighbor or reference
/// point) before the node gives up and evicts it as dead.
pub const DEAD_PEER_EVICT_FAILURES: u32 = 3;

/// What the shared code needs from an embedding backend.
pub trait Backend {
    /// The embedding node a participant wraps.
    type Node: Embedding + Send;
    /// Nonce stream of the join probes, disjoint from the backend's
    /// own probe streams.
    const JOIN_STREAM: u64;
    /// The driver name on a run journal's `meta` line.
    const JOURNAL_NAME: &'static str;

    /// How many of `offered` Surveyor referrals joining `node` is shown
    /// (registrar poisoning lowers it; nothing else does).
    fn surveyor_referrals(&self, _node: usize, offered: usize) -> usize {
        offered
    }

    /// A fresh node that holds `node`'s place while its own node is
    /// moved into a [`SecureNode`].
    fn placeholder(&self, node: usize) -> Self::Node;

    /// Reset a node's positioning state (§3.2's forget and rejoin).
    fn reset(node: &mut Self::Node);
}

/// One node of the population.
#[allow(clippy::large_enum_variant)] // Plain is the common case; boxing it would cost an alloc per node
pub(crate) enum Participant<E> {
    /// No detection in front of the embedding (Surveyors, malicious
    /// nodes, and every node in detection-off baselines).
    Plain(E),
    /// Vetted by the detection protocol.
    Secured(Box<SecureNode<E>>),
}

impl<E: Embedding> Participant<E> {
    pub(crate) fn coordinate(&self) -> &Coordinate {
        match self {
            Participant::Plain(n) => n.coordinate(),
            Participant::Secured(s) => s.inner().coordinate(),
        }
    }

    pub(crate) fn local_error(&self) -> f64 {
        match self {
            Participant::Plain(n) => n.local_error(),
            Participant::Secured(s) => s.inner().local_error(),
        }
    }

    /// The embedding node, secured or not.
    pub(crate) fn embedding_mut(&mut self) -> &mut E {
        match self {
            Participant::Plain(n) => n,
            Participant::Secured(s) => s.inner_mut(),
        }
    }
}

/// Why a probe produced no measurement (terminal, after retries).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeFate {
    Lost,
    TimedOut,
    PeerDown,
}

/// A measured probe as the probing node receives it, after the
/// adversary had its say.
pub(crate) struct Intake {
    pub(crate) sample: PeerSample,
    /// The adversary tampered with the sample (the ground-truth label).
    pub(crate) lied: bool,
    /// The intake clamp raised the tampered sample's deflated RTT.
    pub(crate) clamped: bool,
}

/// Hand `node`'s measurement `rtt` of `peer` to the adversary and build
/// the sample the node sees. The peer's coordinate and error come from
/// the tick's snapshot; the probing node's own coordinate is read live
/// (a node mutates only itself, and only after its intake). Intake
/// invariant: an attacker can delay its probe reply but cannot make
/// light travel faster, so a tampered RTT below the measured one is
/// clamped back up (and counted) before anything consumes it.
#[inline]
pub(crate) fn intake<E: Embedding>(
    adversary: &dyn Adversary,
    snapshot: &CoordSnapshot,
    tick: u64,
    node: usize,
    participant: &Participant<E>,
    peer: usize,
    rtt: f64,
) -> Intake {
    // Materialize only the peer coordinate; the honest path then
    // *moves* it into the sample instead of cloning it again.
    let peer_coord = snapshot.coordinate(peer);
    let peer_error = snapshot.error(peer);
    let node_coord = participant.coordinate();
    match adversary.intercept(peer, node, tick, &peer_coord, peer_error, rtt, node_coord) {
        Some(mut t) => {
            let clamped = t.clamp_rtt(rtt);
            debug_assert!(
                t.rtt_ms >= rtt,
                "intake clamp must enforce rtt_ms >= measured rtt"
            );
            Intake {
                sample: PeerSample {
                    peer,
                    peer_coord: t.coord,
                    peer_error: t.error,
                    rtt_ms: t.rtt_ms,
                },
                lied: true,
                clamped,
            }
        }
        None => Intake {
            sample: PeerSample {
                peer,
                peer_coord,
                peer_error,
                rtt_ms: rtt,
            },
            lied: false,
            clamped: false,
        },
    }
}

/// The first attempt of a probe of `peer` over the link keyed `key`
/// that gets through a faulty network, or the terminal fate when none
/// does; `nonce(attempt)` is an attempt's nonce. Both endpoints up,
/// only the link-fault gate decides each attempt. Bounded deterministic
/// backoff: immediate re-probes under fresh retry-stream nonces, capped
/// per tick.
#[inline]
pub(crate) fn first_attempt(
    network: &Network,
    key: &ProbeKey,
    peer: usize,
    up: &[bool],
    nonce: impl Fn(u32) -> u64,
) -> Result<u32, ProbeFate> {
    if !up[peer] {
        return Err(ProbeFate::PeerDown);
    }
    let mut fate = ProbeFate::Lost;
    for attempt in 0..=PROBE_RETRIES {
        match network.link_fate(key, nonce(attempt)) {
            None => return Ok(attempt),
            Some(ProbeOutcome::TimedOut) => fate = ProbeFate::TimedOut,
            // The gate yields only `Lost` and `TimedOut`.
            Some(_) => fate = ProbeFate::Lost,
        }
    }
    Err(fate)
}

/// The secured nodes at `nodes` (ascending ids), ready for a vet sweep.
///
/// # Panics
/// Panics if one of them is plain: only secured nodes defer detector
/// work.
pub(crate) fn secured_mut<'a, E>(
    participants: &'a mut [Participant<E>],
    nodes: &[usize],
) -> Vec<&'a mut SecureNode<E>> {
    ices_par::select_disjoint_mut(participants, nodes)
        .into_iter()
        .map(|p| match p {
            Participant::Secured(s) => &mut **s,
            Participant::Plain(_) => panic!("only secured nodes defer detector work"),
        })
        .collect()
}

/// A node's fault and adversary counts from one tick, collected in the
/// parallel phase and added to the metrics in node order.
#[derive(Default, PartialEq)]
pub(crate) struct Tally {
    /// The node was crashed for this tick (churn) and did nothing.
    pub(crate) down: bool,
    /// Probes that completed only after at least one retry.
    pub(crate) retried: u32,
    /// Missing samples a secured node absorbed as detector coasts.
    pub(crate) coasted: u32,
    /// Steps that hit the first-time-peer reprieve.
    pub(crate) reprieves: u32,
    /// Tampered samples the adversary injected (ground truth, counted
    /// before any vetting).
    pub(crate) lies: u32,
    /// Tampered samples whose deflated RTT the intake clamp raised.
    pub(crate) clamped: u32,
}

/// How a secured node's round boundary ended.
#[derive(Clone, Copy, Default)]
pub(crate) enum RoundEnd {
    /// The filter carries on.
    #[default]
    Kept,
    /// The node adopted the closest live Surveyor's filter.
    Refreshed,
    /// The node wanted a fresh filter but every Surveyor was down; it
    /// keeps its stale-but-bounded calibration.
    Stale,
}

/// Settle `secured`'s detector round at tick `now`. When the protocol
/// asks for a fresh filter, only Surveyors that are up right now
/// qualify. (On a clean network `node_up` is always true, so this is
/// exactly the unconditional closest-Surveyor lookup.)
pub(crate) fn end_round<E: Embedding>(
    secured: &mut SecureNode<E>,
    registry: &SurveyorRegistry,
    network: &Network,
    now: u64,
) -> RoundEnd {
    if secured.end_round() != RoundAction::RefreshFilter {
        return RoundEnd::Kept;
    }
    let closest = registry
        .closest_available_by_coordinate(secured.inner().coordinate(), |info| {
            network.node_up(info.id, now)
        })
        .map(|info| (info.params, info.id));
    match closest {
        Some((params, id)) => match secured.refresh_filter(params, id) {
            Ok(()) => RoundEnd::Refreshed,
            // Registered parameters come from EM calibration (or an
            // ablation's transform of it); arming fails the same way.
            Err(e) => panic!("Surveyor {id} published invalid filter parameters: {e}"),
        },
        None => RoundEnd::Stale,
    }
}

/// A secured simulation over embedding backend `B`: the population,
/// its Surveyors and detectors, and everything measured about them.
/// [`crate::VivaldiSimulation`] and [`crate::NpsSimulation`] are its
/// two instances.
pub struct SecuredSim<B: Backend> {
    pub(crate) config: ScenarioConfig,
    pub(crate) security: SecurityConfig,
    pub(crate) network: Network,
    pub(crate) surveyors: BTreeSet<usize>,
    pub(crate) malicious: BTreeSet<usize>,
    pub(crate) participants: Vec<Participant<B::Node>>,
    pub(crate) registry: SurveyorRegistry,
    pub(crate) traces: Vec<TraceRing>,
    /// Count of completed ticks (a Vivaldi neighbor slot, an NPS
    /// positioning round); each tick's probe nonces derive from it,
    /// independent of execution order.
    pub(crate) tick: u64,
    /// Metrics registry + optional run journal; the single source of
    /// truth the [`DetectionReport`] is derived from.
    pub(crate) obs: SimObs,
    pub(crate) rng: SimRng,
    /// Reusable SoA snapshot buffer for a tick's phase 1 — flat arrays
    /// refilled in place, so steady-state ticks allocate nothing to
    /// photograph the population.
    pub(crate) snapshot: CoordSnapshot,
    /// Per-node liveness at the current tick (fault mode only), filled
    /// once per tick in place of per-probe churn draws.
    pub(crate) up: Vec<bool>,
    /// Per-node consecutive probe-failure counts toward each peer
    /// (fault mode only; empty maps on a clean network).
    probe_failures: Vec<BTreeMap<usize, u32>>,
    /// Nodes whose arming found no live Surveyor candidate (total
    /// outage); retried each tick.
    pending_arms: BTreeSet<usize>,
    /// Reusable SoA execution engine for the merge-phase detection
    /// sweep. Transient per sweep: state is gathered from and scattered
    /// back to each node's scalar [`ices_core::Detector`], which stays
    /// the source of truth.
    pub(crate) bank: DetectorBank,
    /// The backend's own state: peer sets and probe-schedule buffers.
    pub(crate) backend: B,
}

impl<B: Backend> SecuredSim<B> {
    /// A population of plain `nodes` (one per node id of `network`)
    /// with no Surveyor calibrated yet.
    ///
    /// # Panics
    /// Panics if the scenario's security configuration is invalid; it
    /// is checked here once, not on every arm.
    pub(crate) fn assemble(
        config: ScenarioConfig,
        network: Network,
        surveyors: BTreeSet<usize>,
        malicious: BTreeSet<usize>,
        rng: SimRng,
        nodes: Vec<B::Node>,
        backend: B,
    ) -> Self {
        let security = SecurityConfig {
            alpha: config.alpha,
            ..SecurityConfig::paper_default()
        };
        if let Err(e) = security.validate() {
            panic!("invalid security configuration: {e}");
        }
        let n = nodes.len();
        Self {
            config,
            security,
            network,
            surveyors,
            malicious,
            participants: nodes.into_iter().map(Participant::Plain).collect(),
            registry: SurveyorRegistry::new(),
            traces: vec![TraceRing::with_capacity(TRACE_CAP); n],
            tick: 0,
            obs: SimObs::new(),
            rng,
            snapshot: CoordSnapshot::new(),
            up: Vec::new(),
            probe_failures: vec![BTreeMap::new(); n],
            pending_arms: BTreeSet::new(),
            bank: DetectorBank::new(),
            backend,
        }
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

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Completed ticks so far: Vivaldi neighbor slots, NPS positioning
    /// rounds (adversaries that calibrate their behavior to elapsed
    /// time — e.g. slow drift — anchor on this).
    pub fn ticks(&self) -> u64 {
        self.tick
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
    /// [`SecuredSim::calibrate_surveyors`]).
    pub fn registry(&self) -> &SurveyorRegistry {
        &self.registry
    }

    /// Detection metrics accumulated so far, derived from the
    /// observability registry (the counters are the primary record;
    /// this assembles the serialized report shape from them).
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
        self.obs
            .enable_journal(journal, B::JOURNAL_NAME, nodes, seed);
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
            B::reset(p.embedding_mut());
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
        candidates.truncate(self.backend.surveyor_referrals(node, candidates.len()));
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
        let network = &self.network;
        let mut best: Option<(usize, f64)> = None;
        for (k, s) in candidates.iter().enumerate() {
            // Join probes draw nonces from their own stream, keyed by
            // (node, candidate index) — disjoint from the ticks' probe
            // nonces.
            let nonce = derive2(B::JOIN_STREAM, node as u64, k as u64);
            let rtt = if !faulty {
                network.measure_rtt_smoothed(node, s.id, nonce)
            } else {
                match network.try_measure_rtt_smoothed(node, s.id, nonce, tick) {
                    ProbeOutcome::Ok(rtt) => rtt,
                    ProbeOutcome::Lost | ProbeOutcome::TimedOut => continue,
                }
            };
            if best.map(|(_, d)| rtt < d).unwrap_or(true) {
                best = Some((k, rtt));
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
        let (source, params) = (chosen.id, chosen.params);
        let placeholder = Participant::Plain(self.backend.placeholder(node));
        let inner = match std::mem::replace(&mut self.participants[node], placeholder) {
            Participant::Plain(inner) => inner,
            Participant::Secured(s) => panic!(
                "node {} already secured (filter source {})",
                node,
                s.filter_source()
            ),
        };
        let mut secured = match SecureNode::new(inner, params, source, self.security) {
            Ok(secured) => secured,
            // The security config is checked at construction; the
            // parameters come from EM calibration.
            Err(e) => panic!("node {node} cannot be armed: {e}"),
        };
        // Prime the filter with the node's recent clean history so a
        // converged node is not mistaken for a freshly joining one.
        let trace = &self.traces[node];
        secured.prime(&trace[trace.len().saturating_sub(PRIME_SAMPLES)..]);
        self.participants[node] = Participant::Secured(Box::new(secured));
        true
    }

    /// Rewrite every registered Surveyor's filter parameters through a
    /// caller-supplied transformation (ablation support: white-model β,
    /// random-walk β, stale parameters, …). Call between
    /// [`SecuredSim::calibrate_surveyors`] and
    /// [`SecuredSim::arm_detection`].
    pub fn transform_registry_params(
        &mut self,
        transform: &mut dyn FnMut(StateSpaceParams) -> StateSpaceParams,
    ) {
        self.registry
            .update_each(|_, info| info.params = transform(info.params));
    }

    /// Rotate the registered parameters among Surveyors so every lookup
    /// returns an *unrelated* Surveyor's filter (the "random Surveyor"
    /// ablation arm). No-op with fewer than 2 Surveyors.
    pub fn shuffle_registry_params(&mut self) {
        let params: Vec<StateSpaceParams> = self.registry.all().iter().map(|s| s.params).collect();
        if params.len() < 2 {
            return;
        }
        let shift = params.len() / 2;
        self.registry
            .update_each(|i, info| info.params = params[(i + shift) % params.len()]);
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
            let errors = self.pair_errors(node, &nodes, pairs_per_node);
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
            let errors = self.pair_errors(node, &nodes, pairs_per_node);
            if !errors.is_empty() {
                p95.push(ices_stats::ecdf::percentile(&errors, 95.0));
            }
        }
        p95
    }

    /// Relative errors of `node`'s estimated RTT to `pairs` random
    /// partners drawn from `nodes` (draws of `node` itself are skipped).
    fn pair_errors(&mut self, node: usize, nodes: &[usize], pairs: usize) -> Vec<f64> {
        let mut errors = Vec::with_capacity(pairs);
        for _ in 0..pairs {
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
        errors
    }

    /// Open the next tick: advance the counter, retry deferred arms
    /// (no-op — and no RNG draw — unless a deferral actually happened)
    /// and, on a faulty network, fill the tick's liveness mask. Returns
    /// the tick's index.
    pub(crate) fn open_tick(&mut self) -> u64 {
        let tick = self.tick;
        self.tick += 1;
        self.obs.begin_tick(tick);
        self.retry_pending_arms();
        if !self.network.fault_plan().is_empty() {
            self.network.fill_up_mask(tick, &mut self.up);
        }
        tick
    }

    /// Photograph every node's `(coordinate, local error)` into the
    /// reusable snapshot.
    pub(crate) fn take_snapshot(&mut self) {
        self.snapshot.fill(
            self.participants
                .iter()
                .map(|p| (p.coordinate(), p.local_error())),
        );
    }

    /// Feed a measured relative error of `node` to the journal's
    /// histogram and, when `collect` is set, to the node's trace.
    #[inline]
    pub(crate) fn record(&mut self, node: usize, d: f64, collect: bool) {
        if self.obs.journal_enabled() {
            self.obs.observe_relative_error(d);
        }
        if collect {
            self.traces[node].push(d);
        }
    }

    /// A probe of `node` toward `peer` completed: its failure run ends.
    #[inline]
    pub(crate) fn probe_succeeded(&mut self, node: usize, peer: usize) {
        self.probe_failures[node].remove(&peer);
    }

    /// Count a probe of `node` toward `peer` that failed after every
    /// retry. Returns whether `peer` has now failed
    /// [`DEAD_PEER_EVICT_FAILURES`] ticks in a row: the run then
    /// restarts, the eviction is counted, and the caller replaces the
    /// peer.
    pub(crate) fn probe_failed(&mut self, node: usize, peer: usize, fate: ProbeFate) -> bool {
        match fate {
            ProbeFate::Lost => self.obs.lost_probe(),
            ProbeFate::TimedOut => self.obs.timed_out_probe(),
            ProbeFate::PeerDown => self.obs.peer_down_probe(),
        }
        let failures = self.probe_failures[node].entry(peer).or_insert(0);
        *failures += 1;
        if *failures < DEAD_PEER_EVICT_FAILURES {
            return false;
        }
        self.probe_failures[node].remove(&peer);
        self.obs.eviction(node);
        true
    }

    /// Add one node's [`Tally`] to the metrics.
    #[inline]
    pub(crate) fn count(&mut self, tally: &Tally) {
        // Most ticks of most nodes count nothing.
        if *tally == Tally::default() {
            return;
        }
        if tally.down {
            self.obs.node_down_tick();
        }
        self.obs.retried_probes(tally.retried.into());
        self.obs.coasted_steps(tally.coasted.into());
        self.obs.reprieves(tally.reprieves.into());
        self.obs.active_lies(tally.lies.into());
        self.obs.clamped_rtts(tally.clamped.into());
    }

    /// Count how `node`'s round boundary ended.
    pub(crate) fn count_round_end(&mut self, node: usize, end: RoundEnd) {
        match end {
            RoundEnd::Kept => {}
            RoundEnd::Refreshed => self.obs.filter_refresh(node),
            RoundEnd::Stale => self.obs.stale_filter_fallback(node),
        }
    }

    /// Refresh the registry's Surveyor coordinates so closest-Surveyor
    /// lookups stay current.
    pub(crate) fn refresh_registry_coordinates(&mut self) {
        let participants = &self.participants;
        self.registry
            .update_each(|_, s| s.coordinate = participants[s.id].coordinate().clone());
    }

    /// Close tick `tick`: set the gauges and emit the journal's tick
    /// line. The slow-drift displacement gauge is set only when the
    /// adversary actually drifts, so honest-run journals stay
    /// byte-identical (unset gauges are NaN and never emitted); the
    /// mean node-local error is computed only when a journal listens.
    pub(crate) fn close_tick(&mut self, tick: u64, adversary: &dyn Adversary) {
        let drift = adversary.drift_accumulated_ms(tick);
        if drift > 0.0 {
            self.obs.set_drift_ms(drift);
        }
        if self.obs.journal_enabled() {
            let n = self.participants.len().max(1) as f64;
            let sum: f64 = self.participants.iter().map(Participant::local_error).sum();
            self.obs.set_mean_local_error(sum / n);
        }
        self.obs.tick_boundary(tick);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
    use ices_core::EmConfig;
    use ices_netsim::{ChurnModel, FaultPlan};

    /// A small King scenario: 12% Surveyors, 20% malicious, detection on.
    pub(crate) fn scenario(seed: u64, nodes: usize) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            topology: TopologyKind::small_king(nodes),
            surveyors: SurveyorPlacement::Random { fraction: 0.12 },
            malicious_fraction: 0.2,
            alpha: 0.05,
            detection: true,
            clean_cycles: 6,
            attack_cycles: 3,
            embed_against_surveyors_only: false,
        }
    }

    /// Generates one module per backend, each holding every test body
    /// below with `build(config)` bound to that backend's constructor,
    /// `scenario(seed)` to its small population, `$peers` to its
    /// peer-set accessor and `$epoch` to a churn epoch of a few rounds.
    macro_rules! on_both_backends {
        ($($backend:ident: $sim:ty, $nodes:expr, $build:expr, $peers:ident, $epoch:expr;)*) => {$(
            mod $backend {
                use super::*;

                fn build(config: ScenarioConfig) -> $sim {
                    ($build)(config)
                }

                fn scenario(seed: u64) -> ScenarioConfig {
                    super::scenario(seed, $nodes)
                }

                #[test]
                fn construction_partitions_population() {
                    let sim = build(scenario(1));
                    let n = sim.len();
                    let expected = |fraction: f64| (n as f64 * fraction).round() as usize;
                    assert_eq!(sim.surveyors().len(), expected(0.12));
                    assert_eq!(sim.malicious().len(), expected(0.2));
                    for m in sim.malicious() {
                        assert!(!sim.surveyors().contains(m));
                    }
                    assert_eq!(
                        sim.normal_nodes().len(),
                        n - sim.surveyors().len() - sim.malicious().len()
                    );
                }

                #[test]
                fn calibration_fills_registry_and_arms_normal_nodes_only() {
                    let mut sim = build(scenario(5));
                    sim.run_clean(4);
                    sim.calibrate_surveyors(&EmConfig::default());
                    assert_eq!(sim.registry().len(), sim.surveyors().len());
                    for info in sim.registry().all() {
                        info.params.validate();
                    }
                    sim.arm_detection();
                    for node in 0..sim.len() {
                        let normal =
                            !sim.surveyors().contains(&node) && !sim.malicious().contains(&node);
                        assert_eq!(sim.is_secured(node), normal, "node {node}");
                    }
                }

                #[test]
                fn detection_off_scenario_keeps_everyone_plain() {
                    let mut sim = build(ScenarioConfig {
                        detection: false,
                        ..scenario(8)
                    });
                    sim.run_clean(3);
                    sim.calibrate_surveyors(&EmConfig::default());
                    sim.arm_detection(); // no-op
                    assert!((0..sim.len()).all(|node| !sim.is_secured(node)));
                }

                #[test]
                fn traces_are_collected_per_probe() {
                    let mut sim = build(scenario(4));
                    sim.run_clean(2);
                    for node in 0..sim.len() {
                        let expected = sim.$peers(node).len() * 2;
                        assert_eq!(sim.traces()[node].len(), expected, "node {node}");
                    }
                    sim.clear_traces();
                    assert!(sim.traces().iter().all(|t| t.is_empty()));
                }

                #[test]
                fn churn_crashes_nodes_and_coasts_detectors() {
                    let mut sim = build(scenario(14));
                    sim.run_clean(5);
                    sim.calibrate_surveyors(&EmConfig::default());
                    sim.arm_detection();
                    let churn = ChurnModel::new($epoch, 0.2);
                    sim.set_fault_plan(FaultPlan::lossy(0.15, 0.05).with_churn(churn));
                    sim.run(4, &ices_attack::HonestWorld, false);
                    let faults = &sim.report().faults;
                    assert!(faults.node_down_ticks > 0, "churn should crash some nodes");
                    assert!(faults.peer_down_probes > 0, "probes should hit crashed peers");
                    assert!(
                        faults.coasted_steps > 0,
                        "secured nodes should coast over missing samples"
                    );
                }

                #[test]
                fn deterministic_runs() {
                    let run = || {
                        let mut sim = build(scenario(10));
                        sim.run_clean(3);
                        sim.accuracy_report(10).median()
                    };
                    assert_eq!(run(), run());
                }

                #[test]
                fn empty_fault_plan_changes_nothing() {
                    let run = |plan: Option<FaultPlan>| {
                        let mut sim = build(scenario(12));
                        if let Some(plan) = plan {
                            sim.set_fault_plan(plan);
                        }
                        sim.run_clean(3);
                        sim.accuracy_report(10).median()
                    };
                    assert_eq!(run(None), run(Some(FaultPlan::none())));
                }
            }
        )*};
    }

    on_both_backends! {
        vivaldi_driver: crate::VivaldiSimulation, 50, crate::VivaldiSimulation::new,
            neighbors_of, 16;
        nps_driver: crate::NpsSimulation, 80, |config| crate::NpsSimulation::with_nps_config(
            config,
            crate::nps_driver::tests::small_nps(),
        ), reference_points_of, 2;
    }
}
