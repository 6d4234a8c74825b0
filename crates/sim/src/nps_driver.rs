//! Full-system NPS simulation driver.
//!
//! Runs the paper's NPS setup: the 4-layer hierarchy with 20 permanent
//! landmarks, per-round downhill-simplex positioning against reference
//! points, NPS's built-in sensitivity-4 filter, Surveyors (all landmarks
//! plus promoted reference points) embedding against trusted nodes only,
//! and the colluding reference-point adversary.
//!
//! ## The two-phase round loop
//!
//! Each positioning round processes the hierarchy layer by layer (so
//! reference points are positioned before the nodes that depend on
//! them), and within a layer runs in two phases: an immutable snapshot
//! of every node's `(coordinate, local error)`, then a parallel sweep
//! ([`ices_par::par_for_indices`]) in which each member node probes all
//! its reference points and consults the adversary. After the batched
//! detection sweep, one finish pass repositions the members: a batch per
//! worker, whose minimizations run as lock-step lanes
//! ([`NpsNode::finish_rounds`]).
//! A node's reference points live in strictly lower layers, which this
//! layer's members never mutate — so the snapshot equals the live state
//! and the fan-out changes nothing about the result. Probe nonces are
//! derived from `(round, node, probe index)`; the per-node effects
//! (traces, confusion counts, RP replacements) merge in node order, so
//! the round is bit-for-bit reproducible at any worker count.

use crate::metrics::{AccuracyReport, DetectionReport};
use crate::obs::SimObs;
use crate::scenario::{ScenarioConfig, TopologyKind};
use crate::snapshot::CoordSnapshot;
use crate::trace::TraceRing;
use ices_obs::Journal;
use ices_attack::Adversary;
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::{
    calibrate, vet_sequences, DetectorBank, EmConfig, SecureNode, SecureStep, SecurityConfig,
    StateSpaceParams, SurveyorInfo, SurveyorRegistry, VetEvent,
};
use ices_netsim::{FaultPlan, Network, ProbeKey, ProbeOutcome};
use ices_nps::{Hierarchy, NpsConfig, NpsNode, Role};
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};
use ices_stats::streams;

/// How many random Surveyors a joining node probes before adopting the
/// closest one's filter.
const JOIN_PROBE_CANDIDATES: usize = 8;

/// Cap on per-node trace length.
const TRACE_CAP: usize = 8192;

/// Recent clean samples used to prime a freshly adopted filter.
const PRIME_SAMPLES: usize = 64;

/// Extra probe attempts after a lost/timed-out probe within one round
/// (bounded deterministic backoff, as in the Vivaldi driver).
const PROBE_RETRIES: u32 = 2;

/// Consecutive failed rounds toward one reference point before the node
/// gives up and evicts it as dead.
pub const DEAD_RP_EVICT_FAILURES: u32 = 3;

#[allow(clippy::large_enum_variant)] // Plain is the common case; boxing it would cost an alloc per node
enum Participant {
    Plain(NpsNode),
    Secured(Box<SecureNode<NpsNode>>),
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
#[derive(Clone, Copy)]
enum ProbeFate {
    Lost,
    TimedOut,
    PeerDown,
}

/// What one node's positioning round asks the driver to apply globally.
/// Collected from the parallel sweep and merged in node order.
#[derive(Default)]
struct RoundEffect {
    /// Measured relative errors to append to the node's trace, in probe
    /// order.
    recorded: Vec<f64>,
    /// `(label_malicious, flagged)` pairs for the confusion matrix, in
    /// probe order.
    vetted: Vec<(bool, bool)>,
    /// Steps that hit the first-time-peer reprieve.
    reprieves: u64,
    /// Reference points the detection test rejected; replace each.
    rejected_rps: Vec<usize>,
    /// The node refreshed its filter at the round boundary.
    refreshed_filter: bool,
    /// The node was crashed for this round (churn) and did nothing.
    self_down: bool,
    /// Probes that completed only after at least one retry.
    retried_probes: u64,
    /// Reference points whose probe completed: clear failure counts.
    ok_rps: Vec<usize>,
    /// Reference points whose probe failed after all retries.
    failed_rps: Vec<(usize, ProbeFate)>,
    /// Missing samples a secured node absorbed as detector coasts.
    coasted_steps: u64,
    /// The node wanted a filter refresh but every Surveyor was down;
    /// it kept its stale calibration.
    stale_fallback: bool,
    /// Tampered samples the adversary injected (ground truth).
    lied_steps: u64,
    /// Tampered samples whose deflated RTT the intake clamp raised.
    clamped_rtts: u64,
    /// Detector events a secured node deferred to the merge-phase
    /// batched sweep, in probe order: `(event, label_malicious)`, with
    /// `VetEvent::Missing` (label unused) holding a coast's position so
    /// the per-node op order matches the scalar interleaving exactly.
    pending: Vec<(VetEvent, bool)>,
}

/// The NPS system simulation.
pub struct NpsSimulation {
    config: ScenarioConfig,
    nps: NpsConfig,
    security: SecurityConfig,
    network: Network,
    hierarchy: Hierarchy,
    /// Effective per-node reference-point sets (Surveyors' sets are
    /// restricted to trusted nodes).
    reference_points: Vec<Vec<usize>>,
    /// The probe key of each reference point, slot for slot beside
    /// `reference_points`. Kept in step by
    /// [`NpsSimulation::set_reference_point`], the only RP writer after
    /// construction.
    rp_keys: Vec<Vec<ProbeKey>>,
    surveyors: BTreeSet<usize>,
    malicious: BTreeSet<usize>,
    participants: Vec<Participant>,
    registry: SurveyorRegistry,
    traces: Vec<TraceRing>,
    /// Count of completed positioning rounds; probe nonces are derived
    /// from `(round, node, probe index)`, independent of execution order.
    round: u64,
    /// Metrics registry + optional run journal; the single source of
    /// truth the [`DetectionReport`] is derived from.
    obs: SimObs,
    rng: SimRng,
    /// Reusable SoA snapshot buffer for each layer round's phase 1 —
    /// flat arrays refilled in place, no steady-state allocation.
    snapshot: CoordSnapshot,
    /// Per-node liveness at the current round (fault mode only), filled
    /// once per round in place of per-probe churn draws.
    up: Vec<bool>,
    /// Per-node consecutive probe-failure counts toward each reference
    /// point (fault mode only; empty maps on a clean network).
    probe_failures: Vec<BTreeMap<usize, u32>>,
    /// Nodes whose [`NpsSimulation::arm_detection`] found no live
    /// Surveyor candidate (total outage); retried each round.
    pending_arms: BTreeSet<usize>,
    /// Reusable SoA execution engine for the merge-phase detection
    /// sweep. Transient per layer round: state is gathered from and
    /// scattered back to each node's scalar [`ices_core::Detector`],
    /// which stays the source of truth.
    bank: DetectorBank,
}

/// The probe nonce for `node`'s `k`-th reference-point probe in `round`
/// — a pure function of the triple, so concurrent workers need no
/// shared counter.
fn probe_nonce(round: u64, node: usize, k: usize) -> u64 {
    derive2(derive(streams::NPSP, round), node as u64, k as u64)
}

/// The probe nonce for retry `attempt` of probe `k`. Attempt 0 is
/// exactly [`probe_nonce`] — the clean-network nonce — so an empty fault
/// plan reproduces seed behavior bit for bit; later attempts draw from a
/// disjoint retry stream.
fn retry_nonce(round: u64, node: usize, k: usize, attempt: u32) -> u64 {
    if attempt == 0 {
        probe_nonce(round, node, k)
    } else {
        derive2(
            derive(derive(streams::NPSR, attempt as u64), round),
            node as u64,
            k as u64,
        )
    }
}

impl NpsSimulation {
    /// Build the system with the paper's NPS configuration.
    pub fn new(config: ScenarioConfig) -> Self {
        Self::with_nps_config(config, NpsConfig::paper_default())
    }

    /// Build with explicit NPS parameters (tests use small 2-d spaces).
    ///
    /// # Panics
    /// Panics on invalid configuration or a population too small for the
    /// hierarchy.
    pub fn with_nps_config(config: ScenarioConfig, nps: NpsConfig) -> Self {
        config.validate();
        nps.validate();
        let seed = config.seed;
        let network = match &config.topology {
            TopologyKind::King(kc) => Network::from_king(kc.generate(seed), seed),
            TopologyKind::StreamedKing(kc) => Network::from_king_streamed(kc.clone(), seed),
            TopologyKind::PlanetLab(pc) => Network::from_planetlab(pc.generate(seed), seed),
        };
        let n = network.len();
        let hierarchy = Hierarchy::build(n, &nps, seed);
        let mut rng = SimRng::from_stream(seed, streams::NPSD,0); // "NPSD"

        // Surveyors: every landmark, plus promoted reference points until
        // the configured fraction is met.
        let mut surveyors: BTreeSet<usize> = hierarchy.landmarks().into_iter().collect();
        let want = ((n as f64) * config.surveyors.fraction()).round() as usize;
        let rp_pool: Vec<usize> = (0..n)
            .filter(|&i| hierarchy.role[i] == Role::ReferencePoint)
            .collect();
        if want > surveyors.len() && !rp_pool.is_empty() {
            let extra = (want - surveyors.len()).min(rp_pool.len());
            for idx in sample_indices(&mut rng, rp_pool.len(), extra) {
                surveyors.insert(rp_pool[idx]);
            }
        }

        // Malicious among the rest. The paper's conspirators "behave in a
        // correct and honest way until enough of them become reference
        // points" — their campaign targets the *activation threshold*
        // (5 malicious RPs per layer), not a takeover of every serving
        // slot: place up to threshold+1 malicious nodes into each middle
        // layer's RP slots (budget permitting) and the rest among
        // regular nodes, as in the paper's evaluation.
        let civilians_total = (0..n).filter(|i| !surveyors.contains(i)).count();
        let mal_count =
            (((n as f64) * config.malicious_fraction).round() as usize).min(civilians_total);
        let infiltration_per_layer = ices_attack::nps_collusion::DEFAULT_ACTIVATION_THRESHOLD + 1;
        let mut malicious: BTreeSet<usize> = BTreeSet::new();
        let mut budget = mal_count;
        for l in 1..nps.layers - 1 {
            if budget == 0 {
                break;
            }
            let rp_civilians: Vec<usize> = (0..n)
                .filter(|&i| {
                    !surveyors.contains(&i)
                        && hierarchy.layer[i] == l
                        && hierarchy.role[i] == Role::ReferencePoint
                })
                .collect();
            let take = infiltration_per_layer.min(rp_civilians.len()).min(budget);
            for idx in sample_indices(&mut rng, rp_civilians.len(), take) {
                malicious.insert(rp_civilians[idx]);
            }
            budget -= take;
        }
        let other_civilians: Vec<usize> = (0..n)
            .filter(|i| !surveyors.contains(i) && !malicious.contains(i))
            .collect();
        for idx in sample_indices(
            &mut rng,
            other_civilians.len(),
            budget.min(other_civilians.len()),
        ) {
            malicious.insert(other_civilians[idx]);
        }

        // Effective RP sets: Surveyors position against trusted nodes
        // only — Surveyor reference points from the layer above, topped
        // up with landmarks when short (landmarks are the root of trust).
        let landmarks = hierarchy.landmarks();
        let mut reference_points = hierarchy.reference_points.clone();
        for &s in &surveyors {
            if hierarchy.role[s] == Role::Landmark {
                continue; // already landmarks-only
            }
            let layer = hierarchy.layer[s];
            let mut trusted: Vec<usize> = (0..n)
                .filter(|&i| surveyors.contains(&i) && i != s && hierarchy.layer[i] == layer - 1)
                .collect();
            if trusted.len() < nps.min_rps {
                for &l in &landmarks {
                    if l != s && !trusted.contains(&l) {
                        trusted.push(l);
                    }
                }
            }
            trusted.truncate(nps.rps_per_node);
            reference_points[s] = trusted;
        }

        // §6 variant: normal nodes also position exclusively against
        // Surveyors (a GNP/NPS hybrid, trading accuracy for immunity).
        if config.embed_against_surveyors_only {
            #[allow(clippy::needless_range_loop)] // node is an id, not just an index
            for node in 0..n {
                if surveyors.contains(&node) {
                    continue;
                }
                let layer = hierarchy.layer[node];
                let mut trusted: Vec<usize> = (0..n)
                    .filter(|&i| surveyors.contains(&i) && hierarchy.layer[i] + 1 == layer)
                    .collect();
                if trusted.len() < nps.min_rps {
                    for &l in &landmarks {
                        if !trusted.contains(&l) {
                            trusted.push(l);
                        }
                    }
                }
                trusted.truncate(nps.rps_per_node);
                reference_points[node] = trusted;
            }
        }

        let rp_keys = reference_points
            .iter()
            .enumerate()
            .map(|(node, rps)| rps.iter().map(|&rp| network.probe_key(node, rp)).collect())
            .collect();
        let participants = (0..n)
            .map(|id| Participant::Plain(NpsNode::new(id, nps, seed)))
            .collect();

        Self {
            security: SecurityConfig {
                alpha: config.alpha,
                ..SecurityConfig::paper_default()
            },
            config,
            nps,
            network,
            hierarchy,
            reference_points,
            rp_keys,
            surveyors,
            malicious,
            participants,
            registry: SurveyorRegistry::new(),
            traces: vec![TraceRing::with_capacity(TRACE_CAP); n],
            round: 0,
            obs: SimObs::new(),
            rng,
            snapshot: CoordSnapshot::new(),
            up: Vec::new(),
            probe_failures: vec![BTreeMap::new(); n],
            pending_arms: BTreeSet::new(),
            bank: DetectorBank::new(),
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

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The positioning hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Surveyor ids (landmarks plus promoted reference points).
    pub fn surveyors(&self) -> &BTreeSet<usize> {
        &self.surveyors
    }

    /// Malicious node ids.
    pub fn malicious(&self) -> &BTreeSet<usize> {
        &self.malicious
    }

    /// Honest non-Surveyor node ids.
    pub fn normal_nodes(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|i| !self.surveyors.contains(i) && !self.malicious.contains(i))
            .collect()
    }

    /// Per-node traces of measured relative errors. Each [`TraceRing`]
    /// derefs to a contiguous `&[f64]`, oldest first.
    pub fn traces(&self) -> &[TraceRing] {
        &self.traces
    }

    /// Clear collected traces.
    pub fn clear_traces(&mut self) {
        for t in &mut self.traces {
            t.clear();
        }
    }

    /// The Surveyor registry.
    pub fn registry(&self) -> &SurveyorRegistry {
        &self.registry
    }

    /// A node's current effective reference-point set.
    pub fn reference_points_of(&self, node: usize) -> &[usize] {
        &self.reference_points[node]
    }

    /// Diagnostic: the node's current filter estimate and α-threshold
    /// (NaN for unsecured nodes).
    pub fn detector_state(&self, node: usize) -> (f64, f64) {
        match &self.participants[node] {
            Participant::Secured(s) => {
                let outlook = s.detector().prediction();
                (outlook.predicted, outlook.threshold)
            }
            Participant::Plain(_) => (f64::NAN, f64::NAN),
        }
    }

    /// Detection metrics accumulated so far, derived from the
    /// observability registry (the counters are the primary record;
    /// this assembles the serialized report shape from them).
    pub fn report(&self) -> DetectionReport {
        self.obs.detection_report()
    }

    /// Attach a run journal: every subsequent round emits a counter
    /// delta line, and discrete events (evictions, rejections, filter
    /// refreshes, deferred arms) are recorded as they happen. Journal
    /// emission reads the same registry the report is derived from, so
    /// simulation outputs are bit-identical with or without one.
    pub fn enable_journal(&mut self, journal: Journal) {
        let (nodes, seed) = (self.len(), self.config.seed);
        self.obs.enable_journal(journal, "nps", nodes, seed);
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

    /// The serving map the adversary observes: each landmark/reference
    /// point mapped to its own layer.
    pub fn serving_map(&self) -> BTreeMap<usize, usize> {
        (0..self.len())
            .filter(|&i| {
                matches!(
                    self.hierarchy.role[i],
                    Role::Landmark | Role::ReferencePoint
                )
            })
            .map(|i| (i, self.hierarchy.layer[i]))
            .collect()
    }

    /// Layer membership of non-serving (normal) nodes, as the adversary
    /// observes it.
    pub fn layer_members(&self) -> BTreeMap<usize, Vec<usize>> {
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            if self.hierarchy.role[i] == Role::Regular {
                m.entry(self.hierarchy.layer[i]).or_default().push(i);
            }
        }
        m
    }

    /// One positioning round for every member of one hierarchy layer,
    /// in two phases: snapshot the whole population, then let each
    /// member probe its reference points — in parallel, each node
    /// mutating only itself — and vet, reposition and settle the round
    /// boundary in batched passes.
    ///
    /// Members' reference points live in strictly lower layers, which no
    /// member of this layer mutates, so the snapshot is identical to the
    /// live state the old sequential sweep observed. The returned
    /// [`RoundEffect`]s merge in node order (traces, confusion counts,
    /// RP replacements — the latter drawing from the driver RNG in the
    /// same order as a sequential sweep). Liveness comes from the round's
    /// mask, which [`NpsSimulation::run`] fills before the first layer.
    fn layer_round(
        &mut self,
        round: u64,
        members: &[usize],
        adversary: &dyn Adversary,
        collect: bool,
    ) {
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
        let reference_points = &self.reference_points;
        let rp_keys = &self.rp_keys;
        let registry = &self.registry;
        let snapshot = &self.snapshot;
        let faulty = !network.fault_plan().is_empty();
        let up = &self.up;
        let effects = ices_par::par_for_indices(&mut self.participants, members, |node, participant| {
            let mut effect = RoundEffect::default();
            if faulty && !up[node] {
                // Crashed for this epoch: the node skips its round and
                // rejoins warm (coordinate intact) when the epoch turns.
                effect.self_down = true;
                return effect;
            }
            for (k, &rp) in reference_points[node].iter().enumerate() {
                let link = network.keyed_pair(node, rp, rp_keys[node][k]);
                let rtt = if !faulty {
                    link.smoothed(probe_nonce(round, node, k))
                } else {
                    let mut measured = None;
                    if !up[rp] {
                        effect.failed_rps.push((rp, ProbeFate::PeerDown));
                    } else {
                        // Both endpoints are up: only the link-fault
                        // gate decides each attempt. Bounded
                        // deterministic backoff: immediate re-probes
                        // under fresh retry-stream nonces.
                        let mut fate = ProbeFate::Lost;
                        for attempt in 0..=PROBE_RETRIES {
                            match link.try_smoothed(retry_nonce(round, node, k, attempt)) {
                                ProbeOutcome::Ok(r) => {
                                    measured = Some(r);
                                    if attempt > 0 {
                                        effect.retried_probes += 1;
                                    }
                                    break;
                                }
                                ProbeOutcome::Lost => fate = ProbeFate::Lost,
                                ProbeOutcome::TimedOut => fate = ProbeFate::TimedOut,
                            }
                        }
                        match measured {
                            Some(_) => effect.ok_rps.push(rp),
                            None => effect.failed_rps.push((rp, fate)),
                        }
                    }
                    match measured {
                        Some(r) => r,
                        None => {
                            // Missing sample: a secured node's detector
                            // coasts so its innovation statistics widen
                            // honestly; positioning just sees one fewer
                            // reference point this round. The coast runs
                            // in the merge-phase batched sweep, holding
                            // its probe-order position.
                            if let Participant::Secured(_) = participant {
                                effect.pending.push((VetEvent::Missing, false));
                                effect.coasted_steps += 1;
                            }
                            continue;
                        }
                    }
                };
                // Materialize only the two coordinates this probe
                // touches; the honest path moves the RP coordinate into
                // the sample instead of cloning it a second time.
                let rp_coord = snapshot.coordinate(rp);
                let rp_error = snapshot.error(rp);
                let node_coord = snapshot.coordinate(node);
                let tampered =
                    adversary.intercept(rp, node, round, &rp_coord, rp_error, rtt, &node_coord);
                let label_malicious = tampered.is_some();
                let sample = match tampered {
                    Some(mut t) => {
                        effect.lied_steps += 1;
                        // Intake invariant: tampered RTTs may be delayed
                        // but never deflated below the measurement.
                        if t.clamp_rtt(rtt) {
                            effect.clamped_rtts += 1;
                        }
                        debug_assert!(
                            t.rtt_ms >= rtt,
                            "intake clamp must enforce rtt_ms >= measured rtt"
                        );
                        PeerSample {
                            peer: rp,
                            peer_coord: t.coord,
                            peer_error: t.error,
                            rtt_ms: t.rtt_ms,
                        }
                    }
                    None => PeerSample {
                        peer: rp,
                        peer_coord: rp_coord,
                        peer_error: rp_error,
                        rtt_ms: rtt,
                    },
                };
                match participant {
                    Participant::Plain(n) => {
                        let out = n.apply_step(&sample);
                        effect.recorded.push(out.relative_error);
                    }
                    Participant::Secured(_) => {
                        // Defer the innovation test (and the buffer-on-
                        // accept) to the merge phase: the whole layer's
                        // samples are classified in one DetectorBank
                        // sweep, column by column, which replays this
                        // node's probe-order op sequence exactly.
                        effect.pending.push((VetEvent::Sample(sample), label_malicious));
                    }
                }
            }
            effect
        });

        // Batched detection sweep: replay every deferred detector event
        // through one DetectorBank pass, bit-identical to the scalar
        // per-node calls it replaces (asserted by
        // `ices_core::protocol`'s equivalence suite). Results are
        // written back into each member's RoundEffect before the
        // ordinary merge loop below consumes them.
        let mut effects = effects;
        {
            let mut vet_nodes = Vec::new();
            let mut vet_slots = Vec::new();
            let mut node_events = Vec::new();
            let mut node_labels = Vec::new();
            for (slot, (&node, effect)) in members.iter().zip(effects.iter_mut()).enumerate() {
                if effect.pending.is_empty() {
                    continue;
                }
                let (events, labels): (Vec<VetEvent>, Vec<bool>) =
                    effect.pending.drain(..).unzip();
                vet_nodes.push(node);
                vet_slots.push(slot);
                node_events.push(events);
                node_labels.push(labels);
            }
            if !vet_nodes.is_empty() {
                let mut secured: Vec<&mut SecureNode<NpsNode>> =
                    ices_par::select_disjoint_mut(&mut self.participants, &vet_nodes)
                        .into_iter()
                        .map(|p| match p {
                            Participant::Secured(s) => &mut **s,
                            Participant::Plain(_) => {
                                panic!("only secured nodes defer detector work")
                            }
                        })
                        .collect();
                // Each node's steps arrive in its probe order, so its
                // effect lists fill exactly as a per-node loop would.
                vet_sequences(&mut self.bank, &mut secured, &node_events, |i, k, step| {
                    let effect = &mut effects[vet_slots[i]];
                    effect.vetted.push((node_labels[i][k], !step.accepted()));
                    match &step {
                        SecureStep::Accepted { outcome, .. } => {
                            effect.recorded.push(outcome.relative_error);
                        }
                        SecureStep::Reprieved { .. } => {
                            effect.reprieves += 1;
                        }
                        SecureStep::Rejected { .. } => {
                            if let VetEvent::Sample(sample) = &node_events[i][k] {
                                effect.rejected_rps.push(sample.peer);
                            }
                        }
                    }
                });
            }
        }

        // Reposition every member that ran its round, from whatever it
        // accepted (secured members' accepted steps were applied by the
        // sweep above). One batch per worker: each runs its nodes'
        // minimizations as lock-step lanes, and a node's result does not
        // depend on the batch it lands in.
        {
            let running: Vec<usize> = members
                .iter()
                .zip(&effects)
                .filter(|(_, effect)| !effect.self_down)
                .map(|(&node, _)| node)
                .collect();
            let mut nodes: Vec<&mut NpsNode> =
                ices_par::select_disjoint_mut(&mut self.participants, &running)
                    .into_iter()
                    .map(|p| match p {
                        Participant::Plain(n) => n,
                        Participant::Secured(s) => s.inner_mut(),
                    })
                    .collect();
            ices_par::par_chunks_mut(&mut nodes, |_, batch| {
                NpsNode::finish_rounds(batch);
            });
        }

        // Deferred round boundary for secured members, now repositioned:
        // settle the detector round, and refresh starved filters.
        {
            let mut finish_nodes = Vec::new();
            let mut finish_slots = Vec::new();
            for (slot, (&node, effect)) in members.iter().zip(effects.iter()).enumerate() {
                if effect.self_down {
                    continue;
                }
                if matches!(self.participants[node], Participant::Secured(_)) {
                    finish_nodes.push(node);
                    finish_slots.push(slot);
                }
            }
            if !finish_nodes.is_empty() {
                let boundary = ices_par::par_for_indices(
                    &mut self.participants,
                    &finish_nodes,
                    |_, participant| {
                        let Participant::Secured(s) = participant else {
                            panic!("only secured nodes reach the deferred round boundary")
                        };
                        let coord = s.inner().coordinate().clone();
                        let mut refreshed = false;
                        let mut stale = false;
                        if s.end_round() == ices_core::protocol::RoundAction::RefreshFilter {
                            // Only Surveyors that are up right now
                            // qualify; with every Surveyor down the node
                            // keeps its stale-but-bounded calibration.
                            // (On a clean network `node_up` is always
                            // true, so this is exactly the unconditional
                            // lookup.)
                            match registry.closest_available_by_coordinate(&coord, |info| {
                                network.node_up(info.id, round)
                            }) {
                                Some(info) => {
                                    let (params, id) = (info.params, info.id);
                                    s.refresh_filter(params, id);
                                    refreshed = true;
                                }
                                None => {
                                    stale = true;
                                }
                            }
                        }
                        (refreshed, stale)
                    },
                );
                for (i, (refreshed, stale)) in boundary.into_iter().enumerate() {
                    let effect = &mut effects[finish_slots[i]];
                    effect.refreshed_filter = refreshed;
                    effect.stale_fallback = stale;
                }
            }
        }

        let journaled = self.obs.journal_enabled();
        for (&node, effect) in members.iter().zip(effects) {
            // Completed probes: every vetted verdict for a secured node,
            // every recorded sample for a plain one (plain nodes have no
            // verdicts; secured nodes record only accepted steps).
            let ok = if effect.vetted.is_empty() {
                effect.recorded.len()
            } else {
                effect.vetted.len()
            };
            self.obs.probes_ok(ok as u64);
            for (label_malicious, flagged) in effect.vetted {
                self.obs.record_confusion(label_malicious, flagged);
            }
            self.obs.reprieves(effect.reprieves);
            for d in effect.recorded {
                if journaled {
                    self.obs.observe_relative_error(d);
                }
                if collect {
                    self.traces[node].push(d);
                }
            }
            for rp in effect.rejected_rps {
                self.replace_reference_point(node, rp);
                self.obs.replacement(node, rp);
            }
            if effect.refreshed_filter {
                self.obs.filter_refresh(node);
            }
            // Fault bookkeeping (all branches dead on a clean network).
            if effect.self_down {
                self.obs.node_down_tick();
            }
            self.obs.retried_probes(effect.retried_probes);
            self.obs.coasted_steps(effect.coasted_steps);
            if effect.lied_steps > 0 {
                self.obs.active_lies(effect.lied_steps);
            }
            if effect.clamped_rtts > 0 {
                self.obs.clamped_rtts(effect.clamped_rtts);
            }
            if effect.stale_fallback {
                self.obs.stale_filter_fallback(node);
            }
            for rp in effect.ok_rps {
                self.probe_failures[node].remove(&rp);
            }
            for (rp, fate) in effect.failed_rps {
                match fate {
                    ProbeFate::Lost => self.obs.lost_probe(),
                    ProbeFate::TimedOut => self.obs.timed_out_probe(),
                    ProbeFate::PeerDown => self.obs.peer_down_probe(),
                }
                let failures = self.probe_failures[node].entry(rp).or_insert(0);
                *failures += 1;
                if *failures >= DEAD_RP_EVICT_FAILURES {
                    self.probe_failures[node].remove(&rp);
                    self.evict_dead_reference_point(node, rp);
                }
            }
        }
        // Slow-drift displacement gauge: set only when the adversary
        // actually drifts, so honest-run journals stay byte-identical.
        let drift = adversary.drift_accumulated_ms(round);
        if drift > 0.0 {
            self.obs.set_drift_ms(drift);
        }
    }

    /// Evict a reference point that failed [`DEAD_RP_EVICT_FAILURES`]
    /// consecutive probes. Surveyors must keep positioning against
    /// trusted nodes only, so their replacement pool is restricted to
    /// Surveyors of the layer above (falling back to landmarks); normal
    /// nodes use the ordinary same-layer replacement path.
    fn evict_dead_reference_point(&mut self, node: usize, dead: usize) {
        self.obs.eviction(node);
        if !self.surveyors.contains(&node) && !self.config.embed_against_surveyors_only {
            self.replace_reference_point(node, dead);
            return;
        }
        let above = self.hierarchy.layer[node].wrapping_sub(1);
        let current = &self.reference_points[node];
        let pool: Vec<usize> = (0..self.len())
            .filter(|&i| {
                self.surveyors.contains(&i)
                    && (self.hierarchy.layer[i] == above
                        || self.hierarchy.role[i] == Role::Landmark)
                    && !current.contains(&i)
                    && i != node
            })
            .collect();
        if pool.is_empty() {
            return; // No fresh trusted node available: keep the dead RP.
        }
        let candidate = pool[self.rng.random_range(0..pool.len())];
        self.swap_reference_point(node, dead, candidate);
    }

    /// Put `new` in the slot `old` holds in `node`'s reference-point set.
    fn swap_reference_point(&mut self, node: usize, old: usize, new: usize) {
        if let Some(slot) = self.reference_points[node].iter().position(|&p| p == old) {
            self.set_reference_point(node, slot, new);
        }
    }

    /// Put `rp` in `node`'s reference-point `slot`, with its probe key
    /// beside it.
    fn set_reference_point(&mut self, node: usize, slot: usize, rp: usize) {
        self.reference_points[node][slot] = rp;
        self.rp_keys[node][slot] = self.network.probe_key(node, rp);
    }

    /// Swap a rejected reference point for another serving node of the
    /// same layer (or keep it if none is available).
    fn replace_reference_point(&mut self, node: usize, rejected: usize) {
        let above = self.hierarchy.layer[node].wrapping_sub(1);
        let current = &self.reference_points[node];
        let candidates: Vec<usize> = (0..self.len())
            .filter(|&i| {
                self.hierarchy.layer[i] == above
                    && matches!(
                        self.hierarchy.role[i],
                        Role::Landmark | Role::ReferencePoint
                    )
                    && !current.contains(&i)
                    && i != node
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let replacement = candidates[self.rng.random_range(0..candidates.len())];
        self.swap_reference_point(node, rejected, replacement);
    }

    /// Run `rounds` full positioning rounds: landmarks first, then each
    /// layer in order (so reference points are positioned before the
    /// nodes that depend on them). Within a layer, members run as one
    /// two-phase [`layer_round`](Self::layer_round); the worker count
    /// comes from `ICES_THREADS` / [`ices_par::max_threads`] and never
    /// changes the result.
    pub fn run(&mut self, rounds: usize, adversary: &dyn Adversary, collect: bool) {
        // Layer groups, ascending; ids ascending within each layer.
        let max_layer = self.hierarchy.layer.iter().copied().max().unwrap_or(0);
        let layers: Vec<Vec<usize>> = (0..=max_layer)
            .map(|l| {
                (0..self.len())
                    .filter(|&i| self.hierarchy.layer[i] == l)
                    .collect()
            })
            .collect();
        let start = self.round;
        for _ in 0..rounds {
            let round = self.round;
            self.round += 1;
            self.obs.begin_tick(round);
            // Nodes whose arming was deferred by a Surveyor outage retry
            // before the round proper (no-op — and no RNG draw — unless
            // a deferral actually happened).
            self.retry_pending_arms();
            if !self.network.fault_plan().is_empty() {
                self.network.fill_up_mask(round, &mut self.up);
            }
            for members in &layers {
                if !members.is_empty() {
                    self.layer_round(round, members, adversary, collect);
                }
            }
            self.refresh_registry_coordinates();
            if self.obs.journal_enabled() {
                // Journal-only gauge: mean node-local embedding error.
                let n = self.participants.len().max(1) as f64;
                let sum: f64 = self.participants.iter().map(Participant::local_error).sum();
                self.obs.set_mean_local_error(sum / n);
            }
            self.obs.tick_boundary(round);
        }
        self.obs.phase("run", self.round - start);
    }

    /// Run attack-free rounds, collecting traces.
    pub fn run_clean(&mut self, rounds: usize) {
        self.run(rounds, &ices_attack::HonestWorld, true);
    }

    fn refresh_registry_coordinates(&mut self) {
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
    }

    /// Reset every node's positioning state (the §3.2 "forget and
    /// rejoin" protocol). Traces and calibration are kept.
    pub fn forget_coordinates(&mut self) {
        for p in &mut self.participants {
            match p {
                Participant::Plain(n) => n.reset(),
                Participant::Secured(s) => s.inner_mut().reset(),
            }
        }
    }

    /// EM-calibrate *every* node on its own trace (for the §3.2
    /// validation experiments). Returns outcomes indexed by node.
    pub fn calibrate_all_traces(&self, em: &EmConfig) -> Vec<ices_core::CalibrationOutcome> {
        self.traces
            .iter()
            .map(|t| calibrate(t, StateSpaceParams::em_initial_guess(), em))
            .collect()
    }

    /// EM-calibrate every Surveyor and publish to the registry.
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

    /// Arm detection on every honest non-Surveyor node (closest-of-k
    /// random Surveyor join, as in §4.2). No-op when the scenario
    /// disables detection.
    ///
    /// # Panics
    /// Panics if the registry is empty.
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
                // arming to the next round rather than indexing an
                // empty candidate draw.
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
        let round = self.round;
        let mut candidates = self.registry.sample(JOIN_PROBE_CANDIDATES, &mut self.rng);
        if faulty {
            // Crashed Surveyors drop out of the candidate race before
            // anything is probed; on a clean network every node is up,
            // so this retain is a no-op and candidate indices (and
            // their join nonces) are unchanged from seed behavior.
            candidates.retain(|s| self.network.node_up(s.id, round));
        }
        if candidates.is_empty() {
            return false;
        }
        let mut best: Option<(usize, f64)> = None;
        for (k, s) in candidates.iter().enumerate() {
            // Join probes draw nonces from their own stream, keyed by
            // (node, candidate index) — disjoint from the positioning
            // rounds' probe nonces.
            let nonce = derive2(streams::NPSJ, node as u64, k as u64);
            if !faulty {
                let rtt = self.network.measure_rtt_smoothed(node, s.id, nonce);
                if best.map(|(_, d)| rtt < d).unwrap_or(true) {
                    best = Some((k, rtt));
                }
            } else {
                match self.network.try_measure_rtt_smoothed(node, s.id, nonce, round) {
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
        let placeholder = Participant::Plain(NpsNode::new(node, self.nps, 0));
        let old = std::mem::replace(&mut self.participants[node], placeholder);
        let inner = match old {
            Participant::Plain(v) => v,
            Participant::Secured(_) => panic!("node {node} already secured"),
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

    /// System-accuracy report over honest normal nodes (Fig 15's CDF).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SurveyorPlacement;
    use ices_attack::NpsCollusionAttack;
    use ices_coord::Space;

    fn small_nps() -> NpsConfig {
        NpsConfig {
            space: Space::euclidean(2),
            landmarks: 8,
            rps_per_node: 8,
            min_rps: 4,
            solver_max_iter: 200,
            ..NpsConfig::paper_default()
        }
    }

    fn scenario(seed: u64, nodes: usize) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            topology: TopologyKind::small_king(nodes),
            surveyors: SurveyorPlacement::Random { fraction: 0.15 },
            malicious_fraction: 0.25,
            alpha: 0.05,
            detection: true,
            clean_cycles: 4,
            attack_cycles: 3,
            embed_against_surveyors_only: false,
        }
    }

    fn build(seed: u64) -> NpsSimulation {
        NpsSimulation::with_nps_config(scenario(seed, 80), small_nps())
    }

    #[test]
    fn construction_partitions_population() {
        let sim = build(1);
        assert_eq!(sim.len(), 80);
        // All landmarks are surveyors.
        for l in sim.hierarchy().landmarks() {
            assert!(sim.surveyors().contains(&l));
        }
        for m in sim.malicious() {
            assert!(!sim.surveyors().contains(m));
        }
    }

    #[test]
    fn surveyor_rps_are_trusted() {
        let sim = build(2);
        for &s in sim.surveyors() {
            for &rp in &sim.reference_points[s] {
                assert!(
                    sim.surveyors().contains(&rp),
                    "surveyor {s} positions against untrusted {rp}"
                );
            }
        }
    }

    #[test]
    fn clean_run_converges() {
        let mut sim = build(3);
        sim.run_clean(6);
        let report = sim.accuracy_report(20);
        assert!(
            report.median() < 0.3,
            "median accuracy after clean NPS run: {}",
            report.median()
        );
    }

    #[test]
    fn traces_accumulate_per_round() {
        let mut sim = build(4);
        sim.run_clean(2);
        for node in 0..sim.len() {
            assert_eq!(
                sim.traces()[node].len(),
                sim.reference_points[node].len() * 2,
                "node {node}"
            );
        }
    }

    #[test]
    fn calibrate_and_arm() {
        let mut sim = build(5);
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        assert_eq!(sim.registry().len(), sim.surveyors().len());
        sim.arm_detection();
        for node in sim.normal_nodes() {
            assert!(matches!(sim.participants[node], Participant::Secured(_)));
        }
    }

    #[test]
    fn collusion_attack_is_mostly_detected() {
        let mut sim = build(6);
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let mut attack = NpsCollusionAttack::new(
            sim.malicious().iter().copied(),
            2,   // dims of the test space
            3.0, // drag strength
            0.5,
            9,
        );
        attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
        sim.run(3, &attack, false);
        let c = &sim.report().confusion;
        if attack.is_active() && c.positives() > 0 {
            assert!(
                c.tpr() > 0.5,
                "consistent-lie collusion should still be caught: tpr = {}",
                c.tpr()
            );
        }
        // Whether or not the conspiracy activated, honest steps must flow.
        assert!(c.negatives() > 0);
    }

    /// The cached per-slot probe keys must equal a fresh derivation
    /// after rejection replacements and dead-RP evictions.
    #[test]
    fn rp_keys_track_every_replacement() {
        use ices_netsim::ChurnModel;
        let assert_in_step = |sim: &NpsSimulation, when: &str| {
            for node in 0..sim.len() {
                for (slot, &rp) in sim.reference_points[node].iter().enumerate() {
                    assert_eq!(
                        sim.rp_keys[node][slot],
                        sim.network.probe_key(node, rp),
                        "{when}: node {node} slot {slot}"
                    );
                }
            }
        };
        let mut sim = build(6);
        assert_in_step(&sim, "after construction");
        sim.set_fault_plan(FaultPlan::lossy(0.2, 0.1).with_churn(ChurnModel::new(2, 0.3)));
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 2, 3.0, 0.5, 9);
        attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
        sim.run(3, &attack, false);
        let report = sim.report();
        assert!(report.faults.evictions > 0, "dead RPs should be evicted");
        assert!(report.replacements > 0, "rejected RPs should be replaced");
        assert_in_step(&sim, "after the attack");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = build(7);
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = || {
            let mut sim = build(8);
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        let explicit_empty = || {
            let mut sim = build(8);
            sim.set_fault_plan(FaultPlan::none());
            sim.run_clean(3);
            sim.accuracy_report(10).median()
        };
        assert_eq!(clean(), explicit_empty());
    }

    #[test]
    fn lossy_network_still_converges_and_counts_faults() {
        let mut sim = build(9);
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        sim.run_clean(6);
        let faults = &sim.report().faults;
        assert!(faults.retried_probes > 0, "retries should fire at 15% failure");
        assert!(
            faults.lost_probes + faults.timed_out_probes > 0,
            "some probes should fail terminally"
        );
        let report = sim.accuracy_report(20);
        assert!(
            report.median() < 0.35,
            "NPS should still converge under 15% probe failure, median {}",
            report.median()
        );
    }

    #[test]
    fn churn_crashes_nodes_and_coasts_detectors() {
        use ices_netsim::ChurnModel;
        let mut sim = build(10);
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        sim.set_fault_plan(FaultPlan::lossy(0.15, 0.05).with_churn(ChurnModel::new(2, 0.2)));
        sim.run(4, &ices_attack::HonestWorld, false);
        let faults = &sim.report().faults;
        assert!(faults.node_down_ticks > 0, "churn should crash some nodes");
        assert!(faults.peer_down_probes > 0, "probes should hit crashed RPs");
        assert!(
            faults.coasted_steps > 0,
            "secured nodes should coast over missing samples"
        );
    }

    #[test]
    fn dead_reference_points_are_evicted() {
        use ices_netsim::ChurnModel;
        // Fewer RPs per node than the layers serve, so dependents have a
        // spare serving node to evict toward.
        let nps = NpsConfig {
            rps_per_node: 4,
            min_rps: 3,
            ..small_nps()
        };
        let mut sim = NpsSimulation::with_nps_config(scenario(11, 80), nps);
        // Pick a serving reference point that is not a landmark and
        // crash it forever: its dependents must evict it.
        let victim = (0..sim.len())
            .find(|&i| sim.hierarchy().role[i] == Role::ReferencePoint)
            .expect("hierarchy has reference points");
        let dependents_before = (0..sim.len())
            .filter(|&n| n != victim && sim.reference_points_of(n).contains(&victim))
            .count();
        assert!(dependents_before > 0, "victim must serve someone");
        sim.set_fault_plan(
            FaultPlan::none().with_node_churn(victim, ChurnModel::new(u64::MAX, 0.999_999)),
        );
        sim.run_clean(6);
        assert!(
            sim.report().faults.evictions > 0,
            "a permanently dead reference point should get evicted"
        );
        // Some dependents may have no spare serving node in the layer
        // above (tiny hierarchy) and keep the dead RP, but everyone with
        // a choice must have moved off it.
        let dependents_after = (0..sim.len())
            .filter(|&n| n != victim && sim.reference_points_of(n).contains(&victim))
            .count();
        assert!(
            dependents_after < dependents_before,
            "eviction should strictly shrink the dead RP's dependents \
             ({dependents_before} -> {dependents_after})"
        );
    }

    #[test]
    fn surveyor_evictions_stay_trusted() {
        use ices_netsim::ChurnModel;
        let mut sim = build(12);
        // Crash one of a Surveyor's trusted reference points.
        let (surveyor, victim) = sim
            .surveyors()
            .iter()
            .find_map(|&s| {
                sim.reference_points_of(s)
                    .iter()
                    .find(|&&rp| sim.hierarchy().role[rp] != Role::Landmark)
                    .map(|&rp| (s, rp))
            })
            .expect("some surveyor has a non-landmark trusted RP");
        let _ = surveyor;
        sim.set_fault_plan(
            FaultPlan::none().with_node_churn(victim, ChurnModel::new(u64::MAX, 0.999_999)),
        );
        sim.run_clean(6);
        // Whatever replacements happened, every Surveyor's RP set must
        // still be trusted-only.
        for &s in sim.surveyors() {
            for &rp in sim.reference_points_of(s) {
                assert!(
                    sim.surveyors().contains(&rp),
                    "surveyor {s} now positions against untrusted {rp}"
                );
            }
        }
    }
}
