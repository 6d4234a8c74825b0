//! Full-system Vivaldi simulation driver.
//!
//! Runs the paper's Vivaldi setup end to end: the synthetic topology,
//! 64-neighbor spring relaxation, Surveyors embedding exclusively among
//! themselves, EM calibration, the detection protocol in front of every
//! honest node, and the colluding-isolation adversary. The secured
//! population itself is [`SecuredSim`]; this backend adds the neighbor
//! sets and the tick.
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

use crate::scenario::{ScenarioConfig, SurveyorPlacement};
use crate::secured::{
    end_round, first_attempt, intake, secured_mut, Backend, Participant, ProbeFate, SecuredSim,
    Tally, PROBE_RETRIES,
};
use ices_attack::defense::witness_votes_against;
use ices_attack::{Adversary, DefenseConfig};
use ices_coord::Embedding;
use ices_core::{vet_single, SecureStep, VetEvent};
use ices_netsim::{EclipsePlan, Network, ProbeBatch, ProbeKey, ProbeRequest};
use ices_stats::kmeans::kmeans;
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use ices_stats::streams;
use ices_vivaldi::{select_neighbors, ClosePeers, VivaldiConfig, VivaldiNode};
use rand::RngExt;
use std::collections::BTreeSet;

/// Above this population size, neighbor selection samples a bounded
/// candidate pool per node instead of scanning all n−1 peers — the full
/// scan is O(n²) at construction, untenable at 50k+. Both paper-scale
/// populations (280, 1740) sit below the cap, so their candidate pools —
/// and every downstream fingerprint — are unchanged.
const NEIGHBOR_CANDIDATE_CAP: usize = 2048;

/// Distinct candidates sampled per node above the cap — comfortably more
/// than the paper's 64-neighbor budget needs for a healthy close/far mix.
const NEIGHBOR_CANDIDATE_SAMPLE: usize = 512;

/// The Vivaldi system simulation.
pub type VivaldiSimulation = SecuredSim<Vivaldi>;

/// The Vivaldi backend of [`SecuredSim`]: neighbor sets, the tick's
/// probe plan, and the opt-in defense and eclipse knobs.
pub struct Vivaldi {
    config: VivaldiConfig,
    neighbors: Vec<Vec<usize>>,
    /// The slot-major probe plan: `links[slot * n + node]` is `node`'s
    /// neighbor in `slot` with its probe key (`None` past the node's
    /// degree), one row per slot. A tick reads one contiguous row
    /// instead of a heap row per node, and its probes skip the O(n²)
    /// base-RTT store and the pair hashes. Kept in step with
    /// `neighbors` by [`VivaldiSimulation::set_neighbor`], the only
    /// neighbor writer after construction.
    links: Vec<Option<Link>>,
    /// The tick's probe plan and batched measurements, in chunks of
    /// [`PROBE_CHUNK`] nodes; refilled in place every tick.
    probe_chunks: Vec<ProbeChunk>,
    /// Opt-in cross-verification defense; [`DefenseConfig::off`] (the
    /// paper's system) by default.
    defense: DefenseConfig,
    /// Registrar-poisoning plan; the empty plan steers nothing and
    /// keeps every draw bit-identical to an un-eclipsed run.
    eclipse: EclipsePlan,
    /// Monotone nonce for eclipse-steered replacement draws.
    replacement_draws: u64,
}

impl Vivaldi {
    /// Neighbor slots per pass: the size of the largest neighbor set.
    fn max_degree(&self) -> usize {
        self.neighbors.iter().map(Vec::len).max().unwrap_or(0)
    }
}

impl Backend for Vivaldi {
    type Node = VivaldiNode;
    const JOIN_STREAM: u64 = streams::JOIN;
    const JOURNAL_NAME: &'static str = "vivaldi";

    fn surveyor_referrals(&self, node: usize, offered: usize) -> usize {
        self.eclipse.surveyor_referrals(node, offered)
    }

    fn placeholder(&self, node: usize) -> VivaldiNode {
        VivaldiNode::new(node, self.config, 0)
    }

    fn reset(node: &mut VivaldiNode) {
        node.reset();
    }
}

/// What one node's embedding step asks the driver to apply globally.
/// Collected from the parallel update phase and merged in node order.
#[derive(Default)]
struct StepEffect {
    /// Measured relative error to append to the node's trace.
    recorded: Option<f64>,
    /// `(label_malicious, flagged)` for the detection confusion matrix.
    vetted: Option<(bool, bool)>,
    /// The detection test rejected this peer; replace it.
    rejected_peer: Option<usize>,
    /// The probe completed: clear the peer's consecutive-failure count.
    probe_ok_peer: Option<usize>,
    /// The probe failed after all retries: `(peer, terminal fate)`.
    failed_probe: Option<(usize, ProbeFate)>,
    /// Fault and adversary counts.
    tally: Tally,
    /// Cross-verification witness probes this step issued.
    cross_checks: u64,
    /// The defense rejected the sample before the innovation test.
    defense_rejected: bool,
    /// Detector work a secured node deferred to the merge-phase
    /// [`ices_core::DetectorBank`] sweep, `(event, label_malicious)`:
    /// the innovation test of a sample, or a coast (`VetEvent::Missing`,
    /// label unused) over a missing sample or a defense rejection. The
    /// sweep runs each node's events in their order, with the exact
    /// per-node f64 ops of the scalar `Detector`.
    pending: Option<(VetEvent, bool)>,
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
                    // On a clean network the first attempt always gets
                    // through.
                    let first = match faulty {
                        true => first_attempt(network, &key, peer, up, |a| nonces.nonce(node, a)),
                        false => Ok(0),
                    };
                    match first {
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
        let (network, latent) = config.topology.network(seed);
        let n = network.len();
        let mut rng = SimRng::from_stream(seed, streams::VIVD, 0); // "VIVD"

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
        // The latent positions serve placement only.
        drop(latent);
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

        let nodes = (0..n)
            .map(|id| VivaldiNode::new(id, vivaldi, seed))
            .collect();
        let backend = Vivaldi {
            config: vivaldi,
            neighbors,
            links,
            probe_chunks: Vec::new(),
            defense: DefenseConfig::off(),
            eclipse: EclipsePlan::none(),
            replacement_draws: 0,
        };
        Self::assemble(config, network, surveyors, malicious, rng, nodes, backend)
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
        self.backend.defense = defense;
    }

    /// Apply a registrar-poisoning plan: victims' current neighbor sets
    /// are re-steered toward attacker nodes immediately, and future
    /// replacement draws are steered with the plan's strength. Surveyor
    /// victims are ignored — their §3.3 isolation invariant (Surveyors
    /// embed only among themselves) outranks the poisoning model — and
    /// so is every victim of a surveyor-only scenario, whose §6 promise
    /// `replace_neighbor` keeps the same way. The empty plan is a
    /// bit-identical no-op.
    pub fn set_eclipse(&mut self, plan: EclipsePlan) {
        for node in 0..self.len() {
            if self.surveyors.contains(&node)
                || self.config.embed_against_surveyors_only
                || !plan.is_victim(node)
            {
                continue;
            }
            let mut poisoned = self.backend.neighbors[node].clone();
            plan.poison_neighbors(node, &mut poisoned);
            for (slot, peer) in poisoned.into_iter().enumerate() {
                if peer != self.backend.neighbors[node][slot] {
                    self.set_neighbor(node, slot, peer);
                }
            }
        }
        self.backend.eclipse = plan;
    }

    /// A node's current neighbor set.
    pub fn neighbors_of(&self, node: usize) -> &[usize] {
        &self.backend.neighbors[node]
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
        let tick = self.open_tick();
        self.take_snapshot();

        let network = &self.network;
        let nonces = TickNonces::new(tick);
        let snapshot = &self.snapshot;
        let faulty = !network.fault_plan().is_empty();
        let up = &self.up;
        let defense = self.backend.defense;
        let population = self.participants.len();

        // Plan, then measure: each chunk settles its nodes' probe
        // outcomes from the up mask and the link-fault gate, then
        // measures every probe that gets through in one batched call.
        // Every outcome is a pure function of (tick, node), so the
        // chunking never shows in the results.
        let row = &self.backend.links[slot * population..(slot + 1) * population];
        #[cfg(debug_assertions)]
        for (node, link) in row.iter().enumerate() {
            let expected = self.backend.neighbors[node].get(slot).map(|&peer| Link {
                peer,
                key: network.probe_key(node, peer),
            });
            debug_assert_eq!(
                *link, expected,
                "probe plan of node {node} slot {slot} is stale"
            );
        }
        self.backend
            .probe_chunks
            .resize_with(population.div_ceil(PROBE_CHUNK), ProbeChunk::default);
        ices_par::par_map_mut(&mut self.backend.probe_chunks, |c, chunk| {
            let first = c * PROBE_CHUNK;
            let last = (first + PROBE_CHUNK).min(population);
            chunk.plan_and_measure(network, &row[first..last], first, faulty, up, &nonces);
        });

        let chunks = &self.backend.probe_chunks;
        let effects = ices_par::par_map_mut(&mut self.participants, |node, participant| {
            let chunk = &chunks[node / PROBE_CHUNK];
            let mut effect = StepEffect::default();
            let (peer, rtt) = match chunk.plans[node % PROBE_CHUNK] {
                PlannedProbe::Idle => return effect,
                PlannedProbe::SelfDown => {
                    // Crashed for this epoch: the node does nothing and
                    // rejoins warm (coordinate intact) when the epoch turns.
                    effect.tally.down = true;
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
                        effect.pending = Some((VetEvent::Missing, false));
                        effect.tally.coasted = 1;
                    }
                    return effect;
                }
                PlannedProbe::Measured {
                    peer,
                    request,
                    retried,
                } => {
                    if faulty {
                        effect.tally.retried = u32::from(retried);
                        effect.probe_ok_peer = Some(peer);
                    }
                    (peer, chunk.rtts[request])
                }
            };
            let seen = intake(adversary, snapshot, tick, node, participant, peer, rtt);
            let (sample, label_malicious) = (seen.sample, seen.lied);
            effect.tally.lies = u32::from(seen.lied);
            effect.tally.clamped = u32::from(seen.clamped);

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
                        effect.pending = Some((VetEvent::Missing, false));
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
                    effect.pending = Some((VetEvent::Sample(sample), label_malicious));
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
                if let Some((event, label)) = effect.pending.take() {
                    vet_nodes.push(node);
                    events.push(event);
                    labels.push(label);
                }
            }
            if !vet_nodes.is_empty() {
                let mut secured = secured_mut(&mut self.participants, &vet_nodes);
                vet_single(&mut self.bank, &mut secured, &events, |k, step| {
                    let effect = &mut effects[vet_nodes[k]];
                    effect.vetted = Some((labels[k], !step.accepted()));
                    match &step {
                        SecureStep::Accepted { outcome, .. } => {
                            effect.recorded = Some(outcome.relative_error);
                        }
                        SecureStep::Reprieved { .. } => {
                            effect.tally.reprieves = 1;
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

        for (node, effect) in effects.into_iter().enumerate() {
            if effect.vetted.is_some() || effect.recorded.is_some() {
                // A measurement arrived (vetted or plain) — the probe
                // completed, whatever the detector then decided.
                self.obs.probes_ok(1);
            }
            if let Some((label_malicious, flagged)) = effect.vetted {
                self.obs.record_confusion(label_malicious, flagged);
            }
            if let Some(d) = effect.recorded {
                self.record(node, d, collect_traces);
            }
            self.count(&effect.tally);
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
            if let Some(peer) = effect.probe_ok_peer {
                self.probe_succeeded(node, peer);
            }
            if let Some((peer, fate)) = effect.failed_probe {
                if self.probe_failed(node, peer, fate) {
                    self.replace_neighbor(node, peer);
                }
            }
        }
        self.close_tick(tick, adversary);
    }

    /// Put `peer` in `node`'s neighbor `slot`, with its probe key
    /// beside it. Every neighbor change (replacement, dead-peer
    /// eviction, eclipse poisoning) goes through here.
    fn set_neighbor(&mut self, node: usize, slot: usize, peer: usize) {
        self.backend.neighbors[node][slot] = peer;
        let key = self.network.probe_key(node, peer);
        let n = self.len();
        self.backend.links[slot * n + node] = Some(Link { peer, key });
    }

    /// Put `new` in the slot `old` holds in `node`'s neighbor set.
    fn swap_neighbor(&mut self, node: usize, old: usize, new: usize) {
        if let Some(slot) = self.backend.neighbors[node].iter().position(|&p| p == old) {
            self.set_neighbor(node, slot, new);
        }
    }

    /// Swap `old` — a rejected or dead peer — out of `node`'s neighbor
    /// set. Surveyors, and every node of a surveyor-only scenario, draw
    /// from the Surveyors not yet in the set: the §3.3 isolation
    /// invariant and the §6 variant's promise both hold through any
    /// number of replacements. Everyone else draws a fresh random node
    /// (not self, not already a neighbor). `old` stays when no
    /// candidate turns up.
    fn replace_neighbor(&mut self, node: usize, old: usize) {
        let neighbors = &self.backend.neighbors[node];
        if self.surveyors.contains(&node) || self.config.embed_against_surveyors_only {
            let pool: Vec<usize> = self
                .surveyors
                .iter()
                .copied()
                .filter(|&s| s != node && !neighbors.contains(&s))
                .collect();
            if !pool.is_empty() {
                let candidate = pool[self.rng.random_range(0..pool.len())];
                self.swap_neighbor(node, old, candidate);
            }
            return;
        }
        let n = self.len();
        // Registrar poisoning: an eclipsed victim's replacement draw is
        // steered toward an attacker with the plan's strength. A
        // steered pick already in the set falls back to an honest draw
        // rather than duplicating a neighbor.
        if self.backend.eclipse.is_victim(node) {
            self.backend.replacement_draws += 1;
            let draw = self.backend.replacement_draws;
            if let Some(candidate) = self.backend.eclipse.steer_replacement(node, draw) {
                if candidate != node && !self.backend.neighbors[node].contains(&candidate) {
                    self.swap_neighbor(node, old, candidate);
                    return;
                }
            }
        }
        for _ in 0..32 {
            let candidate = self.rng.random_range(0..n);
            if candidate != node && !self.backend.neighbors[node].contains(&candidate) {
                self.swap_neighbor(node, old, candidate);
                return;
            }
        }
        // Population exhausted (tiny tests): keep the peer.
    }

    /// Run `passes` full embedding passes (each node visits every one of
    /// its neighbors once per pass) with the adversary in the path. Each
    /// neighbor slot is one two-phase [`tick`](Self::tick); the worker
    /// count comes from `ICES_THREADS` / [`ices_par::max_threads`] and
    /// never changes the result.
    pub fn run(&mut self, passes: usize, adversary: &dyn Adversary, collect_traces: bool) {
        let start = self.tick;
        for _pass in 0..passes {
            for slot in 0..self.backend.max_degree() {
                self.tick(slot, adversary, collect_traces);
            }
            // Round boundary: the half-rejected refresh rule, against
            // current Surveyor coordinates.
            self.refresh_registry_coordinates();
            for node in 0..self.len() {
                if let Participant::Secured(s) = &mut self.participants[node] {
                    let end = end_round(s, &self.registry, &self.network, self.tick);
                    self.count_round_end(node, end);
                }
            }
        }
        self.obs.phase("run", self.tick - start);
    }

    /// Run clean (attack-free) passes, collecting traces.
    pub fn run_clean(&mut self, passes: usize) {
        self.run(passes, &ices_attack::HonestWorld, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_attack::VivaldiIsolationAttack;
    use ices_core::EmConfig;
    use ices_netsim::FaultPlan;

    /// The shared tests' 50-node King scenario.
    fn scenario(seed: u64) -> ScenarioConfig {
        crate::secured::tests::scenario(seed, 50)
    }

    #[test]
    fn surveyors_only_neighbor_each_other() {
        let sim = VivaldiSimulation::new(scenario(2));
        for &s in sim.surveyors() {
            for &p in &sim.backend.neighbors[s] {
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
    fn lossy_network_still_converges_and_counts_faults() {
        let mut sim = VivaldiSimulation::new(scenario(13));
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        sim.run_clean(8);
        let faults = &sim.report().faults;
        assert!(
            faults.retried_probes > 0,
            "retries should fire at 15% failure"
        );
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
        let max_degree = sim.backend.max_degree();
        assert_eq!(
            sim.backend.links.len(),
            max_degree * n,
            "{when}: one row per slot"
        );
        for node in 0..n {
            for slot in 0..max_degree {
                let expected = sim.backend.neighbors[node].get(slot).map(|&peer| Link {
                    peer,
                    key: sim.network.probe_key(node, peer),
                });
                assert_eq!(
                    sim.backend.links[slot * n + node],
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
        let before: Vec<Vec<usize>> = sim.backend.neighbors.clone();
        let victims: Vec<usize> = sim.normal_nodes().into_iter().take(10).collect();
        let attackers: Vec<usize> = sim.malicious().iter().copied().collect();
        sim.set_eclipse(EclipsePlan::new(victims, attackers, 0.5, 16));
        assert_ne!(
            before, sim.backend.neighbors,
            "poisoning should rewrite slots"
        );
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
        let links = sim.backend.links.clone();
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        assert_eq!(links, sim.backend.links);
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
    fn kmeans_placement_produces_surveyors() {
        let mut cfg = scenario(11);
        cfg.surveyors = SurveyorPlacement::KMeansHeads { fraction: 0.1 };
        let sim = VivaldiSimulation::new(cfg);
        assert_eq!(sim.surveyors().len(), 5);
    }
}
