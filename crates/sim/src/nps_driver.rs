//! Full-system NPS simulation driver.
//!
//! Runs the paper's NPS setup: the 4-layer hierarchy with 20 permanent
//! landmarks, per-round downhill-simplex positioning against reference
//! points, NPS's built-in sensitivity-4 filter, Surveyors (all landmarks
//! plus promoted reference points) embedding against trusted nodes only,
//! and the colluding reference-point adversary. The secured population
//! itself is [`SecuredSim`]; this backend adds the hierarchy, the
//! reference-point sets and the round.
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

use crate::scenario::ScenarioConfig;
use crate::secured::{
    end_round, first_attempt, intake, secured_mut, Backend, Participant, RoundEnd, SecuredSim,
    Tally,
};
use ices_attack::Adversary;
use ices_coord::Embedding;
use ices_core::{vet_sequences, SecureStep, VetEvent};
use ices_netsim::{ProbeFate, ProbeKey};
use ices_nps::{Hierarchy, NpsConfig, NpsNode, Role};
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use ices_stats::streams;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

/// The NPS system simulation.
pub type NpsSimulation = SecuredSim<Nps>;

/// The NPS backend of [`SecuredSim`]: the positioning hierarchy and
/// every node's reference-point set.
pub struct Nps {
    config: NpsConfig,
    hierarchy: Hierarchy,
    /// Effective per-node reference-point sets (Surveyors' sets are
    /// restricted to trusted nodes).
    reference_points: Vec<Vec<usize>>,
    /// The probe key of each reference point, slot for slot beside
    /// `reference_points`. Kept in step by
    /// [`NpsSimulation::set_reference_point`], the only RP writer after
    /// construction.
    rp_keys: Vec<Vec<ProbeKey>>,
}

impl Backend for Nps {
    type Node = NpsNode;
    const JOIN_STREAM: u64 = streams::NPSJ;
    const JOURNAL_NAME: &'static str = "nps";

    fn placeholder(&self, node: usize) -> NpsNode {
        NpsNode::new(node, self.config, 0)
    }

    fn reset(node: &mut NpsNode) {
        node.reset();
    }
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
    /// Reference points the detection test rejected; replace each.
    rejected_rps: Vec<usize>,
    /// How a secured node's round boundary ended.
    round_end: RoundEnd,
    /// Reference points whose probe completed: clear failure counts.
    ok_rps: Vec<usize>,
    /// Reference points whose probe failed after all retries.
    failed_rps: Vec<(usize, ProbeFate)>,
    /// Fault and adversary counts.
    tally: Tally,
    /// Detector events a secured node deferred to the merge-phase
    /// batched sweep, in probe order: `(event, label_malicious)`, with
    /// `VetEvent::Missing` (label unused) holding a coast's position so
    /// the per-node op order matches the scalar interleaving exactly.
    pending: Vec<(VetEvent, bool)>,
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
    /// Panics on invalid configuration, a population too small for the
    /// hierarchy, or a Surveyor fraction the hierarchy cannot staff:
    /// Surveyors are the landmarks plus promoted reference points, so
    /// the configured count may not exceed their sum.
    pub fn with_nps_config(config: ScenarioConfig, nps: NpsConfig) -> Self {
        config.validate();
        nps.validate();
        let seed = config.seed;
        let (network, _) = config.topology.network(seed);
        let n = network.len();
        let hierarchy = Hierarchy::build(n, &nps, seed);
        let mut rng = SimRng::from_stream(seed, streams::NPSD, 0); // "NPSD"

        // Surveyors: every landmark, plus promoted reference points until
        // the configured fraction is met.
        let mut surveyors: BTreeSet<usize> = hierarchy.landmarks().into_iter().collect();
        let want = ((n as f64) * config.surveyors.fraction()).round() as usize;
        let rp_pool: Vec<usize> = (0..n)
            .filter(|&i| hierarchy.role[i] == Role::ReferencePoint)
            .collect();
        assert!(
            want <= surveyors.len() + rp_pool.len(),
            "{want} Surveyors configured, but the hierarchy has only {} landmarks \
             and reference points",
            surveyors.len() + rp_pool.len()
        );
        if want > surveyors.len() {
            let extra = want - surveyors.len();
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

        // Effective RP sets: Surveyors — and in the §6 variant every
        // normal node too (a GNP/NPS hybrid, trading accuracy for
        // immunity) — position against trusted nodes only: Surveyors of
        // the layer above, topped up with landmarks when short
        // (landmarks are the root of trust and keep their own sets).
        let landmarks = hierarchy.landmarks();
        let mut reference_points = hierarchy.reference_points.clone();
        for (node, rps) in reference_points.iter_mut().enumerate() {
            let trusted_only = surveyors.contains(&node) || config.embed_against_surveyors_only;
            if !trusted_only || hierarchy.role[node] == Role::Landmark {
                continue;
            }
            let layer = hierarchy.layer[node];
            let mut trusted: Vec<usize> = (0..n)
                .filter(|&i| surveyors.contains(&i) && i != node && hierarchy.layer[i] + 1 == layer)
                .collect();
            if trusted.len() < nps.min_rps {
                for &l in &landmarks {
                    if l != node && !trusted.contains(&l) {
                        trusted.push(l);
                    }
                }
            }
            trusted.truncate(nps.rps_per_node);
            *rps = trusted;
        }

        let rp_keys = reference_points
            .iter()
            .enumerate()
            .map(|(node, rps)| rps.iter().map(|&rp| network.probe_key(node, rp)).collect())
            .collect();
        let nodes = (0..n).map(|id| NpsNode::new(id, nps, seed)).collect();
        let backend = Nps {
            config: nps,
            hierarchy,
            reference_points,
            rp_keys,
        };
        Self::assemble(config, network, surveyors, malicious, rng, nodes, backend)
    }

    /// The positioning hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.backend.hierarchy
    }

    /// A node's current effective reference-point set.
    pub fn reference_points_of(&self, node: usize) -> &[usize] {
        &self.backend.reference_points[node]
    }

    /// The serving map the adversary observes: each landmark/reference
    /// point mapped to its own layer.
    pub fn serving_map(&self) -> BTreeMap<usize, usize> {
        let hierarchy = &self.backend.hierarchy;
        (0..self.len())
            .filter(|&i| matches!(hierarchy.role[i], Role::Landmark | Role::ReferencePoint))
            .map(|i| (i, hierarchy.layer[i]))
            .collect()
    }

    /// Layer membership of non-serving (normal) nodes, as the adversary
    /// observes it.
    pub fn layer_members(&self) -> BTreeMap<usize, Vec<usize>> {
        let hierarchy = &self.backend.hierarchy;
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            if hierarchy.role[i] == Role::Regular {
                m.entry(hierarchy.layer[i]).or_default().push(i);
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
        self.take_snapshot();

        let network = &self.network;
        let reference_points = &self.backend.reference_points;
        let rp_keys = &self.backend.rp_keys;
        let registry = &self.registry;
        let snapshot = &self.snapshot;
        let faulty = !network.fault_plan().is_empty();
        let up = &self.up;
        let effects =
            ices_par::par_for_indices(&mut self.participants, members, |node, participant| {
                let mut effect = RoundEffect::default();
                if faulty && !up[node] {
                    // Crashed for this epoch: the node skips its round and
                    // rejoins warm (coordinate intact) when the epoch turns.
                    effect.tally.down = true;
                    return effect;
                }
                for (k, &rp) in reference_points[node].iter().enumerate() {
                    let key = &rp_keys[node][k];
                    let rtt = if !faulty {
                        network.smoothed(node, rp, key, probe_nonce(round, node, k))
                    } else {
                        let nonce = |attempt| retry_nonce(round, node, k, attempt);
                        match first_attempt(network, key, rp, up, nonce) {
                            Ok(attempt) => {
                                effect.tally.retried += u32::from(attempt > 0);
                                effect.ok_rps.push(rp);
                                network.smoothed(node, rp, key, nonce(attempt))
                            }
                            Err(fate) => {
                                effect.failed_rps.push((rp, fate));
                                // Missing sample: a secured node's detector
                                // coasts so its innovation statistics widen
                                // honestly; positioning just sees one fewer
                                // reference point this round. The coast runs
                                // in the merge-phase batched sweep, holding
                                // its probe-order position.
                                if let Participant::Secured(_) = participant {
                                    effect.pending.push((VetEvent::Missing, false));
                                    effect.tally.coasted += 1;
                                }
                                continue;
                            }
                        }
                    };
                    // The node's own coordinate is read live: positioning
                    // only buffers samples until the finish pass, so it
                    // still equals its snapshot bit for bit.
                    let seen = intake(adversary, snapshot, round, node, participant, rp, rtt);
                    effect.tally.lies += u32::from(seen.lied);
                    effect.tally.clamped += u32::from(seen.clamped);
                    match participant {
                        Participant::Plain(n) => {
                            let out = n.apply_step(&seen.sample);
                            effect.recorded.push(out.relative_error);
                        }
                        Participant::Secured(_) => {
                            // Defer the innovation test (and the buffer-on-
                            // accept) to the merge phase: the whole layer's
                            // samples are classified in one DetectorBank
                            // sweep, column by column, which replays this
                            // node's probe-order op sequence exactly.
                            effect
                                .pending
                                .push((VetEvent::Sample(seen.sample), seen.lied));
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
                let (events, labels): (Vec<VetEvent>, Vec<bool>) = effect.pending.drain(..).unzip();
                vet_nodes.push(node);
                vet_slots.push(slot);
                node_events.push(events);
                node_labels.push(labels);
            }
            if !vet_nodes.is_empty() {
                let mut secured = secured_mut(&mut self.participants, &vet_nodes);
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
                            effect.tally.reprieves += 1;
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
        let running: Vec<usize> = members
            .iter()
            .zip(&effects)
            .filter(|(_, effect)| !effect.tally.down)
            .map(|(&node, _)| node)
            .collect();
        let mut nodes: Vec<&mut NpsNode> =
            ices_par::select_disjoint_mut(&mut self.participants, &running)
                .into_iter()
                .map(Participant::embedding_mut)
                .collect();
        ices_par::par_chunks_mut(&mut nodes, |_, batch| {
            NpsNode::finish_rounds(batch);
        });

        // Deferred round boundary for secured members, now repositioned:
        // settle the detector round, and refresh starved filters.
        let ends = ices_par::par_for_indices(&mut self.participants, &running, |_, participant| {
            match participant {
                Participant::Secured(s) => end_round(s, registry, network, round),
                Participant::Plain(_) => RoundEnd::Kept,
            }
        });
        let ran = effects.iter_mut().filter(|effect| !effect.tally.down);
        for (effect, end) in ran.zip(ends) {
            effect.round_end = end;
        }

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
            for d in effect.recorded {
                self.record(node, d, collect);
            }
            for rp in effect.rejected_rps {
                self.replace_reference_point(node, rp);
                self.obs.replacement(node, rp);
            }
            self.count_round_end(node, effect.round_end);
            self.count(&effect.tally);
            // Fault bookkeeping (all branches dead on a clean network).
            for rp in effect.ok_rps {
                self.probe_succeeded(node, rp);
            }
            for (rp, fate) in effect.failed_rps {
                if self.probe_failed(node, rp, fate) {
                    self.replace_reference_point(node, rp);
                }
            }
        }
    }

    /// The nodes `node` may take a fresh reference point from: serving
    /// nodes of the layer above, or — for Surveyors, and for every node
    /// of a surveyor-only scenario — Surveyors of the layer above and
    /// landmarks, so trusted positioning stays trusted through any
    /// number of replacements. Never `node` itself or a current RP.
    fn replacement_pool(&self, node: usize) -> Vec<usize> {
        let hierarchy = &self.backend.hierarchy;
        let above = hierarchy.layer[node].wrapping_sub(1);
        let current = &self.backend.reference_points[node];
        let trusted_only =
            self.surveyors.contains(&node) || self.config.embed_against_surveyors_only;
        (0..self.len())
            .filter(|&i| {
                let eligible = if trusted_only {
                    self.surveyors.contains(&i)
                        && (hierarchy.layer[i] == above || hierarchy.role[i] == Role::Landmark)
                } else {
                    hierarchy.layer[i] == above
                        && matches!(hierarchy.role[i], Role::Landmark | Role::ReferencePoint)
                };
                eligible && !current.contains(&i) && i != node
            })
            .collect()
    }

    /// Swap `old` — a rejected or dead reference point — for a random
    /// member of `node`'s [replacement pool](Self::replacement_pool), or
    /// keep it when the pool is empty.
    fn replace_reference_point(&mut self, node: usize, old: usize) {
        let pool = self.replacement_pool(node);
        if pool.is_empty() {
            return;
        }
        let rp = pool[self.rng.random_range(0..pool.len())];
        if let Some(slot) = self.backend.reference_points[node]
            .iter()
            .position(|&p| p == old)
        {
            self.set_reference_point(node, slot, rp);
        }
    }

    /// Put `rp` in `node`'s reference-point `slot`, with its probe key
    /// beside it.
    fn set_reference_point(&mut self, node: usize, slot: usize, rp: usize) {
        self.backend.reference_points[node][slot] = rp;
        self.backend.rp_keys[node][slot] = self.network.probe_key(node, rp);
    }

    /// Run `rounds` full positioning rounds: landmarks first, then each
    /// layer in order (so reference points are positioned before the
    /// nodes that depend on them). Within a layer, members run as one
    /// two-phase [`layer_round`](Self::layer_round); the worker count
    /// comes from `ICES_THREADS` / [`ices_par::max_threads`] and never
    /// changes the result.
    pub fn run(&mut self, rounds: usize, adversary: &dyn Adversary, collect: bool) {
        // Layer groups, ascending; ids ascending within each layer.
        let layer = &self.backend.hierarchy.layer;
        let max_layer = layer.iter().copied().max().unwrap_or(0);
        let layers: Vec<Vec<usize>> = (0..=max_layer)
            .map(|l| (0..layer.len()).filter(|&i| layer[i] == l).collect())
            .collect();
        let start = self.tick;
        for _ in 0..rounds {
            let round = self.open_tick();
            for members in &layers {
                if !members.is_empty() {
                    self.layer_round(round, members, adversary, collect);
                }
            }
            self.refresh_registry_coordinates();
            self.close_tick(round, adversary);
        }
        self.obs.phase("run", self.tick - start);
    }

    /// Run attack-free rounds, collecting traces.
    pub fn run_clean(&mut self, rounds: usize) {
        self.run(rounds, &ices_attack::HonestWorld, true);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::SurveyorPlacement;
    use crate::scenario::TopologyKind;
    use ices_attack::NpsCollusionAttack;
    use ices_coord::Space;
    use ices_core::EmConfig;
    use ices_netsim::FaultPlan;

    pub(crate) fn small_nps() -> NpsConfig {
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

    /// 80 nodes staff 8 landmarks and 2 × 5 reference points: half the
    /// population as Surveyors is a shortfall, not a silent cap.
    #[test]
    #[should_panic(expected = "40 Surveyors configured, but the hierarchy has only 18")]
    fn refuses_more_surveyors_than_the_hierarchy_staffs() {
        let config = ScenarioConfig {
            surveyors: SurveyorPlacement::Random { fraction: 0.5 },
            ..scenario(1, 80)
        };
        NpsSimulation::with_nps_config(config, small_nps());
    }

    #[test]
    fn surveyor_rps_are_trusted() {
        let sim = build(2);
        for l in sim.hierarchy().landmarks() {
            assert!(sim.surveyors().contains(&l), "landmark {l} is no Surveyor");
        }
        for &s in sim.surveyors() {
            for &rp in &sim.backend.reference_points[s] {
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
                for (slot, &rp) in sim.backend.reference_points[node].iter().enumerate() {
                    assert_eq!(
                        sim.backend.rp_keys[node][slot],
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
    fn lossy_network_still_converges_and_counts_faults() {
        let mut sim = build(9);
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        sim.run_clean(6);
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
            report.median() < 0.35,
            "NPS should still converge under 15% probe failure, median {}",
            report.median()
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
