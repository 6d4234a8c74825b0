//! The colluding reference-point attack on NPS (§5.3 of the paper).
//!
//! The conspirators cooperate and **behave honestly** until enough of
//! them (the paper: 5) have been promoted to reference points in a
//! layer. Once a layer is activated they pick a common set of victims —
//! 50% of the normal nodes they know from the layer directly below —
//! and work together to push each victim toward a remote location,
//! isolating it from the rest of the coordinate space.
//!
//! ## The drag mechanism
//!
//! A naive version of the attack — pretend to be clustered far away and
//! report delay-padded RTTs consistent with the remote location — turns
//! out to be *provably weak* against NPS's positioning: the downhill
//! simplex minimizes squared **relative** errors, and a remote lie has a
//! huge RTT in its denominator, so a colluding minority exerts an order
//! of magnitude less pull than the honest majority's resistance (we
//! verified this gradient argument experimentally; see DESIGN.md).
//!
//! The strong variant implemented here is the incremental drag of
//! reference \[11\]: each conspirator serving victim `v` claims a fake
//! coordinate placed `(1 + drag) × rtt` away from the victim's current
//! position along a per-victim direction the colluders agree on, while
//! reporting the *genuine* measured RTT. Every such sample demands that
//! the victim sit `drag × rtt` further along the push direction, and —
//! because the claimed RTT is small — its pull on the relative-error
//! objective is strong enough for a colluding minority to dominate.
//! Step by step, round by round, the victim is walked out of its true
//! region.
//!
//! Against NPS's built-in filter the colluders are protected by
//! uniformity: their samples all have (approximately) the same fit
//! error, and the primitive filter eliminates only the single worst
//! sample per round — the conspiracy loses at most one voice per round
//! and keeps dragging. Against the paper's Kalman innovation test,
//! however, every drag sample shows a relative error of `≈ drag` where
//! the victim's history predicts `≈ 0.1`, which is exactly the
//! deviation the test exists to flag.

use crate::adversary::{Adversary, TamperedSample};
use crate::node_set::NodeSet;
use ices_coord::Coordinate;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of malicious reference points a layer needs before the attack
/// activates there (the paper's experiments use 5).
pub const DEFAULT_ACTIVATION_THRESHOLD: usize = 5;

/// The colluding NPS reference-point attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NpsCollusionAttack {
    /// Nodes under adversary control.
    malicious: NodeSet,
    /// Layers in which the attack is active (≥ threshold malicious RPs).
    active_layers: NodeSet,
    /// Layer of each malicious reference point (as promoted by NPS).
    rp_layer: BTreeMap<usize, usize>,
    /// The common victim set, chosen at activation.
    victims: NodeSet,
    /// Minimum malicious RPs in a layer before activating.
    activation_threshold: usize,
    /// Fraction of known lower-layer normal nodes targeted.
    victim_fraction: f64,
    /// Dimensionality of the coordinate space under attack.
    dims: usize,
    /// Drag strength: each malicious sample demands the victim move
    /// `drag × rtt` along the push direction.
    drag: f64,
    /// Confidence the attackers claim.
    claimed_error: f64,
    /// Seed the per-victim push directions are derived from. Directions
    /// are re-derived on every call (no cache), so `intercept` can stay
    /// `&self` and be consulted from concurrent simulation workers.
    seed: u64,
}

impl NpsCollusionAttack {
    /// Set up the conspiracy in an NPS space of dimensionality `dims`
    /// with the given drag strength (the evaluation uses 3.0: each
    /// accepted malicious sample demands a displacement of three RTTs).
    ///
    /// # Panics
    /// Panics on a non-positive drag or a victim fraction outside
    /// `(0, 1]`.
    pub fn new(
        malicious: impl IntoIterator<Item = usize>,
        dims: usize,
        drag: f64,
        victim_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(dims > 0, "need at least one dimension");
        assert!(drag > 0.0, "drag must be positive");
        assert!(
            victim_fraction > 0.0 && victim_fraction <= 1.0,
            "victim fraction must be in (0, 1]"
        );
        Self {
            malicious: malicious.into_iter().collect(),
            active_layers: NodeSet::new(),
            rp_layer: BTreeMap::new(),
            victims: NodeSet::new(),
            activation_threshold: DEFAULT_ACTIVATION_THRESHOLD,
            victim_fraction,
            dims,
            drag,
            claimed_error: 0.01,
            seed,
        }
    }

    /// Ids under adversary control.
    pub fn malicious_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.malicious.iter()
    }

    /// Inform the conspiracy of the current hierarchy: which nodes serve
    /// which layer, and which normal nodes populate each layer.
    ///
    /// `serving` maps a serving node (landmark or reference point) to the
    /// layer it serves *from* (its own layer); `layer_members` maps each
    /// layer to its (normal) member nodes. The conspiracy activates in
    /// every layer where it controls at least the threshold of serving
    /// nodes, and commits to a victim set — `victim_fraction` of the
    /// normal nodes in the layer directly below each activated layer.
    pub fn observe_hierarchy(
        &mut self,
        serving: &BTreeMap<usize, usize>,
        layer_members: &BTreeMap<usize, Vec<usize>>,
    ) {
        // Count malicious serving nodes per layer.
        let mut per_layer: BTreeMap<usize, usize> = BTreeMap::new();
        self.rp_layer.clear();
        for (&node, &layer) in serving {
            if self.malicious.contains(node) {
                *per_layer.entry(layer).or_insert(0) += 1;
                self.rp_layer.insert(node, layer);
            }
        }
        for (&layer, &count) in &per_layer {
            if count >= self.activation_threshold && self.active_layers.insert(layer) {
                // Newly activated: commit to victims from the layer below.
                if let Some(below) = layer_members.get(&(layer + 1)) {
                    let candidates: Vec<usize> = below
                        .iter()
                        .copied()
                        .filter(|&v| !self.malicious.contains(v))
                        .collect();
                    let take = ((candidates.len() as f64) * self.victim_fraction).round() as usize;
                    let mut rng = SimRng::from_stream(self.seed, layer as u64, streams::NPSV); // "VICT"
                    let chosen = ices_stats::sample::sample_indices(
                        &mut rng,
                        candidates.len(),
                        take.min(candidates.len()),
                    );
                    for idx in chosen {
                        self.victims.insert(candidates[idx]);
                    }
                }
            }
        }
    }

    /// Layers in which the conspiracy is live.
    pub fn active_layers(&self) -> impl Iterator<Item = usize> + '_ {
        self.active_layers.iter()
    }

    /// The committed victim set.
    pub fn victims(&self) -> impl Iterator<Item = usize> + '_ {
        self.victims.iter()
    }

    /// Whether the attack is live anywhere.
    pub fn is_active(&self) -> bool {
        !self.active_layers.is_empty()
    }

    /// The agreed unit push direction for a victim — derived
    /// deterministically from the seed and shared by every conspirator.
    fn push_direction(&self, victim: usize) -> Vec<f64> {
        let mut rng = SimRng::from_stream(self.seed, victim as u64, streams::PSHD); // "PSHD"
        loop {
            let v: Vec<f64> = (0..self.dims)
                .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                .collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                break v.into_iter().map(|x| x / norm).collect::<Vec<f64>>();
            }
        }
    }
}

impl Adversary for NpsCollusionAttack {
    fn is_malicious(&self, node: usize) -> bool {
        self.malicious.contains(node)
    }

    fn intercept(
        &self,
        peer: usize,
        victim: usize,
        _tick: u64,
        _true_coord: &Coordinate,
        _true_error: f64,
        measured_rtt: f64,
        victim_coord: &Coordinate,
    ) -> Option<TamperedSample> {
        if !self.malicious.contains(peer) {
            return None;
        }
        // Honest until activated, and only against the committed victims
        // served from an activated layer.
        let layer = *self.rp_layer.get(&peer)?;
        if !self.active_layers.contains(layer) || !self.victims.contains(victim) {
            return None;
        }
        // The drag lie: claim to sit `(1 + drag)·rtt` from the victim's
        // current position along the agreed direction, and report the
        // genuine RTT. Satisfying this sample requires the victim to move
        // `drag·rtt` along the push direction.
        let u = self.push_direction(victim);
        let standoff = (1.0 + self.drag) * measured_rtt;
        let position: Vec<f64> = victim_coord
            .position()
            .iter()
            .zip(&u)
            .map(|(&x, &ui)| x + standoff * ui)
            .collect();
        Some(TamperedSample {
            coord: Coordinate::euclidean(position),
            error: self.claimed_error,
            rtt_ms: measured_rtt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;

    fn conspiracy(members: &[usize]) -> NpsCollusionAttack {
        NpsCollusionAttack::new(members.iter().copied(), 8, 3.0, 0.5, 3)
    }

    fn serving_map(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    fn members_map(layer: usize, members: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut m = BTreeMap::new();
        m.insert(layer, members.to_vec());
        m
    }

    fn activated() -> NpsCollusionAttack {
        let mut a = conspiracy(&[1, 2, 3, 4, 5]);
        a.observe_hierarchy(
            &serving_map(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
            &members_map(2, &[10, 11, 12, 13, 14, 15, 16, 17]),
        );
        a
    }

    #[test]
    fn dormant_until_threshold_reached() {
        let mut a = conspiracy(&[1, 2, 3, 4, 5, 6]);
        // Only 4 conspirators are RPs at layer 1 — below the threshold.
        a.observe_hierarchy(
            &serving_map(&[(1, 1), (2, 1), (3, 1), (4, 1), (100, 1)]),
            &members_map(2, &[10, 11, 12, 13]),
        );
        assert!(!a.is_active());
        let c = Coordinate::origin(Space::euclidean(8));
        assert!(
            a.intercept(1, 10, 0, &c, 0.5, 40.0, &c).is_none(),
            "conspirators behave honestly before activation"
        );
    }

    #[test]
    fn activates_at_threshold_and_commits_victims() {
        let a = activated();
        assert!(a.is_active());
        let victims: Vec<usize> = a.victims().collect();
        assert_eq!(victims.len(), 4, "50% of the 8 normal nodes below");
        assert!(victims.iter().all(|v| !a.is_malicious(*v)));
    }

    #[test]
    fn only_victims_are_attacked() {
        let a = activated();
        let victims: std::collections::BTreeSet<usize> = a.victims().collect();
        let c = Coordinate::origin(Space::euclidean(8));
        for node in [10, 11, 12, 13, 14, 15, 16, 17] {
            let hit = a.intercept(1, node, 0, &c, 0.5, 40.0, &c).is_some();
            assert_eq!(hit, victims.contains(&node), "node {node}");
        }
    }

    #[test]
    fn drag_lie_demands_a_drag_rtt_displacement() {
        let a = activated();
        let victim = a.victims().next().expect("victims");
        let vc = Coordinate::origin(Space::euclidean(8));
        let rtt = 80.0;
        let t = a
            .intercept(1, victim, 0, &vc, 0.5, rtt, &vc)
            .expect("tampered");
        // Claimed standoff: (1 + drag)·rtt from the victim.
        let d = vc.distance(&t.coord);
        assert!(
            (d - 4.0 * rtt).abs() < 1e-9,
            "standoff {d} should be (1+3)·rtt"
        );
        // The victim's measured relative error against this sample is
        // exactly the drag factor — the signature the Kalman test flags.
        let rel = (d - t.rtt_ms).abs() / t.rtt_ms;
        assert!((rel - 3.0).abs() < 1e-9, "relative error {rel}");
        // The RTT itself is untouched (no probe tampering needed).
        assert_eq!(t.rtt_ms, rtt);
    }

    #[test]
    fn colluders_share_the_push_direction() {
        let a = activated();
        let victim = a.victims().next().expect("victims");
        let vc = Coordinate::origin(Space::euclidean(8));
        let t1 = a
            .intercept(1, victim, 0, &vc, 0.5, 50.0, &vc)
            .expect("tampered");
        let t2 = a
            .intercept(2, victim, 0, &vc, 0.5, 100.0, &vc)
            .expect("tampered");
        // Same direction, different standoffs: t2's position must be
        // exactly 2× t1's (both start from the origin).
        for (x1, x2) in t1.coord.position().iter().zip(t2.coord.position()) {
            assert!(
                (x2 - 2.0 * x1).abs() < 1e-9,
                "colluders disagree on direction"
            );
        }
    }

    #[test]
    fn different_victims_get_different_directions() {
        let a = activated();
        let victims: Vec<usize> = a.victims().collect();
        let u1 = a.push_direction(victims[0]);
        let u2 = a.push_direction(victims[1]);
        assert_ne!(u1, u2);
        for u in [&u1, &u2] {
            let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(
                (norm - 1.0).abs() < 1e-9,
                "push directions are unit vectors"
            );
        }
    }

    #[test]
    fn drag_tracks_the_victims_current_position() {
        // As the victim moves, the lie moves with it — the staircase that
        // walks the victim out of its region.
        let a = activated();
        let victim = a.victims().next().expect("victims");
        let at_origin = Coordinate::origin(Space::euclidean(8));
        let moved = Coordinate::euclidean(vec![100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let t1 = a
            .intercept(1, victim, 0, &at_origin, 0.5, 50.0, &at_origin)
            .expect("t");
        let t2 = a
            .intercept(1, victim, 0, &at_origin, 0.5, 50.0, &moved)
            .expect("t");
        assert_ne!(t1.coord, t2.coord, "the lie follows the victim");
        assert!((moved.distance(&t2.coord) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn honest_peers_and_nonvictims_pass_through() {
        let a = activated();
        let c = Coordinate::origin(Space::euclidean(8));
        assert!(a.intercept(99, 10, 0, &c, 0.5, 40.0, &c).is_none());
        // A conspirator that is not a serving RP stays honest.
        let mut b = conspiracy(&[1, 2, 3, 4, 5, 6]);
        b.observe_hierarchy(
            &serving_map(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
            &members_map(2, &[10, 11]),
        );
        assert!(b.intercept(6, 10, 0, &c, 0.5, 40.0, &c).is_none());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = activated();
        let b = activated();
        let victim = a.victims().next().expect("victims");
        let c = Coordinate::origin(Space::euclidean(8));
        let ta = a.intercept(3, victim, 0, &c, 0.5, 70.0, &c).expect("t");
        let tb = b.intercept(3, victim, 0, &c, 0.5, 70.0, &c).expect("t");
        assert_eq!(ta, tb);
    }
}
