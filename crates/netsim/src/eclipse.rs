//! Eclipse-biased referral steering (registrar poisoning).
//!
//! An eclipse attack does not start with lies about coordinates — it
//! starts with *who the victim is introduced to*. Real deployments hand
//! a joining node its neighbors and Surveyor referrals through a
//! registrar/rendezvous service; an adversary that poisons those
//! referrals can mediate a victim's entire view of the system before a
//! single measurement is tampered with.
//!
//! [`EclipsePlan`] models exactly that steering, and nothing else: it
//! rewrites a fraction (`strength`) of a victim's neighbor slots toward
//! attacker nodes, steers the victim's *replacement* draws (the fresh
//! peers picked after a rejection or eviction) the same way, and starves
//! the victim's Surveyor candidate referrals. What the attackers then
//! *say* is a separate concern — `ices-attack`'s `EclipseAttack`
//! implements the coordinated coordinate translation; the two compose
//! through the simulation driver.
//!
//! Every draw derives from `(seed, victim, nonce)` streams, so steering
//! is a pure function of the plan — independent of iteration order and
//! worker count. The empty plan ([`EclipsePlan::none`]) touches nothing:
//! every API is a no-op and the simulation is byte-identical to an
//! un-eclipsed run.

use ices_stats::rng::{derive2, SimRng};
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A deterministic registrar-poisoning plan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EclipsePlan {
    /// Nodes whose referrals the adversary mediates.
    victims: BTreeSet<usize>,
    /// Attacker nodes referrals are steered toward, sorted for indexed
    /// draws.
    attackers: Vec<usize>,
    /// Fraction of a victim's referrals steered to attackers, in
    /// `[0, 1]`. `1.0` is a total eclipse.
    strength: f64,
    /// Seed every steering draw derives from.
    seed: u64,
}

impl EclipsePlan {
    /// The empty plan: no steering, bit-identical to no plan at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Steer `strength` of each victim's referrals toward `attackers`.
    ///
    /// # Panics
    /// Panics when `strength` is outside `[0, 1]`, or when a non-trivial
    /// plan has no attackers, or when a victim is also an attacker.
    pub fn new(
        victims: impl IntoIterator<Item = usize>,
        attackers: impl IntoIterator<Item = usize>,
        strength: f64,
        seed: u64,
    ) -> Self {
        let victims: BTreeSet<usize> = victims.into_iter().collect();
        let attacker_set: BTreeSet<usize> = attackers.into_iter().collect();
        assert!(
            (0.0..=1.0).contains(&strength),
            "eclipse strength must be in [0, 1], got {strength}"
        );
        if strength > 0.0 && !victims.is_empty() {
            assert!(
                !attacker_set.is_empty(),
                "a steering plan needs attacker nodes to steer toward"
            );
        }
        assert!(
            victims.is_disjoint(&attacker_set),
            "a node cannot be both victim and attacker"
        );
        Self {
            victims,
            attackers: attacker_set.into_iter().collect(),
            strength,
            seed,
        }
    }

    /// Whether this plan steers anything at all.
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty() || self.attackers.is_empty() || self.strength == 0.0
    }

    /// Whether `node`'s referrals are mediated by the adversary.
    pub fn is_victim(&self, node: usize) -> bool {
        !self.is_empty() && self.victims.contains(&node)
    }

    /// The steered fraction.
    pub fn strength(&self) -> f64 {
        self.strength
    }

    /// Attacker nodes referrals are steered toward.
    pub fn attacker_nodes(&self) -> &[usize] {
        &self.attackers
    }

    /// Poison `victim`'s initial neighbor list in place: the first
    /// `round(strength × len)` slots are rewritten to seeded attacker
    /// draws (distinct from the surviving honest slots where the swarm
    /// is large enough). Draws derive from `(seed, victim)` only — call
    /// order never matters. No-op for non-victims and empty plans.
    pub fn poison_neighbors(&self, victim: usize, neighbors: &mut [usize]) {
        if !self.is_victim(victim) || neighbors.is_empty() {
            return;
        }
        let steered = ((neighbors.len() as f64) * self.strength).round() as usize;
        let steered = steered.min(neighbors.len());
        let mut rng = SimRng::from_stream(self.seed, streams::ECLN, victim as u64);
        let mut taken = BTreeSet::new();
        for slot in neighbors.iter_mut().take(steered) {
            // Prefer attackers not already placed in this victim's set;
            // small swarms fall back to repeats rather than stalling.
            let mut pick = self.attackers[rng.random_range(0..self.attackers.len())];
            for _ in 0..8 {
                if !taken.contains(&pick) && pick != victim {
                    break;
                }
                pick = self.attackers[rng.random_range(0..self.attackers.len())];
            }
            if pick == victim {
                continue;
            }
            taken.insert(pick);
            *slot = pick;
        }
    }

    /// Steer one *replacement* draw: when `victim` swaps out a rejected
    /// or dead neighbor, the poisoned registrar answers with an attacker
    /// with probability `strength`. Returns `None` (honest draw) for
    /// non-victims, empty plans, and the unsteered remainder. `nonce`
    /// disambiguates draws within one victim — pass something unique per
    /// replacement (e.g. a replacement counter).
    pub fn steer_replacement(&self, victim: usize, nonce: u64) -> Option<usize> {
        if !self.is_victim(victim) {
            return None;
        }
        let mut rng =
            SimRng::from_stream(self.seed, derive2(streams::ECLR, victim as u64, nonce), 0);
        if rng.random::<f64>() >= self.strength {
            return None;
        }
        Some(self.attackers[rng.random_range(0..self.attackers.len())])
    }

    /// How many of `full` Surveyor referrals the poisoned registrar
    /// actually reveals to `victim`: the honest share, but never zero —
    /// total Surveyor starvation would stall the join protocol rather
    /// than subvert it, which is not the attack being modelled.
    pub fn surveyor_referrals(&self, victim: usize, full: usize) -> usize {
        if !self.is_victim(victim) || full == 0 {
            return full;
        }
        (((full as f64) * (1.0 - self.strength)).round() as usize).clamp(1, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> EclipsePlan {
        EclipsePlan::new([10, 11], [1, 2, 3, 4, 5], 0.5, 77)
    }

    #[test]
    fn empty_plan_is_a_total_noop() {
        let p = EclipsePlan::none();
        assert!(p.is_empty());
        assert!(!p.is_victim(10));
        let mut neighbors = vec![7, 8, 9];
        p.poison_neighbors(10, &mut neighbors);
        assert_eq!(neighbors, vec![7, 8, 9]);
        assert_eq!(p.steer_replacement(10, 0), None);
        assert_eq!(p.surveyor_referrals(10, 8), 8);
    }

    #[test]
    #[should_panic(expected = "victim and attacker")]
    fn overlapping_roles_panic() {
        EclipsePlan::new([1], [1, 2], 0.5, 0);
    }

    #[test]
    fn poisoning_steers_exactly_the_strength_share() {
        let p = plan();
        let mut neighbors: Vec<usize> = (20..28).collect();
        p.poison_neighbors(10, &mut neighbors);
        let steered = neighbors.iter().filter(|n| (1..=5).contains(*n)).count();
        assert_eq!(steered, 4, "0.5 × 8 slots: {neighbors:?}");
        assert_eq!(&neighbors[4..], &[24, 25, 26, 27], "honest tail kept");
    }

    #[test]
    fn poisoning_is_deterministic_and_per_victim() {
        let p = plan();
        let mut a: Vec<usize> = (20..28).collect();
        let mut b: Vec<usize> = (20..28).collect();
        p.poison_neighbors(10, &mut a);
        p.poison_neighbors(10, &mut b);
        assert_eq!(a, b);
        let mut c: Vec<usize> = (20..28).collect();
        p.poison_neighbors(11, &mut c);
        // Same strength, independent draws (may coincide on tiny swarms,
        // but the stream must at least be keyed per victim).
        assert_eq!(c.iter().filter(|n| (1..=5).contains(*n)).count(), 4);
    }

    #[test]
    fn non_victims_are_untouched() {
        let p = plan();
        let mut neighbors: Vec<usize> = (20..28).collect();
        p.poison_neighbors(12, &mut neighbors);
        assert_eq!(neighbors, (20..28).collect::<Vec<_>>());
        assert_eq!(p.steer_replacement(12, 3), None);
        assert_eq!(p.surveyor_referrals(12, 8), 8);
    }

    #[test]
    fn replacement_steering_matches_strength_in_the_long_run() {
        let p = plan();
        let steered = (0..1000)
            .filter(|&nonce| p.steer_replacement(10, nonce).is_some())
            .count();
        assert!(
            (400..=600).contains(&steered),
            "~50% of draws should steer, got {steered}/1000"
        );
        // And every steered pick is an attacker.
        for nonce in 0..100 {
            if let Some(a) = p.steer_replacement(10, nonce) {
                assert!((1..=5).contains(&a));
            }
        }
        assert_eq!(p.steer_replacement(10, 42), p.steer_replacement(10, 42));
    }

    #[test]
    fn surveyor_referrals_shrink_but_never_vanish() {
        let p = plan();
        assert_eq!(p.surveyor_referrals(10, 8), 4);
        let total = EclipsePlan::new([10], [1], 1.0, 0);
        assert_eq!(
            total.surveyor_referrals(10, 8),
            1,
            "total eclipse still reveals one Surveyor"
        );
        assert_eq!(p.surveyor_referrals(10, 0), 0);
    }
}
