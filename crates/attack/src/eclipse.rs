//! The eclipse attack: surround a victim and translate its world.
//!
//! Eclipse attacks (ROADMAP item 3) poison the referral machinery —
//! here, the registrar a joining node asks for neighbors and Surveyors —
//! so that a targeted victim's view of the system is mediated almost
//! entirely by attacker nodes. The steering itself lives in
//! [`ices_netsim`]'s `EclipsePlan` (which rewrites the victim's
//! neighbor draws and starves its Surveyor referrals); this module
//! implements what the surrounding attackers *report*.
//!
//! The lie is a **consistent translation**: every attacker reports its
//! own *true* coordinate shifted by one per-victim offset vector (same
//! vector for every attacker, derived from `(seed, victim)`), and the
//! genuine RTT. Because all of a victim's (eclipsed) peers agree on the
//! same rigid translation of the coordinate space, the victim's spring
//! system stays *internally consistent*: inter-peer distances are
//! unchanged, innovations look normal, and the victim converges to its
//! true position plus the offset — displaced, useless for RTT
//! prediction against the outside world, and invisible to the Kalman
//! innovation test. This is the attack the paper's detector is
//! structurally blind to, and the one VerLoc-style cross-verification
//! (probing the claim through non-eclipsed witnesses) recovers.

use crate::adversary::{Adversary, TamperedSample};
use crate::node_set::NodeSet;
use ices_coord::Coordinate;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The coordinated eclipse attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EclipseAttack {
    /// Nodes under adversary control (the surrounding ring).
    attackers: NodeSet,
    /// Targeted victims. Non-victims get honest behavior — the attack
    /// is precise, which is what keeps it quiet.
    victims: NodeSet,
    /// Magnitude of the per-victim translation, in ms.
    offset_ms: f64,
    /// Seed the per-victim offset vectors derive from.
    seed: u64,
}

impl EclipseAttack {
    /// Set up the eclipse: `attackers` translate the world of each node
    /// in `victims` by a consistent seed-derived vector of length
    /// `offset_ms`.
    ///
    /// # Panics
    /// Panics unless `offset_ms > 0`.
    pub fn new(
        attackers: impl IntoIterator<Item = usize>,
        victims: impl IntoIterator<Item = usize>,
        offset_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(offset_ms > 0.0, "translation offset must be positive");
        Self {
            attackers: attackers.into_iter().collect(),
            victims: victims.into_iter().collect(),
            offset_ms,
            seed,
        }
    }

    /// Nodes under adversary control.
    pub fn attacker_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.attackers.iter()
    }

    /// Targeted victims.
    pub fn victim_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.victims.iter()
    }

    /// The translation magnitude in ms.
    pub fn offset_ms(&self) -> f64 {
        self.offset_ms
    }

    /// The rigid translation applied to everything `victim` is told:
    /// one unit direction per victim, re-derived from the seed on every
    /// call so `intercept` stays `&self`.
    fn offset_for(&self, victim: usize) -> (f64, f64) {
        let mut rng = SimRng::from_stream(self.seed, streams::ECLP, victim as u64);
        let angle = rng.random::<f64>() * std::f64::consts::TAU;
        (self.offset_ms * angle.cos(), self.offset_ms * angle.sin())
    }
}

impl Adversary for EclipseAttack {
    fn is_malicious(&self, node: usize) -> bool {
        self.attackers.contains(node)
    }

    fn intercept(
        &self,
        peer: usize,
        victim: usize,
        _tick: u64,
        true_coord: &Coordinate,
        true_error: f64,
        measured_rtt: f64,
        _victim_coord: &Coordinate,
    ) -> Option<TamperedSample> {
        if !self.attackers.contains(peer)
            || self.attackers.contains(victim)
            || !self.victims.contains(victim)
        {
            return None;
        }
        let (dx, dy) = self.offset_for(victim);
        let mut position = true_coord.position().to_vec();
        if let Some(x) = position.get_mut(0) {
            *x += dx;
        }
        if let Some(y) = position.get_mut(1) {
            *y += dy;
        }
        Some(TamperedSample {
            // The attacker keeps its true height and *claims its true
            // error*: the translated world must look exactly as healthy
            // as the real one.
            coord: Coordinate::new(position, true_coord.height()),
            error: true_error,
            rtt_ms: measured_rtt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack() -> EclipseAttack {
        EclipseAttack::new([1, 2, 3], [10, 11], 300.0, 13)
    }

    fn coord(x: f64, y: f64) -> Coordinate {
        Coordinate::new(vec![x, y], 2.0)
    }

    #[test]
    fn membership_is_attackers_not_victims() {
        let a = attack();
        assert!(a.is_malicious(1));
        assert!(!a.is_malicious(10), "victims are honest nodes");
    }

    #[test]
    fn only_targeted_victims_are_lied_to() {
        let a = attack();
        let c = coord(5.0, -3.0);
        assert!(a.intercept(1, 10, 0, &c, 0.4, 30.0, &c).is_some());
        assert!(
            a.intercept(1, 20, 0, &c, 0.4, 30.0, &c).is_none(),
            "non-victims see honest behavior"
        );
        assert!(a.intercept(9, 10, 0, &c, 0.4, 30.0, &c).is_none());
        assert!(a.intercept(1, 2, 0, &c, 0.4, 30.0, &c).is_none());
    }

    #[test]
    fn translation_is_rigid_and_shared_by_all_attackers() {
        let a = attack();
        let victim_coord = coord(0.0, 0.0);
        let c1 = coord(10.0, 20.0);
        let c2 = coord(-40.0, 7.0);
        let t1 = a
            .intercept(1, 10, 0, &c1, 0.4, 30.0, &victim_coord)
            .expect("tampered");
        let t2 = a
            .intercept(2, 10, 0, &c2, 0.3, 55.0, &victim_coord)
            .expect("tampered");
        // Same offset vector regardless of attacker: claimed minus true
        // is identical, so inter-peer distances are preserved.
        let d1: Vec<f64> = t1
            .coord
            .position()
            .iter()
            .zip(c1.position())
            .map(|(a, b)| a - b)
            .collect();
        let d2: Vec<f64> = t2
            .coord
            .position()
            .iter()
            .zip(c2.position())
            .map(|(a, b)| a - b)
            .collect();
        for (x, y) in d1.iter().zip(&d2) {
            assert!((x - y).abs() < 1e-12, "offsets differ: {d1:?} vs {d2:?}");
        }
        let norm = (d1[0] * d1[0] + d1[1] * d1[1]).sqrt();
        assert!((norm - 300.0).abs() < 1e-9, "offset magnitude {norm}");
        assert_eq!(t1.coord.distance(&t2.coord), c1.distance(&c2));
    }

    #[test]
    fn different_victims_get_different_translations() {
        let a = attack();
        let c = coord(10.0, 20.0);
        let to_10 = a.intercept(1, 10, 0, &c, 0.4, 30.0, &c).expect("tampered");
        let to_11 = a.intercept(1, 11, 0, &c, 0.4, 30.0, &c).expect("tampered");
        assert_ne!(to_10.coord, to_11.coord);
    }

    #[test]
    fn claims_look_healthy() {
        let a = attack();
        let c = coord(10.0, 20.0);
        let t = a.intercept(3, 11, 0, &c, 0.37, 42.0, &c).expect("tampered");
        assert_eq!(t.error, 0.37, "claimed error mirrors the true one");
        assert_eq!(t.rtt_ms, 42.0, "RTT is genuine");
        assert_eq!(t.coord.height(), c.height(), "height untouched");
    }

    #[test]
    fn deterministic_across_instances() {
        let a = attack();
        let b = attack();
        let c = coord(1.0, 2.0);
        assert_eq!(
            a.intercept(2, 11, 9, &c, 0.5, 40.0, &c),
            b.intercept(2, 11, 9, &c, 0.5, 40.0, &c)
        );
    }
}
