//! The colluding isolation attack on Vivaldi (§5.2 of the paper).
//!
//! The malicious nodes agree on a large **exclusion zone** around a
//! target node and set their claimed coordinates outside it, trying to
//! attract honest nodes out of the zone and thereby isolate the target.
//! Two properties matter for the detection study:
//!
//! * the attackers collude — they share one zone and push consistently
//!   away from it;
//! * an attacker always uses the **same coordinate when lying to a given
//!   honest node** (per-victim-consistent lies, which defeats naive
//!   "did the peer's coordinate jump?" checks).
//!
//! (Reference \[11\]: Kaafar et al., CoNEXT 2006.)
//!
//! The lie works through Vivaldi's own spring dynamics: the claimed
//! coordinate is far from the victim while the measured RTT stays small,
//! so the spring is "compressed" and relaxation drags the victim toward
//! the fake position — outside the zone. Attackers also claim a very low
//! local error so the victim weights the malicious sample heavily.

use crate::adversary::{Adversary, TamperedSample};
use crate::node_set::NodeSet;
use ices_coord::Coordinate;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The colluding isolation attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VivaldiIsolationAttack {
    /// Nodes under adversary control.
    malicious: NodeSet,
    /// Center of the agreed exclusion zone (the target's position as
    /// scouted by the colluders before the attack).
    zone_center: Coordinate,
    /// Radius of the exclusion zone, in ms.
    zone_radius: f64,
    /// Confidence the attackers claim (lower = more influence).
    claimed_error: f64,
    /// Lie standoff range in zone radii: fake coordinates are placed
    /// uniformly within `standoff.0 .. standoff.1` radii from the zone
    /// center. The attack of reference \[11\] is blatant — the colluders pretend to
    /// be far outside the zone to exert maximal pull.
    standoff: (f64, f64),
    /// Seed for drawing lie positions. Lies are re-derived from the seed
    /// on every call (no cache), so `intercept` can stay `&self` and be
    /// consulted from concurrent simulation workers.
    seed: u64,
}

impl VivaldiIsolationAttack {
    /// Set up the collusion: `malicious` nodes agree to repulse everyone
    /// from the zone of radius `zone_radius` around `zone_center`.
    ///
    /// # Panics
    /// Panics if the radius is not positive or the claimed error is not
    /// in `(0, 1]`.
    pub fn new(
        malicious: impl IntoIterator<Item = usize>,
        zone_center: Coordinate,
        zone_radius: f64,
        seed: u64,
    ) -> Self {
        assert!(zone_radius > 0.0, "zone radius must be positive");
        Self {
            malicious: malicious.into_iter().collect(),
            zone_center,
            zone_radius,
            claimed_error: 0.01,
            standoff: (8.0, 16.0),
            seed,
        }
    }

    /// Override the lie standoff range (in zone radii). Lower values
    /// give a stealthier but weaker attack; the default (8–16) matches
    /// the blatant attack the paper evaluates.
    ///
    /// # Panics
    /// Panics unless `2 <= lo <= hi`.
    pub fn with_standoff(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo >= 2.0 && hi >= lo, "standoff must satisfy 2 <= lo <= hi");
        self.standoff = (lo, hi);
        self
    }

    /// The exclusion-zone center.
    pub fn zone_center(&self) -> &Coordinate {
        &self.zone_center
    }

    /// The exclusion-zone radius.
    pub fn zone_radius(&self) -> f64 {
        self.zone_radius
    }

    /// Ids under adversary control.
    pub fn malicious_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.malicious.iter()
    }

    /// The consistent lie attacker `a` tells victim `v`: a point derived
    /// deterministically from the seed, uniform in direction, placed in
    /// the standoff band outside the zone. Re-deriving (instead of
    /// caching) keeps the same lie per (attacker, victim) pair while
    /// leaving the adversary immutable during interception.
    fn lie_for(&self, attacker: usize, victim: usize) -> Coordinate {
        // The colluders coordinate their stories: all lies told to one
        // victim pull in (roughly) the same direction out of the zone,
        // with per-attacker jitter so the fakes do not coincide.
        let mut victim_rng = SimRng::from_stream(self.seed, victim as u64, streams::VICT); // "VICT"
        let base_angle = victim_rng.random::<f64>() * std::f64::consts::TAU;
        let mut rng =
            SimRng::from_stream(self.seed, attacker as u64, victim as u64 ^ streams::LIES);
        let angle = base_angle + (rng.random::<f64>() - 0.5) * 0.5;
        let (lo, hi) = self.standoff;
        let radius = self.zone_radius * (lo + (hi - lo) * rng.random::<f64>());
        let mut position = self.zone_center.position().to_vec();
        // Spread the displacement over the first two dimensions (the
        // paper's Vivaldi space is 2-d + height); higher-dimensional
        // spaces just leave the remaining axes at the center value.
        if let Some(x) = position.get_mut(0) {
            *x += radius * angle.cos();
        }
        if let Some(y) = position.get_mut(1) {
            *y += radius * angle.sin();
        }
        Coordinate::new(position, 0.0)
    }
}

impl Adversary for VivaldiIsolationAttack {
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
        _victim_coord: &Coordinate,
    ) -> Option<TamperedSample> {
        if !self.malicious.contains(peer) || self.malicious.contains(victim) {
            // Attackers embed honestly among themselves — they need valid
            // coordinates to keep their standing in the system.
            return None;
        }
        let coord = self.lie_for(peer, victim);
        Some(TamperedSample {
            coord,
            error: self.claimed_error,
            rtt_ms: measured_rtt, // coordinate lie only; RTT untouched
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;

    fn attack() -> VivaldiIsolationAttack {
        VivaldiIsolationAttack::new([1, 2, 3], Coordinate::new(vec![10.0, -5.0], 0.0), 100.0, 7)
    }

    #[test]
    fn malicious_membership() {
        let a = attack();
        assert!(a.is_malicious(1));
        assert!(!a.is_malicious(4));
    }

    #[test]
    fn lies_are_outside_the_exclusion_zone() {
        let a = attack();
        let victim_coord = Coordinate::origin(Space::with_height(2));
        for attacker in [1, 2, 3] {
            for victim in [10, 20, 30] {
                let t = a
                    .intercept(attacker, victim, 0, &victim_coord, 0.5, 40.0, &victim_coord)
                    .expect("malicious peer must tamper");
                let d = t.coord.distance(a.zone_center());
                assert!(
                    d >= 2.0 * a.zone_radius(),
                    "lie at distance {d} is inside the agreed standoff"
                );
                assert!(t.error <= 0.01, "attackers claim high confidence");
            }
        }
    }

    #[test]
    fn lies_are_consistent_per_victim() {
        let a = attack();
        let c = Coordinate::origin(Space::with_height(2));
        let first = a.intercept(1, 10, 0, &c, 0.5, 40.0, &c).expect("tampered");
        for _ in 0..5 {
            let again = a.intercept(1, 10, 0, &c, 0.5, 40.0, &c).expect("tampered");
            assert_eq!(
                first.coord, again.coord,
                "same victim must hear the same lie"
            );
        }
    }

    #[test]
    fn different_victims_hear_different_lies() {
        let a = attack();
        let c = Coordinate::origin(Space::with_height(2));
        let to_10 = a.intercept(1, 10, 0, &c, 0.5, 40.0, &c).expect("tampered");
        let to_11 = a.intercept(1, 11, 0, &c, 0.5, 40.0, &c).expect("tampered");
        assert_ne!(to_10.coord, to_11.coord);
    }

    #[test]
    fn honest_peers_pass_through() {
        let a = attack();
        let c = Coordinate::origin(Space::with_height(2));
        assert!(a.intercept(9, 10, 0, &c, 0.5, 40.0, &c).is_none());
    }

    #[test]
    fn attackers_spare_each_other() {
        let a = attack();
        let c = Coordinate::origin(Space::with_height(2));
        assert!(
            a.intercept(1, 2, 0, &c, 0.5, 40.0, &c).is_none(),
            "colluders embed honestly among themselves"
        );
    }

    #[test]
    fn rtt_is_never_deflated() {
        let a = attack();
        let c = Coordinate::origin(Space::with_height(2));
        let t = a.intercept(1, 10, 0, &c, 0.5, 37.5, &c).expect("tampered");
        assert!(t.rtt_ms >= 37.5);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = attack();
        let b = attack();
        let c = Coordinate::origin(Space::with_height(2));
        let ta = a.intercept(2, 42, 0, &c, 0.5, 40.0, &c).expect("tampered");
        let tb = b.intercept(2, 42, 0, &c, 0.5, 40.0, &c).expect("tampered");
        assert_eq!(ta, tb);
    }
}
