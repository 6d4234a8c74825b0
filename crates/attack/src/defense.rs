//! VerLoc-style cross-verification defense (opt-in).
//!
//! The paper's detector vets a sample against the victim's *own* filter
//! — a purely local test that consistent colluders (eclipse
//! translations, calibrated slow drift) evade by construction. VerLoc
//! (arXiv:2105.11928) points at the missing ingredient: **independent
//! vantage points**. With the defense armed, a victim cross-checks each
//! peer's claimed coordinate through `k` seeded witness nodes: each
//! witness measures its own RTT to the peer, and votes *against* the
//! claim when the geometry doesn't add up — when the distance from the
//! claimed coordinate to the witness's coordinate disagrees with the
//! witness's measured RTT by more than a tolerance. A quorum of
//! votes-against rejects the sample outright, before it ever reaches
//! the Kalman filter.
//!
//! Witness draws derive from `(seed, tick, victim, peer)` — pure
//! streams, no shared state — so the defense preserves the drivers'
//! bit-for-bit thread-count invariance. Colluding witnesses corroborate
//! a colluding peer's lie (they vote consistent no matter what), which
//! is what makes witness *count* a real knob rather than a free win.

use ices_coord::Coordinate;
use ices_stats::rng::{derive2, SimRng};
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Cross-verification configuration. The default is **off** — the
/// paper's system has no such check; arming it is the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Whether cross-verification runs at all.
    pub enabled: bool,
    /// Witnesses drawn per vetted sample.
    pub witnesses: usize,
    /// Votes-against needed to reject the sample.
    pub quorum: usize,
    /// Relative geometric disagreement a witness tolerates before
    /// voting against: `|dist(claimed, witness) − rtt| / rtt` beyond
    /// this is a vote against. Must absorb honest embedding error
    /// (median relative error ~0.2 on these topologies) plus routing
    /// triangle-inequality violations, or the defense convicts honest
    /// nodes wholesale.
    pub tolerance: f64,
    /// Seed the witness draws derive from.
    pub seed: u64,
}

impl DefenseConfig {
    /// The paper's system: no cross-verification.
    pub fn off() -> Self {
        Self {
            enabled: false,
            witnesses: 0,
            quorum: 0,
            tolerance: 0.0,
            seed: 0,
        }
    }

    /// The default armed configuration: 3 witnesses, 2 votes to
    /// reject, 50% geometric tolerance.
    pub fn cross_verification(seed: u64) -> Self {
        Self {
            enabled: true,
            witnesses: 3,
            quorum: 2,
            tolerance: 0.5,
            seed,
        }
    }

    /// Validate the knobs.
    ///
    /// # Panics
    /// Panics when enabled with zero witnesses, a quorum larger than
    /// the witness count or zero, or a non-positive tolerance.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(self.witnesses >= 1, "armed defense needs witnesses");
        assert!(
            self.quorum >= 1 && self.quorum <= self.witnesses,
            "quorum must be in 1..=witnesses"
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
    }

    /// Draw the witness set for the interaction in which `victim` vets
    /// `peer` at `tick`: up to `witnesses` distinct nodes, never the
    /// victim or the peer, from a stream keyed purely on
    /// `(seed, tick, victim, peer)` — identical at any worker count.
    /// Returns fewer than `witnesses` ids only in tiny populations.
    pub fn draw_witnesses(
        &self,
        tick: u64,
        victim: usize,
        peer: usize,
        population: usize,
    ) -> Vec<usize> {
        let mut rng = SimRng::from_stream(
            self.seed,
            derive2(streams::WTNS, tick, victim as u64),
            peer as u64,
        );
        let mut out = Vec::with_capacity(self.witnesses);
        // Bounded draw: tiny populations may not hold k distinct
        // eligible witnesses, and an unbounded loop must not hang.
        let mut attempts = 0;
        while out.len() < self.witnesses && attempts < 16 * self.witnesses.max(1) {
            attempts += 1;
            if population <= 2 {
                break;
            }
            let w = rng.random_range(0..population);
            if w != victim && w != peer && !out.contains(&w) {
                out.push(w);
            }
        }
        out
    }
}

/// One witness's vote: does the claimed coordinate disagree with this
/// witness's own measurement beyond the tolerance?
///
/// `claimed` is the coordinate the peer presented to the victim,
/// `witness_coord` the witness's current coordinate, and
/// `witness_rtt_ms` the RTT the witness measured to the peer. Degenerate
/// measurements (non-positive RTT) abstain rather than convict.
pub fn witness_votes_against(
    claimed: &Coordinate,
    witness_coord: &Coordinate,
    witness_rtt_ms: f64,
    tolerance: f64,
) -> bool {
    if witness_rtt_ms <= 0.0 {
        return false;
    }
    let predicted = claimed.distance(witness_coord);
    (predicted - witness_rtt_ms).abs() / witness_rtt_ms > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(x: f64, y: f64) -> Coordinate {
        Coordinate::new(vec![x, y], 0.0)
    }

    #[test]
    fn off_config_validates_trivially() {
        DefenseConfig::off().validate();
        assert!(!DefenseConfig::off().enabled);
    }

    #[test]
    fn armed_default_validates() {
        let d = DefenseConfig::cross_verification(5);
        d.validate();
        assert!(d.enabled);
        assert!(d.quorum <= d.witnesses);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn oversized_quorum_panics() {
        DefenseConfig {
            quorum: 5,
            ..DefenseConfig::cross_verification(5)
        }
        .validate();
    }

    #[test]
    fn witness_draws_are_deterministic_distinct_and_exclude_parties() {
        let d = DefenseConfig::cross_verification(9);
        let a = d.draw_witnesses(4, 10, 20, 100);
        let b = d.draw_witnesses(4, 10, 20, 100);
        assert_eq!(a, b, "same (tick, victim, peer) must redraw identically");
        assert_eq!(a.len(), d.witnesses);
        for (i, &w) in a.iter().enumerate() {
            assert!(w != 10 && w != 20, "witness {w} is a party to the claim");
            assert!(!a[..i].contains(&w), "duplicate witness {w}");
        }
        let c = d.draw_witnesses(5, 10, 20, 100);
        assert_ne!(a, c, "ticks use disjoint draws");
    }

    #[test]
    fn tiny_population_draw_terminates_short() {
        let d = DefenseConfig::cross_verification(9);
        assert!(d.draw_witnesses(0, 0, 1, 2).is_empty());
        let small = d.draw_witnesses(0, 0, 1, 4);
        assert!(small.len() <= 2, "only nodes 2 and 3 are eligible");
    }

    #[test]
    fn geometric_inconsistency_is_a_vote_against() {
        // Witness at (0,0); a peer *actually* 100 ms away claims to sit
        // 400 ms away: 3× disagreement, far past a 50% tolerance.
        let witness = coord(0.0, 0.0);
        let honest_claim = coord(100.0, 0.0);
        let lying_claim = coord(400.0, 0.0);
        assert!(!witness_votes_against(&honest_claim, &witness, 100.0, 0.5));
        assert!(witness_votes_against(&lying_claim, &witness, 100.0, 0.5));
    }

    #[test]
    fn degenerate_rtt_abstains() {
        let witness = coord(0.0, 0.0);
        let claim = coord(400.0, 0.0);
        assert!(!witness_votes_against(&claim, &witness, 0.0, 0.5));
    }
}
