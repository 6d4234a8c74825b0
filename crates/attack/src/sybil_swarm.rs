//! The Sybil swarm attack: one adversary, many identities.
//!
//! A single attacker spins up a swarm of cheap identities (ROADMAP item
//! 3; Douceur's classic Sybil setting applied to coordinate systems).
//! Because the identities cost nothing, the attacker can outnumber the
//! honest nodes in a victim's *candidate set* — the eclipse-style
//! neighbor steering that realizes the outnumbering lives in
//! [`ices_netsim`]'s `EclipsePlan`; this module implements what the
//! sybils *say* once they are in the set.
//!
//! All lies are coordinated from **one seed**: every sybil claims to sit
//! in one tight cluster around a remote anchor point derived from the
//! swarm seed, with per-sybil jitter so the fakes do not coincide, and
//! claims near-zero local error so victims weight the swarm heavily.
//! The genuine RTT is reported (a coordinate lie only), so the claimed
//! far-away position against a small measured RTT compresses the
//! Vivaldi spring and drags victims toward the anchor. Against an armed
//! Kalman detector this is a *blatant* attack — the innovation jumps —
//! so the interesting quantity is how detection degrades as the swarm's
//! share of the candidate set grows.

use crate::adversary::{Adversary, TamperedSample};
use crate::node_set::NodeSet;
use ices_coord::Coordinate;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The coordinated Sybil swarm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SybilSwarmAttack {
    /// Identities under the (single) adversary's control.
    sybils: NodeSet,
    /// Distance of the shared anchor from the space origin, in ms. The
    /// swarm pretends to live in this remote part of the space.
    anchor_distance_ms: f64,
    /// Radius of the claimed cluster around the anchor, in ms. Small:
    /// the swarm's whole point is one consistent story.
    cluster_spread_ms: f64,
    /// Confidence every sybil claims (lower = more influence).
    claimed_error: f64,
    /// Coordinate dimensionality of the claimed positions.
    dims: usize,
    /// Seed all lies derive from; identical across every sybil, which is
    /// what makes the swarm one adversary rather than many.
    seed: u64,
    /// Every sybil's claimed coordinate, derived once at construction —
    /// the claims are victim- and tick-independent, so `intercept` is an
    /// indexed lookup on the hot path instead of a per-call stream
    /// derivation. `None` for non-sybil indices.
    claims: Vec<Option<Coordinate>>,
}

impl SybilSwarmAttack {
    /// Set up the swarm: `sybils` identities claiming to cluster at a
    /// seed-derived anchor `anchor_distance_ms` from the origin, spread
    /// over `cluster_spread_ms`, in a `dims`-dimensional space.
    ///
    /// # Panics
    /// Panics unless `anchor_distance_ms > 0`, `cluster_spread_ms >= 0`
    /// and `dims >= 1`.
    pub fn new(
        sybils: impl IntoIterator<Item = usize>,
        anchor_distance_ms: f64,
        cluster_spread_ms: f64,
        dims: usize,
        seed: u64,
    ) -> Self {
        assert!(anchor_distance_ms > 0.0, "anchor distance must be positive");
        assert!(
            cluster_spread_ms >= 0.0,
            "cluster spread must not be negative"
        );
        assert!(dims >= 1, "claimed positions need at least one dimension");
        let mut swarm = Self {
            sybils: sybils.into_iter().collect(),
            anchor_distance_ms,
            cluster_spread_ms,
            claimed_error: 0.01,
            dims,
            seed,
            claims: Vec::new(),
        };
        let slots = swarm.sybils.iter().max().map_or(0, |m| m + 1);
        let mut claims = vec![None; slots];
        for s in swarm.sybils.iter() {
            claims[s] = Some(swarm.claimed_position(s));
        }
        swarm.claims = claims;
        swarm
    }

    /// Identities under swarm control.
    pub fn sybil_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.sybils.iter()
    }

    /// The swarm's shared anchor: one point per seed.
    fn anchor(&self) -> Vec<f64> {
        let mut rng = SimRng::from_stream(self.seed, streams::SYBA, 0);
        let angle = rng.random::<f64>() * std::f64::consts::TAU;
        let mut position = vec![0.0; self.dims];
        if let Some(x) = position.get_mut(0) {
            *x = self.anchor_distance_ms * angle.cos();
        }
        if let Some(y) = position.get_mut(1) {
            *y = self.anchor_distance_ms * angle.sin();
        }
        position
    }

    /// The position sybil `s` claims: the shared anchor plus a fixed
    /// per-sybil jitter inside the cluster spread. Independent of the
    /// victim — the swarm tells *everyone* the same story, which is what
    /// one seed buys the adversary.
    fn claimed_position(&self, sybil: usize) -> Coordinate {
        let mut position = self.anchor();
        let mut rng = SimRng::from_stream(self.seed, streams::SYBJ, sybil as u64);
        let angle = rng.random::<f64>() * std::f64::consts::TAU;
        let r = self.cluster_spread_ms * rng.random::<f64>();
        if let Some(x) = position.get_mut(0) {
            *x += r * angle.cos();
        }
        if let Some(y) = position.get_mut(1) {
            *y += r * angle.sin();
        }
        Coordinate::new(position, 0.0)
    }
}

impl Adversary for SybilSwarmAttack {
    fn is_malicious(&self, node: usize) -> bool {
        self.sybils.contains(node)
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
        if !self.sybils.contains(peer) || self.sybils.contains(victim) {
            // Sybils embed honestly among themselves: the real node
            // behind them needs a valid coordinate to keep its standing.
            return None;
        }
        Some(TamperedSample {
            // `sybils.contains(peer)` held above, so the claim exists; `?`
            // keeps the lookup panic-free regardless.
            coord: self.claims.get(peer)?.clone()?,
            error: self.claimed_error,
            rtt_ms: measured_rtt, // coordinate lie only; RTT untouched
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;

    fn swarm() -> SybilSwarmAttack {
        SybilSwarmAttack::new([1, 2, 3, 4], 800.0, 10.0, 2, 11)
    }

    #[test]
    fn membership() {
        let a = swarm();
        assert!(a.is_malicious(2));
        assert!(!a.is_malicious(9));
    }

    #[test]
    fn swarm_claims_one_tight_remote_cluster() {
        let a = swarm();
        let c = Coordinate::origin(Space::with_height(2));
        let claims: Vec<Coordinate> = [1, 2, 3, 4]
            .iter()
            .map(|&s| {
                a.intercept(s, 10, 0, &c, 0.5, 30.0, &c)
                    .expect("sybil must tamper")
                    .coord
            })
            .collect();
        // Remote: every claim is near the anchor distance from origin.
        for claim in &claims {
            let d = ices_coord::vector::norm(claim.position());
            assert!(
                (d - 800.0).abs() <= 10.0 + 1e-9,
                "claim at distance {d} is not near the anchor"
            );
        }
        // Tight: pairwise distances bounded by twice the spread.
        for i in 0..claims.len() {
            for j in (i + 1)..claims.len() {
                let d = claims[i].distance(&claims[j]);
                assert!(d <= 20.0 + 1e-9, "cluster spread violated: {d}");
            }
        }
    }

    #[test]
    fn one_story_for_every_victim() {
        let a = swarm();
        let c = Coordinate::origin(Space::with_height(2));
        let to_10 = a.intercept(1, 10, 0, &c, 0.5, 30.0, &c).expect("tampered");
        let to_11 = a.intercept(1, 11, 5, &c, 0.5, 45.0, &c).expect("tampered");
        assert_eq!(
            to_10.coord, to_11.coord,
            "a sybil's claimed position is victim- and tick-independent"
        );
    }

    #[test]
    fn honest_peers_pass_through_and_sybils_spare_each_other() {
        let a = swarm();
        let c = Coordinate::origin(Space::with_height(2));
        assert!(a.intercept(9, 10, 0, &c, 0.5, 30.0, &c).is_none());
        assert!(a.intercept(1, 2, 0, &c, 0.5, 30.0, &c).is_none());
    }

    #[test]
    fn rtt_is_never_deflated() {
        let a = swarm();
        let c = Coordinate::origin(Space::with_height(2));
        let t = a.intercept(1, 10, 0, &c, 0.5, 37.5, &c).expect("tampered");
        assert!(t.rtt_ms >= 37.5);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = swarm();
        let b = swarm();
        let c = Coordinate::origin(Space::with_height(2));
        assert_eq!(
            a.intercept(3, 42, 7, &c, 0.5, 40.0, &c),
            b.intercept(3, 42, 7, &c, 0.5, 40.0, &c)
        );
    }
}
