//! The slow-drift ("frog-boiling") attack: stay under the threshold,
//! accumulate forever.
//!
//! The paper's detector is an innovation test: a sample is rejected
//! when the measured relative error jumps further from the Kalman
//! prediction than `t_n = √v_η,n · Q⁻¹(α/2)` (Eq. 5). The known
//! post-2007 counter (ROADMAP item 3; "frog-boiling" in the literature)
//! is to never jump: each tick the attacker displaces its claimed
//! coordinate by a small per-tick increment, so every individual
//! innovation stays inside the threshold band, every sample is
//! *accepted*, and — because accepted samples update the filter — the
//! filter's notion of normal drifts along with the lie. Displacement
//! accumulates without bound while TPR collapses toward zero.
//!
//! The paper-honest knob is [`SlowDriftAttack::drift_rate_ms`]: the
//! claimed position moves `drift_rate_ms` per tick along a per-victim
//! direction derived from `(seed, victim)`. Small rates (a fraction of
//! the innovation threshold, which for calibrated filters sits at a few
//! tens of ms of distance error) evade detection outright; cranking the
//! rate past the threshold margin turns the attack back into a blatant
//! one the detector catches — the sweep in
//! `crates/sim/src/experiments/adversary.rs` maps exactly that
//! transition. The genuine RTT is always reported and the claimed error
//! mirrors the true one: nothing about a single sample looks wrong,
//! only the trajectory does.

use crate::adversary::{Adversary, TamperedSample};
use crate::node_set::NodeSet;
use ices_coord::Coordinate;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// The calibrated slow-drift attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowDriftAttack {
    /// Nodes under adversary control.
    attackers: NodeSet,
    /// Per-tick claimed-coordinate displacement, in ms — the knob that
    /// trades stealth (small, under the innovation threshold) against
    /// speed (large, detectable).
    drift_rate_ms: f64,
    /// Tick the drift begins at; displacement before it is zero. The
    /// boiling has to start from the water the frog is sitting in: an
    /// attack armed mid-run anchors here so its first sample is honest
    /// rather than a blatant jump.
    start_tick: u64,
    /// Seed the per-victim drift directions derive from.
    seed: u64,
}

impl SlowDriftAttack {
    /// Set up the drift: `attackers` displace their claimed coordinates
    /// by `drift_rate_ms` per tick along per-victim directions.
    ///
    /// # Panics
    /// Panics unless `drift_rate_ms > 0`.
    pub fn new(attackers: impl IntoIterator<Item = usize>, drift_rate_ms: f64, seed: u64) -> Self {
        assert!(drift_rate_ms > 0.0, "drift rate must be positive");
        Self {
            attackers: attackers.into_iter().collect(),
            drift_rate_ms,
            start_tick: 0,
            seed,
        }
    }

    /// Anchor the drift at `tick`: displacement is zero up to it and
    /// accumulates from there. An attack armed mid-simulation starts
    /// from the truth instead of opening with a detectable jump.
    #[must_use]
    pub fn starting_at(mut self, tick: u64) -> Self {
        self.start_tick = tick;
        self
    }

    /// Nodes under adversary control.
    pub fn attacker_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.attackers.iter()
    }

    /// The per-tick displacement in ms.
    pub fn drift_rate_ms(&self) -> f64 {
        self.drift_rate_ms
    }

    /// The unit direction attacker lies to `victim` drift along,
    /// re-derived from the seed on every call so `intercept` stays
    /// `&self`. Shared by all attackers: the drift is coordinated, so
    /// the victim's whole malicious sample stream pulls one way.
    fn direction_for(&self, victim: usize) -> (f64, f64) {
        let mut rng = SimRng::from_stream(self.seed, streams::DRFT, victim as u64);
        let angle = rng.random::<f64>() * std::f64::consts::TAU;
        (angle.cos(), angle.sin())
    }
}

impl Adversary for SlowDriftAttack {
    fn is_malicious(&self, node: usize) -> bool {
        self.attackers.contains(node)
    }

    fn intercept(
        &self,
        peer: usize,
        victim: usize,
        tick: u64,
        true_coord: &Coordinate,
        true_error: f64,
        measured_rtt: f64,
        _victim_coord: &Coordinate,
    ) -> Option<TamperedSample> {
        if !self.attackers.contains(peer) || self.attackers.contains(victim) {
            return None;
        }
        let displacement = self.drift_accumulated_ms(tick);
        let (ux, uy) = self.direction_for(victim);
        let mut position = true_coord.position().to_vec();
        if let Some(x) = position.get_mut(0) {
            *x += displacement * ux;
        }
        if let Some(y) = position.get_mut(1) {
            *y += displacement * uy;
        }
        Some(TamperedSample {
            coord: Coordinate::new(position, true_coord.height()),
            // Mirror the true error: the sample must look exactly as
            // trustworthy as an honest one.
            error: true_error,
            rtt_ms: measured_rtt,
        })
    }

    fn drift_accumulated_ms(&self, tick: u64) -> f64 {
        self.drift_rate_ms * tick.saturating_sub(self.start_tick) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack() -> SlowDriftAttack {
        SlowDriftAttack::new([1, 2, 3], 0.5, 17)
    }

    fn coord(x: f64, y: f64) -> Coordinate {
        Coordinate::new(vec![x, y], 1.0)
    }

    #[test]
    fn membership() {
        let a = attack();
        assert!(a.is_malicious(3));
        assert!(!a.is_malicious(4));
    }

    #[test]
    fn displacement_grows_linearly_with_ticks() {
        let a = attack();
        let c = coord(10.0, -5.0);
        let at = |tick| {
            let t = a
                .intercept(1, 10, tick, &c, 0.4, 30.0, &c)
                .expect("tampered");
            // Positions only: `distance` would add both heights on top.
            let diff: Vec<f64> = t
                .coord
                .position()
                .iter()
                .zip(c.position())
                .map(|(a, b)| a - b)
                .collect();
            ices_coord::vector::norm(&diff)
        };
        let d0 = at(0);
        let d10 = at(10);
        let d100 = at(100);
        assert!(d0.abs() < 1e-9, "tick 0 starts at the truth: {d0}");
        assert!((d10 - 5.0).abs() < 1e-9, "0.5 ms/tick × 10 ticks: {d10}");
        assert!((d100 - 50.0).abs() < 1e-9, "unbounded accumulation: {d100}");
        assert_eq!(a.drift_accumulated_ms(100), 50.0);
    }

    #[test]
    fn start_tick_anchors_the_drift() {
        let a = attack().starting_at(100);
        assert_eq!(a.drift_accumulated_ms(50), 0.0, "no drift before start");
        assert_eq!(a.drift_accumulated_ms(100), 0.0, "starts from the truth");
        assert_eq!(a.drift_accumulated_ms(120), 10.0, "0.5 ms × 20 ticks");
        let c = coord(1.0, 1.0);
        let t = a
            .intercept(1, 10, 100, &c, 0.4, 30.0, &c)
            .expect("tampered");
        assert_eq!(t.coord.position(), c.position(), "first sample is honest");
    }

    #[test]
    fn drift_direction_is_coordinated_per_victim() {
        let a = attack();
        let c = coord(0.0, 0.0);
        let t1 = a.intercept(1, 10, 20, &c, 0.4, 30.0, &c).expect("tampered");
        let t2 = a.intercept(2, 10, 20, &c, 0.4, 30.0, &c).expect("tampered");
        assert_eq!(
            t1.coord, t2.coord,
            "all attackers drift a victim the same way"
        );
        let t_other = a.intercept(1, 11, 20, &c, 0.4, 30.0, &c).expect("tampered");
        assert_ne!(t1.coord, t_other.coord, "directions are per-victim");
    }

    #[test]
    fn samples_look_individually_honest() {
        let a = attack();
        let c = coord(3.0, 4.0);
        let t = a.intercept(1, 10, 7, &c, 0.42, 33.0, &c).expect("tampered");
        assert_eq!(t.error, 0.42);
        assert_eq!(t.rtt_ms, 33.0);
        assert_eq!(t.coord.height(), c.height());
    }

    #[test]
    fn honest_peers_pass_through_and_attackers_spare_each_other() {
        let a = attack();
        let c = coord(0.0, 0.0);
        assert!(a.intercept(9, 10, 5, &c, 0.5, 30.0, &c).is_none());
        assert!(a.intercept(1, 2, 5, &c, 0.5, 30.0, &c).is_none());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = attack();
        let b = attack();
        let c = coord(1.0, 2.0);
        assert_eq!(
            a.intercept(2, 42, 31, &c, 0.5, 40.0, &c),
            b.intercept(2, 42, 31, &c, 0.5, 40.0, &c)
        );
    }
}
