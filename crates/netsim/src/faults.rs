//! Deterministic fault injection: lossy probes, timeouts, and node churn.
//!
//! Real deployments of coordinate systems (King-style measurement hosts,
//! PlanetLab) do not enjoy the clean world of [`crate::network`]: probes
//! are dropped by the network, time out against overloaded hosts, and
//! whole nodes — including trusted Surveyors — crash and rejoin. A
//! [`FaultPlan`] describes that unreliability as three orthogonal pieces:
//!
//! * **per-link probe faults** — every logical probe is lost with
//!   probability `loss_probability` or times out with probability
//!   `timeout_probability` ([`LinkFaults`]);
//! * **population churn** — simulated time is divided into epochs of
//!   `epoch_ticks`; in each epoch a node is crashed (down) with
//!   probability `down_probability` and rejoins at the next epoch
//!   boundary ([`ChurnModel`]);
//! * **per-node churn overrides** — e.g. a separate (usually smaller)
//!   outage probability for Surveyor nodes, set by the driver that knows
//!   which ids are Surveyors.
//!
//! A network consults the plan at two points of a probe: the churn
//! schedule says whether each endpoint is up at a tick
//! ([`crate::Network::node_up`]), and the link gate says whether a
//! logical probe over a keyed pair gets through at its nonce
//! ([`crate::Network::link_fate`]). A probe that does not is settled
//! with a [`ProbeFate`] and never measured.
//!
//! Every decision is a pure function of `(seed, endpoints, nonce)` or
//! `(seed, node, epoch)` through the same SplitMix64 stream discipline as
//! measurement noise, on streams of its own, so fault injection is
//! bit-for-bit reproducible at any worker count, independent of probe
//! order, and never perturbs the measurements that get through. The
//! default plan is empty: every node is up and every gate opens.

use ices_stats::rng::{derive, derive2};
use ices_stats::streams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a logical probe produced no measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFate {
    /// The link gate dropped the probe (or its reply).
    Lost,
    /// The link gate stalled the probe past its timeout.
    TimedOut,
    /// The probed node is down for the current churn epoch.
    PeerDown,
}

/// Per-probe link fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Probability that a probe is silently dropped.
    pub loss_probability: f64,
    /// Probability that a probe times out.
    pub timeout_probability: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self {
            loss_probability: 0.0,
            timeout_probability: 0.0,
        }
    }
}

impl LinkFaults {
    /// Whether both probabilities are zero.
    pub fn is_empty(&self) -> bool {
        self.loss_probability == 0.0 && self.timeout_probability == 0.0
    }

    /// Validate.
    ///
    /// # Panics
    /// Panics if either probability is outside `[0, 1)` or their sum
    /// reaches 1 (some probes must be able to complete).
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.loss_probability),
            "loss_probability must be in [0,1), got {}",
            self.loss_probability
        );
        assert!(
            (0.0..1.0).contains(&self.timeout_probability),
            "timeout_probability must be in [0,1), got {}",
            self.timeout_probability
        );
        assert!(
            self.loss_probability + self.timeout_probability < 1.0,
            "loss + timeout probability must stay below 1"
        );
    }
}

/// Epoch-based crash/rejoin churn.
///
/// Time (the driver's tick or round counter) is divided into epochs of
/// `epoch_ticks`. In each epoch a node is down with `down_probability`,
/// decided deterministically per `(node, epoch)`; a crashed node rejoins
/// at the next epoch boundary with its state intact (a warm restart).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Epoch length in driver ticks (Vivaldi: neighbor-slot ticks; NPS:
    /// positioning rounds). Must be at least 1.
    pub epoch_ticks: u64,
    /// Probability a node spends a given epoch crashed.
    pub down_probability: f64,
}

impl ChurnModel {
    /// A churn model with the given epoch length and down probability.
    pub fn new(epoch_ticks: u64, down_probability: f64) -> Self {
        let m = Self {
            epoch_ticks,
            down_probability,
        };
        m.validate();
        m
    }

    /// The degenerate model of a node that is down for the entire run:
    /// probability exactly 1.0 in a single epoch spanning all of
    /// simulated time. Used as a per-node override to schedule total
    /// outages (e.g. a Surveyor blackout).
    pub fn permanent_outage() -> Self {
        Self::new(u64::MAX, 1.0)
    }

    /// Validate.
    ///
    /// # Panics
    /// Panics on a zero epoch length or a probability outside `[0, 1]`.
    /// Exactly 1.0 is allowed and means the node is always down.
    pub fn validate(&self) {
        assert!(self.epoch_ticks >= 1, "epoch_ticks must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.down_probability),
            "down_probability must be in [0,1], got {}",
            self.down_probability
        );
    }
}

/// A complete fault description attached to a [`crate::Network`].
///
/// The default plan injects nothing: every probe completes and every node
/// is permanently up, reproducing the fault-free behavior (and cost) of
/// the plain measurement API.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-probe loss/timeout probabilities, applied to every link.
    pub link: LinkFaults,
    /// Population-wide churn (None: nodes never crash).
    pub churn: Option<ChurnModel>,
    /// Per-node churn overrides (e.g. Surveyor outage schedules); a node
    /// listed here ignores the population-wide model entirely.
    pub node_churn: BTreeMap<usize, ChurnModel>,
}

impl FaultPlan {
    /// The empty plan: no faults (same as `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with per-link faults only.
    pub fn lossy(loss_probability: f64, timeout_probability: f64) -> Self {
        let plan = Self {
            link: LinkFaults {
                loss_probability,
                timeout_probability,
            },
            ..Self::default()
        };
        plan.validate();
        plan
    }

    /// Add population-wide churn.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        churn.validate();
        self.churn = Some(churn);
        self
    }

    /// Override churn for one node (e.g. a Surveyor outage schedule).
    pub fn with_node_churn(mut self, node: usize, churn: ChurnModel) -> Self {
        churn.validate();
        self.node_churn.insert(node, churn);
        self
    }

    /// Whether the plan injects nothing at all. The fast path every
    /// fault-free simulation takes.
    pub fn is_empty(&self) -> bool {
        self.link.is_empty() && self.churn.is_none() && self.node_churn.is_empty()
    }

    /// Validate all components.
    ///
    /// # Panics
    /// Panics if any probability or epoch length is out of range.
    pub fn validate(&self) {
        self.link.validate();
        if let Some(c) = &self.churn {
            c.validate();
        }
        for c in self.node_churn.values() {
            c.validate();
        }
    }

    /// Whether `node` is up at driver time `tick` — a pure function of
    /// `(seed, node, epoch)`, shared by every caller that needs the same
    /// answer (probe gating, tick skipping, Surveyor availability).
    pub fn node_up(&self, seed: u64, node: usize, tick: u64) -> bool {
        let model = match self.node_churn.get(&node) {
            Some(m) => m,
            None => match &self.churn {
                Some(m) => m,
                None => return true,
            },
        };
        if model.down_probability == 0.0 {
            return true;
        }
        let epoch = tick / model.epoch_ticks;
        let h = derive2(derive(seed, streams::CHRN), node as u64, epoch);
        unit(h) >= model.down_probability
    }

    /// The fate of the logical probe at `nonce` over the pair whose
    /// link-fault stream key is `link_key` (see [`link_key`]): `None`
    /// when it completes, else `Lost` or `TimedOut`.
    pub(crate) fn link_fate(&self, link_key: u64, nonce: u64) -> Option<ProbeFate> {
        if self.link.is_empty() {
            return None;
        }
        let u = unit(derive(link_key, nonce));
        if u < self.link.loss_probability {
            Some(ProbeFate::Lost)
        } else if u < self.link.loss_probability + self.link.timeout_probability {
            Some(ProbeFate::TimedOut)
        } else {
            None
        }
    }
}

/// The link-fault stream key of the pair `lo < hi`, computed once per
/// pair so that [`FaultPlan::link_fate`] costs one hash per probe. It
/// depends on the seed and the pair only, never on the plan, so a key
/// cached before a plan is attached stays valid under any plan.
pub(crate) fn link_key(seed: u64, lo: usize, hi: usize) -> u64 {
    let pair_key = derive((lo as u64) << 32 | hi as u64, streams::FALT);
    derive(derive(seed, streams::FALT), pair_key)
}

/// Map a hashed `u64` to a uniform value in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_faultless() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate();
        for nonce in 0..100 {
            assert_eq!(plan.link_fate(link_key(1, 0, 1), nonce), None);
        }
        for tick in 0..100 {
            assert!(plan.node_up(1, 3, tick));
        }
    }

    #[test]
    fn fault_rates_match_probabilities() {
        let plan = FaultPlan::lossy(0.2, 0.1);
        let n = 20_000;
        let (mut lost, mut timed_out) = (0usize, 0usize);
        for nonce in 0..n {
            match plan.link_fate(link_key(7, 0, 1), nonce) {
                Some(ProbeFate::Lost) => lost += 1,
                Some(ProbeFate::TimedOut) => timed_out += 1,
                _ => {}
            }
        }
        let loss_rate = lost as f64 / n as f64;
        let timeout_rate = timed_out as f64 / n as f64;
        assert!((loss_rate - 0.2).abs() < 0.01, "loss rate {loss_rate}");
        assert!(
            (timeout_rate - 0.1).abs() < 0.01,
            "timeout rate {timeout_rate}"
        );
    }

    #[test]
    fn fault_stream_is_independent_per_pair() {
        let plan = FaultPlan::lossy(0.5, 0.0);
        let fate = |hi| -> Vec<_> {
            (0..64)
                .map(|n| plan.link_fate(link_key(3, 0, hi), n))
                .collect()
        };
        let (fate_a, fate_b) = (fate(1), fate(2));
        assert_ne!(fate_a, fate_b, "pairs must draw from distinct streams");
    }

    #[test]
    fn churn_downtime_matches_probability_and_is_epoch_stable() {
        let plan = FaultPlan::none().with_churn(ChurnModel::new(8, 0.25));
        // Within one epoch the answer never changes.
        for tick in 0..8 {
            assert_eq!(plan.node_up(5, 2, tick), plan.node_up(5, 2, 0));
        }
        // Across many epochs the downtime fraction approaches 25%.
        let epochs = 8000u64;
        let down = (0..epochs).filter(|&e| !plan.node_up(5, 2, e * 8)).count();
        let rate = down as f64 / epochs as f64;
        assert!((rate - 0.25).abs() < 0.02, "downtime rate {rate}");
    }

    #[test]
    fn node_override_takes_precedence() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::new(4, 0.9))
            .with_node_churn(7, ChurnModel::new(4, 0.0));
        // Node 7 never crashes despite heavy population churn.
        for tick in 0..200 {
            assert!(plan.node_up(1, 7, tick));
        }
        // Others do.
        let down = (0..200).filter(|&t| !plan.node_up(1, 3, t)).count();
        assert!(down > 100, "population churn should hit node 3: {down}");
    }

    #[test]
    fn churn_is_independent_per_node() {
        let plan = FaultPlan::none().with_churn(ChurnModel::new(1, 0.5));
        let a: Vec<bool> = (0..64).map(|t| plan.node_up(2, 0, t)).collect();
        let b: Vec<bool> = (0..64).map(|t| plan.node_up(2, 1, t)).collect();
        assert_ne!(a, b, "nodes must churn independently");
    }

    #[test]
    #[should_panic(expected = "loss + timeout")]
    fn rejects_certain_failure() {
        FaultPlan::lossy(0.6, 0.5);
    }

    #[test]
    #[should_panic(expected = "epoch_ticks")]
    fn rejects_zero_epoch() {
        ChurnModel::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "down_probability")]
    fn rejects_probability_above_one() {
        ChurnModel::new(1, 1.5);
    }

    #[test]
    fn permanent_outage_is_always_down() {
        let plan = FaultPlan::none().with_node_churn(4, ChurnModel::permanent_outage());
        for tick in [0, 1, 17, 1 << 40, u64::MAX - 1] {
            assert!(!plan.node_up(9, 4, tick), "outage must hold at tick {tick}");
        }
        // Nodes without the override are untouched.
        assert!(plan.node_up(9, 5, 0));
    }

    #[test]
    fn serde_roundtrip() {
        let plan = FaultPlan::lossy(0.1, 0.05)
            .with_churn(ChurnModel::new(16, 0.02))
            .with_node_churn(3, ChurnModel::new(16, 0.01));
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
