//! Metric containers the experiments fill in.

use ices_stats::{Confusion, Ecdf};
use serde::{Deserialize, Serialize};

/// Fault-path bookkeeping for one run. All counters stay zero with an
/// empty [`ices_netsim::FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Probes lost in the network (after exhausting retries).
    pub lost_probes: u64,
    /// Probes that timed out (after exhausting retries).
    pub timed_out_probes: u64,
    /// Probes skipped because the peer was crashed for the tick.
    pub peer_down_probes: u64,
    /// Probes that completed only after at least one retry.
    pub retried_probes: u64,
    /// Secured-node steps absorbed as detector coasts (missing sample).
    pub coasted_steps: u64,
    /// Persistently dead neighbors/reference points evicted.
    pub evictions: u64,
    /// Node-ticks spent crashed (the node skipped its own step).
    pub node_down_ticks: u64,
    /// Filter refreshes that found no live Surveyor and kept the stale
    /// calibration instead.
    pub stale_filter_fallbacks: u64,
    /// Nodes whose detection arming was deferred because the Surveyor
    /// registry produced an empty candidate draw (total outage at arm
    /// time); each deferral is retried on the following ticks.
    pub deferred_arms: u64,
    /// Deferred nodes that successfully armed on a later tick once a
    /// Surveyor came back.
    pub late_arms: u64,
}

impl FaultReport {
    /// Probes that produced no measurement, of any failure kind.
    pub fn total_failed_probes(&self) -> u64 {
        self.lost_probes + self.timed_out_probes + self.peer_down_probes
    }
}

/// Adversary- and defense-path bookkeeping for one run. All counters
/// stay zero under [`ices_attack::HonestWorld`] with the defense off,
/// and live in their own report — *not* in [`FaultReport`] — so
/// fault-only runs keep asserting a default fault block.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversaryReport {
    /// Tampered samples the adversary actually injected (ground truth,
    /// counted at driver intake before any vetting).
    pub active_lies: u64,
    /// Tampered samples whose RTT the intake clamp raised back up to
    /// the measured value (RTT-deflation invariant violations).
    pub clamped_rtts: u64,
    /// Cross-verification witness probes issued by the defense.
    pub cross_checks: u64,
    /// Samples the defense rejected on geometric inconsistency (before
    /// they reached the innovation test).
    pub rejections: u64,
    /// Final value of the slow-drift displacement gauge, in ms (zero
    /// for non-drifting adversaries).
    pub drift_accumulated_ms: f64,
}

/// Detection-quality report for one run (§5.1 metrics).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Aggregate confusion over all vetted embedding steps of honest
    /// nodes.
    pub confusion: Confusion,
    /// Number of peer replacements honest nodes performed.
    pub replacements: u64,
    /// Number of reprieves granted to first-time peers.
    pub reprieves: u64,
    /// Number of filter refreshes (half-round-rejected rule, or sample
    /// starvation under faults).
    pub filter_refreshes: u64,
    /// Fault-injection bookkeeping (all zero on a clean network).
    pub faults: FaultReport,
    /// Adversary/defense bookkeeping (all zero in honest defense-off
    /// runs).
    pub adversary: AdversaryReport,
}

/// System-accuracy report: how well final coordinates predict base RTTs
/// between honest nodes (the quantity Figs 13/15 plot CDFs of).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Relative estimation errors over sampled honest pairs.
    pub relative_errors: Vec<f64>,
    /// Per-node 95th percentile of relative errors (Figs 4/5 plot the
    /// CDF of these).
    pub p95_per_node: Vec<f64>,
}

impl AccuracyReport {
    /// Whether the run sampled zero honest pairs (heavy loss/churn can
    /// starve the sample entirely — e.g. a full Surveyor outage with
    /// every probe dropped).
    pub fn is_empty(&self) -> bool {
        self.relative_errors.is_empty()
    }

    /// Number of sampled honest pairs.
    pub fn len(&self) -> usize {
        self.relative_errors.len()
    }

    /// ECDF over all sampled relative errors, or `None` when the run
    /// sampled zero honest pairs.
    pub fn ecdf(&self) -> Option<Ecdf> {
        (!self.relative_errors.is_empty()).then(|| Ecdf::new(self.relative_errors.clone()))
    }

    /// ECDF over the per-node 95th percentiles, or `None` when no node
    /// accumulated any samples.
    pub fn p95_ecdf(&self) -> Option<Ecdf> {
        (!self.p95_per_node.is_empty()).then(|| Ecdf::new(self.p95_per_node.clone()))
    }

    /// Median relative error — the headline accuracy number.
    ///
    /// Returns `NaN` for an empty report (zero sampled pairs), so
    /// callers that only ever see populated reports keep their plain
    /// `f64` flow; degraded-run consumers should check
    /// [`AccuracyReport::is_empty`] first.
    pub fn median(&self) -> f64 {
        self.ecdf().map(|e| e.median()).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_report_totals_failures() {
        let f = FaultReport {
            lost_probes: 3,
            timed_out_probes: 2,
            peer_down_probes: 5,
            ..FaultReport::default()
        };
        assert_eq!(f.total_failed_probes(), 10);
    }

    #[test]
    fn accuracy_report_statistics() {
        let r = AccuracyReport {
            relative_errors: vec![0.1, 0.2, 0.3, 0.4],
            p95_per_node: vec![0.35, 0.45],
        };
        assert_eq!(r.median(), 0.2);
        assert_eq!(r.p95_ecdf().expect("non-empty").len(), 2);
    }

    /// Regression: a degraded run that samples zero honest pairs must
    /// yield an inert report, not a panic (`Ecdf::new` asserts on
    /// empty input).
    #[test]
    fn empty_accuracy_report_is_safe() {
        let r = AccuracyReport {
            relative_errors: Vec::new(),
            p95_per_node: Vec::new(),
        };
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.ecdf().is_none());
        assert!(r.p95_ecdf().is_none());
        assert!(r.median().is_nan());
    }
}
