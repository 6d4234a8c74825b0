//! Driver-side observability glue: one [`SimObs`] per simulation owns
//! the metrics [`Registry`], the optional run [`Journal`], and the
//! [`TickClock`], and is the **single source of truth** for every
//! counter the drivers used to keep in ad-hoc `DetectionReport` fields.
//! [`SimObs::detection_report`] derives the report structs from the
//! registry, so serialized outputs are unchanged while the journal gets
//! the same numbers for free.
//!
//! Determinism contract: every method here is called from the drivers'
//! **sequential** phases only (the node-order merge loop, the round boundary,
//! `arm_detection`) — never from inside a `par_map_mut` closure — and
//! journal emission only *reads* registry state. Attaching a journal
//! therefore cannot perturb a single simulation output
//! (`crates/sim/tests/obs_invariance.rs` proves it), and with the
//! journal absent the added cost per event is one pre-resolved counter
//! bump.

use crate::metrics::{AdversaryReport, DetectionReport, FaultReport};
use ices_obs::{
    names, Clock, CounterId, GaugeId, HistogramId, Journal, Registry, Snapshot, TickClock,
};
use ices_stats::Confusion;

/// Pre-resolved instrument handles (registered once at construction).
#[derive(Debug, Clone, Copy)]
struct Ids {
    tp: CounterId,
    fp: CounterId,
    tn: CounterId,
    fn_: CounterId,
    replacements: CounterId,
    reprieves: CounterId,
    filter_refreshes: CounterId,
    probe_ok: CounterId,
    lost_probes: CounterId,
    timed_out_probes: CounterId,
    peer_down_probes: CounterId,
    retried_probes: CounterId,
    coasted_steps: CounterId,
    evictions: CounterId,
    node_down_ticks: CounterId,
    stale_filter_fallbacks: CounterId,
    deferred_arms: CounterId,
    late_arms: CounterId,
    active_lies: CounterId,
    clamped_rtts: CounterId,
    cross_checks: CounterId,
    defense_rejections: CounterId,
    drift_ms: GaugeId,
    mean_local_error: GaugeId,
    relative_error: HistogramId,
}

/// Per-simulation observability state. See the module docs.
#[derive(Debug)]
pub struct SimObs {
    registry: Registry,
    journal: Option<Journal>,
    clock: TickClock,
    /// Counter values at the last emitted tick line (delta base).
    last: Snapshot,
    ids: Ids,
}

impl SimObs {
    /// Fresh registry with every driver instrument pre-registered, no
    /// journal attached.
    pub fn new() -> Self {
        let mut registry = Registry::new();
        let ids = Ids {
            tp: registry.counter(names::DETECT_TP),
            fp: registry.counter(names::DETECT_FP),
            tn: registry.counter(names::DETECT_TN),
            fn_: registry.counter(names::DETECT_FN),
            replacements: registry.counter(names::REPLACEMENTS),
            reprieves: registry.counter(names::REPRIEVES),
            filter_refreshes: registry.counter(names::FILTER_REFRESHES),
            probe_ok: registry.counter(names::PROBE_OK),
            lost_probes: registry.counter(names::LOST_PROBES),
            timed_out_probes: registry.counter(names::TIMED_OUT_PROBES),
            peer_down_probes: registry.counter(names::PEER_DOWN_PROBES),
            retried_probes: registry.counter(names::RETRIED_PROBES),
            coasted_steps: registry.counter(names::COASTED_STEPS),
            evictions: registry.counter(names::EVICTIONS),
            node_down_ticks: registry.counter(names::NODE_DOWN_TICKS),
            stale_filter_fallbacks: registry.counter(names::STALE_FILTER_FALLBACKS),
            deferred_arms: registry.counter(names::DEFERRED_ARMS),
            late_arms: registry.counter(names::LATE_ARMS),
            active_lies: registry.counter(names::ATTACK_ACTIVE_LIES),
            clamped_rtts: registry.counter(names::ATTACK_CLAMPED_RTTS),
            cross_checks: registry.counter(names::DEFENSE_CROSS_CHECKS),
            defense_rejections: registry.counter(names::DEFENSE_REJECTIONS),
            drift_ms: registry.gauge(names::ATTACK_DRIFT_MS),
            mean_local_error: registry.gauge(names::MEAN_LOCAL_ERROR),
            relative_error: registry.histogram(names::RELATIVE_ERROR, names::RELATIVE_ERROR_BOUNDS),
        };
        let last = registry.snapshot();
        Self {
            registry,
            journal: None,
            clock: TickClock::new(),
            last,
            ids,
        }
    }

    /// Attach a journal and stamp its `meta` line. The delta base
    /// resets so the first tick line reports changes from now on.
    pub fn enable_journal(&mut self, mut journal: Journal, driver: &str, nodes: usize, seed: u64) {
        journal.meta(self.clock.now(), driver, nodes, seed);
        self.last = self.registry.snapshot();
        self.journal = Some(journal);
    }

    /// Whether a journal is attached (callers gate journal-only work —
    /// gauge computation, histogram feeds — on this).
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Detach the journal, emitting a `summary` line first, and return
    /// its accumulated bytes (in-memory journals only; file journals
    /// flush to disk and return `None`).
    pub fn finish_journal(&mut self) -> Option<Vec<u8>> {
        let t = self.clock.now();
        let journal = self.journal.as_mut()?;
        let counters: Vec<(&'static str, u64)> = self.registry.counters().collect();
        let gauges: Vec<(&'static str, f64)> = self.registry.gauges().collect();
        journal.summary(t, &counters, &gauges);
        self.journal.take().and_then(Journal::finish)
    }

    /// Start of tick `tick`: advance the clock so discrete events
    /// emitted while the tick is processed carry its index. No journal
    /// output.
    #[inline]
    pub fn begin_tick(&mut self, tick: u64) {
        self.clock.set(tick);
    }

    /// Tick boundary: advance the clock to `tick` and, with a journal
    /// attached, emit the tick line (counter deltas + current gauges)
    /// and rebase the delta snapshot.
    pub fn tick_boundary(&mut self, tick: u64) {
        self.clock.set(tick);
        if let Some(journal) = &mut self.journal {
            let deltas = self.registry.delta(&self.last);
            let gauges: Vec<(&'static str, f64)> = self.registry.gauges().collect();
            journal.tick(tick, &deltas, &gauges);
            self.last = self.registry.snapshot();
        }
    }

    /// Journal a named phase span of `ticks` ticks ending now.
    pub fn phase(&mut self, name: &str, ticks: u64) {
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.phase(t, name, ticks);
        }
    }

    /// One detector verdict: `malicious` is ground truth, `rejected`
    /// the test outcome (same contract as [`Confusion::record`]).
    #[inline]
    pub fn record_confusion(&mut self, malicious: bool, rejected: bool) {
        let id = match (malicious, rejected) {
            (true, true) => self.ids.tp,
            (true, false) => self.ids.fn_,
            (false, true) => self.ids.fp,
            (false, false) => self.ids.tn,
        };
        self.registry.inc(id);
    }

    /// Add `n` first-time-peer reprieves.
    #[inline]
    pub fn reprieves(&mut self, n: u64) {
        self.registry.add(self.ids.reprieves, n);
    }

    /// A rejected peer was replaced; journals the edge.
    pub fn replacement(&mut self, node: usize, peer: usize) {
        self.registry.inc(self.ids.replacements);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.pair_event(t, "reject", node, peer);
        }
    }

    /// A node refreshed its filter from a live Surveyor.
    pub fn filter_refresh(&mut self, node: usize) {
        self.registry.inc(self.ids.filter_refreshes);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.node_event(t, "refresh", node);
        }
    }

    /// A refresh found no live Surveyor; stale calibration kept.
    pub fn stale_filter_fallback(&mut self, node: usize) {
        self.registry.inc(self.ids.stale_filter_fallbacks);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.node_event(t, "stale_fallback", node);
        }
    }

    /// A persistently dead neighbor/reference point was evicted.
    pub fn eviction(&mut self, node: usize) {
        self.registry.inc(self.ids.evictions);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.node_event(t, "evict", node);
        }
    }

    /// Arming was deferred: the Surveyor registry sampled empty.
    pub fn defer_arm(&mut self, node: usize) {
        self.registry.inc(self.ids.deferred_arms);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.node_event(t, "defer_arm", node);
        }
    }

    /// A previously deferred node armed successfully.
    pub fn late_arm(&mut self, node: usize) {
        self.registry.inc(self.ids.late_arms);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.node_event(t, "arm", node);
        }
    }

    /// Add `n` probes that completed and produced a measurement.
    #[inline]
    pub fn probes_ok(&mut self, n: u64) {
        self.registry.add(self.ids.probe_ok, n);
    }

    /// A probe was lost after exhausting retries.
    #[inline]
    pub fn lost_probe(&mut self) {
        self.registry.inc(self.ids.lost_probes);
    }

    /// A probe timed out after exhausting retries.
    #[inline]
    pub fn timed_out_probe(&mut self) {
        self.registry.inc(self.ids.timed_out_probes);
    }

    /// A probe was skipped because the peer was crashed.
    #[inline]
    pub fn peer_down_probe(&mut self) {
        self.registry.inc(self.ids.peer_down_probes);
    }

    /// Add `n` probes that completed only after at least one retry.
    #[inline]
    pub fn retried_probes(&mut self, n: u64) {
        self.registry.add(self.ids.retried_probes, n);
    }

    /// Add `n` secured-node steps absorbed as detector coasts.
    #[inline]
    pub fn coasted_steps(&mut self, n: u64) {
        self.registry.add(self.ids.coasted_steps, n);
    }

    /// The node spent this tick crashed.
    #[inline]
    pub fn node_down_tick(&mut self) {
        self.registry.inc(self.ids.node_down_ticks);
    }

    /// Add `n` tampered samples the adversary injected this tick
    /// (ground truth at driver intake).
    #[inline]
    pub fn active_lies(&mut self, n: u64) {
        self.registry.add(self.ids.active_lies, n);
    }

    /// Add `n` tampered samples whose RTT the intake clamp raised.
    #[inline]
    pub fn clamped_rtts(&mut self, n: u64) {
        self.registry.add(self.ids.clamped_rtts, n);
    }

    /// Add `n` cross-verification witness probes.
    #[inline]
    pub fn cross_checks(&mut self, n: u64) {
        self.registry.add(self.ids.cross_checks, n);
    }

    /// The cross-verification defense rejected a sample; journals the
    /// edge like a detector rejection, under its own event name.
    pub fn defense_rejection(&mut self, node: usize, peer: usize) {
        self.registry.inc(self.ids.defense_rejections);
        let t = self.clock.now();
        if let Some(journal) = &mut self.journal {
            journal.pair_event(t, "defense_reject", node, peer);
        }
    }

    /// Set the accumulated slow-drift displacement gauge, in ms.
    #[inline]
    pub fn set_drift_ms(&mut self, x: f64) {
        self.registry.set(self.ids.drift_ms, x);
    }

    /// Feed one recorded relative error into the journal-only histogram.
    /// Call sites gate on [`SimObs::journal_enabled`] so the disabled
    /// path does no bucket work.
    #[inline]
    pub fn observe_relative_error(&mut self, x: f64) {
        self.registry.observe(self.ids.relative_error, x);
    }

    /// Set the journal-only mean-local-error gauge.
    #[inline]
    pub fn set_mean_local_error(&mut self, x: f64) {
        self.registry.set(self.ids.mean_local_error, x);
    }

    /// Derive the externally visible [`DetectionReport`] from the
    /// registry — the report struct is a *view* over the counters, so
    /// its serialized form is exactly what the ad-hoc plumbing
    /// produced.
    pub fn detection_report(&self) -> DetectionReport {
        let c = |id| self.registry.counter_value(id);
        DetectionReport {
            confusion: Confusion {
                true_positives: c(self.ids.tp),
                false_positives: c(self.ids.fp),
                true_negatives: c(self.ids.tn),
                false_negatives: c(self.ids.fn_),
            },
            replacements: c(self.ids.replacements),
            reprieves: c(self.ids.reprieves),
            filter_refreshes: c(self.ids.filter_refreshes),
            faults: FaultReport {
                lost_probes: c(self.ids.lost_probes),
                timed_out_probes: c(self.ids.timed_out_probes),
                peer_down_probes: c(self.ids.peer_down_probes),
                retried_probes: c(self.ids.retried_probes),
                coasted_steps: c(self.ids.coasted_steps),
                evictions: c(self.ids.evictions),
                node_down_ticks: c(self.ids.node_down_ticks),
                stale_filter_fallbacks: c(self.ids.stale_filter_fallbacks),
                deferred_arms: c(self.ids.deferred_arms),
                late_arms: c(self.ids.late_arms),
            },
            adversary: AdversaryReport {
                active_lies: c(self.ids.active_lies),
                clamped_rtts: c(self.ids.clamped_rtts),
                cross_checks: c(self.ids.cross_checks),
                rejections: c(self.ids.defense_rejections),
                // Gauges are NaN until first set; a never-drifting run
                // reports zero so report equality stays well-defined.
                drift_accumulated_ms: {
                    let drift = self.registry.gauge_value(self.ids.drift_ms);
                    if drift.is_finite() {
                        drift
                    } else {
                        0.0
                    }
                },
            },
        }
    }
}

impl Default for SimObs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_derived_from_registry_counters() {
        let mut obs = SimObs::new();
        obs.record_confusion(true, true);
        obs.record_confusion(false, true);
        obs.record_confusion(false, false);
        obs.record_confusion(true, false);
        obs.reprieves(1);
        obs.replacement(3, 7);
        obs.filter_refresh(3);
        obs.lost_probe();
        obs.retried_probes(2);
        obs.coasted_steps(4);
        obs.defer_arm(9);
        obs.late_arm(9);
        obs.active_lies(3);
        obs.clamped_rtts(1);
        obs.cross_checks(6);
        obs.defense_rejection(3, 7);
        obs.set_drift_ms(12.5);
        let report = obs.detection_report();
        assert_eq!(report.confusion.true_positives, 1);
        assert_eq!(report.confusion.false_positives, 1);
        assert_eq!(report.confusion.true_negatives, 1);
        assert_eq!(report.confusion.false_negatives, 1);
        assert_eq!(report.replacements, 1);
        assert_eq!(report.reprieves, 1);
        assert_eq!(report.filter_refreshes, 1);
        assert_eq!(report.faults.lost_probes, 1);
        assert_eq!(report.faults.retried_probes, 2);
        assert_eq!(report.faults.coasted_steps, 4);
        assert_eq!(report.faults.deferred_arms, 1);
        assert_eq!(report.faults.late_arms, 1);
        assert_eq!(report.adversary.active_lies, 3);
        assert_eq!(report.adversary.clamped_rtts, 1);
        assert_eq!(report.adversary.cross_checks, 6);
        assert_eq!(report.adversary.rejections, 1);
        assert_eq!(report.adversary.drift_accumulated_ms, 12.5);
    }

    #[test]
    fn journal_records_ticks_and_events() {
        let mut obs = SimObs::new();
        obs.enable_journal(Journal::in_memory(), "vivaldi", 10, 42);
        obs.probes_ok(1);
        obs.probes_ok(2);
        obs.eviction(5);
        obs.tick_boundary(1);
        obs.phase("clean", 1);
        let bytes = obs
            .finish_journal()
            .expect("in-memory journal returns bytes");
        let text = String::from_utf8(bytes).expect("journal is utf-8");
        let (run, errors) = ices_obs::report::parse(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(run.ticks.len(), 1);
        assert_eq!(run.ticks[0].delta(names::PROBE_OK), 3);
        assert_eq!(run.event_count("evict"), 1);
        assert_eq!(run.phases.len(), 1);
        assert_eq!(
            run.summary_counters
                .iter()
                .find(|(n, _)| n == names::EVICTIONS)
                .map(|(_, v)| *v),
            Some(1)
        );
    }

    #[test]
    fn counters_identical_with_and_without_journal() {
        let drive = |journal: bool| -> DetectionReport {
            let mut obs = SimObs::new();
            if journal {
                obs.enable_journal(Journal::in_memory(), "x", 1, 0);
            }
            obs.record_confusion(false, false);
            obs.lost_probe();
            obs.tick_boundary(1);
            obs.detection_report()
        };
        assert_eq!(drive(false), drive(true));
    }
}
