//! `ices-obs` — deterministic observability for the simulation stack.
//!
//! Three pieces, composable but independent:
//!
//! * [`Registry`] — typed metrics (counters / gauges / fixed-bucket
//!   histograms) keyed by `&'static str` names, with point-in-time
//!   [`Snapshot`]s and per-tick deltas. `Vec`-backed, registration
//!   order, no hashing (DET01).
//! * [`Journal`] — a buffered JSONL event stream: tick-stamped counter
//!   deltas, phase timings, and discrete events (evictions, rejections,
//!   filter refreshes, deferred arms). Never panics; I/O errors make it
//!   inert, not fatal.
//! * [`Clock`] / [`TickClock`] — the only time source in the crate.
//!   Simulation time is the tick counter; **no wall clock exists
//!   anywhere in `ices-obs`** (enforced by audit rule OBS01). Benches
//!   that want real time implement `Clock` on their side of the DET02
//!   fence.
//!
//! The determinism contract: with a journal attached or absent, a
//! simulation's observable outputs (coordinates, traces, reports) are
//! bit-for-bit identical — the registry is the single source of truth
//! for counters either way, and journal emission only *reads* state, on
//! the sequential merge path. `crates/sim/tests/obs_invariance.rs`
//! holds this.

#![forbid(unsafe_code)]

mod clock;
mod journal;
mod metrics;
pub mod report;

pub use clock::{Clock, TickClock};
pub use journal::{Journal, SCHEMA_VERSION};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, Registry, Snapshot};

/// Canonical metric names shared by the drivers, the journal schema,
/// and the report renderer. One flat namespace, dot-separated.
pub mod names {
    /// Detector verdicts (confusion-matrix cells, attack window only).
    pub const DETECT_TP: &str = "detect.tp";
    pub const DETECT_FP: &str = "detect.fp";
    pub const DETECT_TN: &str = "detect.tn";
    pub const DETECT_FN: &str = "detect.fn";

    /// Protocol-level security actions.
    pub const REPLACEMENTS: &str = "protocol.replacements";
    pub const REPRIEVES: &str = "protocol.reprieves";
    pub const FILTER_REFRESHES: &str = "protocol.filter_refreshes";

    /// Probe outcomes.
    pub const PROBE_OK: &str = "probe.ok";

    /// Fault-injection fallout (mirrors `FaultReport`).
    pub const LOST_PROBES: &str = "fault.lost_probes";
    pub const TIMED_OUT_PROBES: &str = "fault.timed_out_probes";
    pub const PEER_DOWN_PROBES: &str = "fault.peer_down_probes";
    pub const RETRIED_PROBES: &str = "fault.retried_probes";
    pub const COASTED_STEPS: &str = "fault.coasted_steps";
    pub const EVICTIONS: &str = "fault.evictions";
    pub const NODE_DOWN_TICKS: &str = "fault.node_down_ticks";
    pub const STALE_FILTER_FALLBACKS: &str = "fault.stale_filter_fallbacks";
    /// Nodes whose detection arming was deferred because the Surveyor
    /// registry produced an empty candidate draw (total outage).
    pub const DEFERRED_ARMS: &str = "fault.deferred_arms";
    /// Deferred nodes that successfully armed on a later tick.
    pub const LATE_ARMS: &str = "fault.late_arms";

    /// Adversary activity (ground truth, counted at driver intake).
    pub const ATTACK_ACTIVE_LIES: &str = "attack.active_lies";
    /// Tampered samples whose RTT the intake clamp had to raise back to
    /// the measured value (the RTT-deflation invariant).
    pub const ATTACK_CLAMPED_RTTS: &str = "attack.clamped_rtts";
    /// Gauge: displacement a slow-drift adversary has accumulated, ms.
    pub const ATTACK_DRIFT_MS: &str = "attack.drift_accumulated_ms";

    /// Cross-verification defense activity.
    pub const DEFENSE_CROSS_CHECKS: &str = "defense.cross_checks";
    pub const DEFENSE_REJECTIONS: &str = "defense.rejections";

    /// Gauge: mean node-local relative embedding error (journal-only).
    pub const MEAN_LOCAL_ERROR: &str = "embed.mean_local_error";

    /// Histogram: relative error of sampled honest pairs.
    pub const RELATIVE_ERROR: &str = "embed.relative_error";

    /// Bucket bounds for [`RELATIVE_ERROR`].
    pub const RELATIVE_ERROR_BOUNDS: &[f64] =
        &[0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0];

    /// Service daemon (`ices-svc`) traffic. Names stay within the wire
    /// codec's 32-byte counter-name cap so a `StatsReply` can carry
    /// every one of them.
    pub const SVC_RX: &str = "svc.rx_datagrams";
    pub const SVC_TX: &str = "svc.tx_datagrams";
    /// Datagrams the wire codec refused (perfbench's `svc_loopback`
    /// output checks pin this at zero for well-formed traffic).
    pub const SVC_DECODE_ERRORS: &str = "svc.decode_errors";
    pub const SVC_PROBES: &str = "svc.probes";
    pub const SVC_CALIBRATIONS: &str = "svc.calibrations";
    pub const SVC_REGISTRATIONS: &str = "svc.registrations";
    pub const SVC_CLAIMS: &str = "svc.claims";
    pub const SVC_CLAIMS_ACCEPTED: &str = "svc.claims_accepted";
    pub const SVC_CLAIMS_REPRIEVED: &str = "svc.claims_reprieved";
    pub const SVC_CLAIMS_REJECTED: &str = "svc.claims_rejected";
    pub const SVC_CERTS_ISSUED: &str = "svc.certs_issued";
    /// Claims carrying a certificate that failed verification.
    pub const SVC_BAD_CERTS: &str = "svc.bad_certs";
    /// Claims refused because no Surveyor has armed the filter yet.
    pub const SVC_NOT_READY: &str = "svc.not_ready";
}
