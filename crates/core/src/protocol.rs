//! The generic detection protocol (§4.2 of the paper).
//!
//! [`SecureNode`] wraps any embedding node (Vivaldi, NPS, …) and vets
//! every embedding step with the innovation test before letting it touch
//! the coordinate:
//!
//! * **Accepted** steps update both the filter and the embedding.
//! * **Rejected** steps are aborted, the observation discarded, and the
//!   peer flagged for replacement (a new neighbor in Vivaldi, a new
//!   reference point in NPS).
//! * **First-time peers** get one chance at a reprieve: a second,
//!   stricter hypothesis test at significance `e_l·α` (scaled by the
//!   node's own confidence). A converged node (`e_l` small → wide
//!   threshold) affords a joining peer time to converge; an unconverged
//!   node grants few reprieves because it cannot afford aborted steps.
//! * When **half the node's peers get rejected within one embedding
//!   round**, the filter parameters are presumed stale and the node asks
//!   the Surveyor infrastructure for fresh ones ([`SecureStep`] callers
//!   observe this through [`SecureNode::end_round`]).

use crate::batch::DetectorBank;
use crate::detector::{Detector, Verdict};
use crate::ledger::PeerLedger;
use crate::model::StateSpaceParams;
use ices_coord::{Embedding, PeerSample, StepOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid [`SecurityConfig`] field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConfigError {
    /// `alpha` outside `(0, 1)`.
    InvalidAlpha(f64),
    /// `refresh_fraction` outside `(0, 1]`.
    InvalidRefreshFraction(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidAlpha(a) => {
                write!(f, "alpha must be in (0,1), got {a}")
            }
            ConfigError::InvalidRefreshFraction(r) => {
                write!(f, "refresh_fraction must be in (0,1], got {r}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Knobs of the detection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecurityConfig {
    /// Significance level `α` of the primary test (the paper: 5%).
    pub alpha: f64,
    /// Whether first-time peers may be reprieved (ablation switch).
    pub reprieve_enabled: bool,
    /// Fraction of a round's peers whose rejection triggers a filter
    /// refresh (the paper: half).
    pub refresh_fraction: f64,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SecurityConfig {
    /// The paper's protocol: α = 5%, reprieves on, refresh at half.
    pub fn paper_default() -> Self {
        Self {
            alpha: 0.05,
            reprieve_enabled: true,
            refresh_fraction: 0.5,
        }
    }

    /// Validate invariants: `alpha ∈ (0,1)` and
    /// `refresh_fraction ∈ (0,1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::InvalidAlpha(self.alpha));
        }
        if !(self.refresh_fraction > 0.0 && self.refresh_fraction <= 1.0) {
            return Err(ConfigError::InvalidRefreshFraction(self.refresh_fraction));
        }
        Ok(())
    }
}

/// The vetted outcome of one embedding step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SecureStep {
    /// The step passed the test and was applied to the embedding.
    Accepted {
        /// What the embedding did with the sample.
        outcome: StepOutcome,
        /// The test's verdict (not suspicious).
        verdict: Verdict,
    },
    /// The step was flagged, but the peer — seen for the first time —
    /// passed the secondary `e_l·α` test: the step is aborted but the
    /// peer is kept for a later retry.
    Reprieved {
        /// The primary test's verdict (suspicious).
        verdict: Verdict,
        /// The secondary threshold the innovation stayed under.
        reprieve_threshold: f64,
    },
    /// The step was flagged and the peer should be replaced.
    Rejected {
        /// The test's verdict (suspicious).
        verdict: Verdict,
    },
}

impl SecureStep {
    /// Whether the embedding step was completed.
    pub fn accepted(&self) -> bool {
        matches!(self, SecureStep::Accepted { .. })
    }

    /// Whether the caller should replace this peer.
    pub fn replace_peer(&self) -> bool {
        matches!(self, SecureStep::Rejected { .. })
    }

    /// The primary verdict regardless of outcome.
    pub fn verdict(&self) -> &Verdict {
        match self {
            SecureStep::Accepted { verdict, .. }
            | SecureStep::Reprieved { verdict, .. }
            | SecureStep::Rejected { verdict } => verdict,
        }
    }
}

/// What a completed round tells the node to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundAction {
    /// Keep going with the current filter.
    Continue,
    /// Too many rejections this round: fetch fresh filter parameters
    /// from the (coordinate-)closest Surveyor.
    RefreshFilter,
}

/// An embedding node protected by the detection protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SecureNode<E> {
    inner: E,
    detector: Detector,
    config: SecurityConfig,
    /// Surveyor whose parameters currently drive the filter.
    filter_source: usize,
    /// Peers tested ever and in the current round.
    ledger: PeerLedger,
    /// Lifetime counts, for diagnostics.
    accepted: u64,
    reprieved: u64,
    rejected: u64,
}

impl<E: Embedding> SecureNode<E> {
    /// Wrap an embedding node with a detector calibrated from
    /// `params` (obtained from Surveyor `filter_source`).
    ///
    /// # Errors
    /// Returns the [`ConfigError`] of an invalid `config`.
    pub fn new(
        inner: E,
        params: StateSpaceParams,
        filter_source: usize,
        config: SecurityConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            inner,
            detector: Detector::new(params, config.alpha),
            config,
            filter_source,
            ledger: PeerLedger::new(),
            accepted: 0,
            reprieved: 0,
            rejected: 0,
        })
    }

    /// The wrapped embedding node.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Mutable access to the wrapped node (NPS round completion etc.).
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// The detector (diagnostics).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Surveyor id whose parameters the filter currently runs on.
    pub fn filter_source(&self) -> usize {
        self.filter_source
    }

    /// Lifetime `(accepted, reprieved, rejected)` step counts.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.accepted, self.reprieved, self.rejected)
    }

    /// Prime the freshly installed filter with the node's own recent
    /// *clean* relative-error history (no testing — the samples predate
    /// the filter).
    ///
    /// The calibrated `(w₀, p₀)` describe the state at the start of an
    /// embedding from scratch; a node that adopts a filter mid-life is
    /// already converged, and without priming the filter would spend its
    /// first tens of steps flagging perfectly normal observations while
    /// `β`-decay catches up.
    pub fn prime(&mut self, recent_clean: &[f64]) {
        for &d in recent_clean {
            self.detector.accept(d);
        }
    }

    /// Vet one embedding step and apply it if it passes (§4.1–4.2).
    pub fn step(&mut self, sample: &PeerSample) -> SecureStep {
        let d = self.inner.probe(sample);
        let verdict = self.detector.evaluate(d);
        let first_time = self.ledger.test(sample.peer);

        if !verdict.suspicious {
            self.detector.accept(d);
            let outcome = self.inner.apply_step(sample);
            self.accepted += 1;
            return SecureStep::Accepted { outcome, verdict };
        }

        // Suspicious. First-time peers may earn a reprieve at the
        // stricter significance e_l·α (a *smaller* α gives a *larger*
        // threshold, i.e. more leniency — and a confident node with a
        // small e_l is the most lenient).
        if self.config.reprieve_enabled && first_time {
            let el = self.inner.local_error().clamp(1e-6, 1.0);
            let alpha2 = (el * self.config.alpha).clamp(1e-9, 1.0 - 1e-9);
            let reprieve_threshold = self.detector.threshold_at(alpha2);
            if verdict.innovation.abs() < reprieve_threshold {
                self.reprieved += 1;
                return SecureStep::Reprieved {
                    verdict,
                    reprieve_threshold,
                };
            }
        }

        self.ledger.reject(sample.peer);
        self.rejected += 1;
        SecureStep::Rejected { verdict }
    }

    /// Absorb an embedding step whose probe produced **no measurement**
    /// (lost or timed out): the detector coasts — a Kalman time-update
    /// with no measurement-update — so its innovation statistics widen
    /// honestly instead of going stale. The step is *not* a test: the
    /// peer is neither counted in the round nor marked rejected, and
    /// the embedding is untouched.
    ///
    /// Consecutive missing samples accumulate into the detector's
    /// sample-starvation signal, which [`SecureNode::end_round`] turns
    /// into a [`RoundAction::RefreshFilter`] request.
    pub fn step_missing(&mut self) {
        self.detector.coast();
    }

    /// Close the current embedding round. Returns
    /// [`RoundAction::RefreshFilter`] when at least `refresh_fraction`
    /// of the round's distinct peers were rejected — the signal that the
    /// filter parameters have gone stale — or when the detector is
    /// sample-starved (a long run of missing samples has coasted the
    /// filter to its stationary prior).
    pub fn end_round(&mut self) -> RoundAction {
        let (peers, rejected) = self.ledger.end_round();
        if self.detector.starved()
            || (peers > 0 && (rejected as f64) >= (peers as f64) * self.config.refresh_fraction)
        {
            RoundAction::RefreshFilter
        } else {
            RoundAction::Continue
        }
    }

    /// Install fresh filter parameters obtained from Surveyor
    /// `source`.
    pub fn refresh_filter(&mut self, params: StateSpaceParams, source: usize) {
        self.detector.recalibrate(params);
        self.filter_source = source;
    }
}

/// One detection event for the batched vetting sweep: what a single
/// `SecureNode` would have seen at one embedding step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum VetEvent {
    /// A measured sample to vet — the batched [`SecureNode::step`].
    Sample(PeerSample),
    /// A lost or timed-out probe — the batched
    /// [`SecureNode::step_missing`].
    Missing,
}

/// Reusable per-column buffers for the vetting sweeps, owned by the
/// caller's [`DetectorBank`] so they persist across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnScratch {
    obs: Vec<f64>,
    active: Vec<bool>,
    accept: Vec<bool>,
    coast: Vec<bool>,
    /// Per slot: the column's sample is the node's first test of its
    /// peer (the ledger pass's answer).
    first_time: Vec<bool>,
    verdicts: Vec<Option<Verdict>>,
}

impl ColumnScratch {
    fn reset(&mut self, n: usize) {
        self.obs.clear();
        self.obs.resize(n, 0.0);
        self.active.clear();
        self.active.resize(n, false);
        self.accept.clear();
        self.accept.resize(n, false);
        self.coast.clear();
        self.coast.resize(n, false);
        self.first_time.clear();
        self.first_time.resize(n, false);
    }
}

/// Run one column of events (at most one per node) through the bank:
/// gather observations, one flat predict/evaluate sweep, the ledger
/// pass, per-node protocol decisions, then the accept/coast sweeps.
///
/// The ledger pass records every sample's test before any decision of
/// the column, so the ledgers' cold lookups of different nodes overlap
/// instead of each stalling its node's decision. The order is the
/// scalar one where it matters: a node has at most one event per
/// column, and its test still precedes its reject.
///
/// The decision body deliberately DUPLICATES [`SecureNode::step`] — the
/// bank owns the detector state mid-sweep, so the scalar method cannot
/// be called — and must stay in lockstep with it. The
/// `vet_single_is_bit_identical_to_scalar_steps` test (and the sim
/// crate's golden fingerprints) enforce the equivalence.
fn vet_column<'e, E: Embedding>(
    bank: &mut DetectorBank,
    nodes: &mut [&mut SecureNode<E>],
    event_of: impl Fn(usize) -> Option<&'e VetEvent>,
    scratch: &mut ColumnScratch,
    mut sink: impl FnMut(usize, SecureStep),
) {
    let n = nodes.len();
    scratch.reset(n);
    for (i, node) in nodes.iter_mut().enumerate() {
        match event_of(i) {
            Some(VetEvent::Sample(sample)) => {
                scratch.obs[i] = node.inner.probe(sample);
                scratch.active[i] = true;
            }
            Some(VetEvent::Missing) => scratch.coast[i] = true,
            None => {}
        }
    }
    bank.predict_all();
    bank.evaluate_into(&scratch.obs, &scratch.active, &mut scratch.verdicts);
    for (i, node) in nodes.iter_mut().enumerate() {
        if let Some(VetEvent::Sample(sample)) = event_of(i) {
            scratch.first_time[i] = node.ledger.test(sample.peer);
        }
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        let Some(VetEvent::Sample(sample)) = event_of(i) else {
            continue;
        };
        #[allow(clippy::expect_used)] // same contract as the audit:allow below
        // audit:allow(PANIC01): evaluate_into's contract gives every active slot a verdict; a None here is a bank bug that must fail loudly
        let verdict = scratch.verdicts[i].expect("active slot has a verdict");
        let node = &mut **node;
        let first_time = scratch.first_time[i];
        if !verdict.suspicious {
            scratch.accept[i] = true;
            let outcome = node.inner.apply_step(sample);
            node.accepted += 1;
            sink(i, SecureStep::Accepted { outcome, verdict });
            continue;
        }
        if node.config.reprieve_enabled && first_time {
            let el = node.inner.local_error().clamp(1e-6, 1.0);
            let alpha2 = (el * node.config.alpha).clamp(1e-9, 1.0 - 1e-9);
            let reprieve_threshold = bank.threshold_at(i, alpha2);
            if verdict.innovation.abs() < reprieve_threshold {
                node.reprieved += 1;
                sink(
                    i,
                    SecureStep::Reprieved {
                        verdict,
                        reprieve_threshold,
                    },
                );
                continue;
            }
        }
        node.ledger.reject(sample.peer);
        node.rejected += 1;
        sink(i, SecureStep::Rejected { verdict });
    }
    bank.accept_all(&scratch.obs, &scratch.accept);
    bank.coast_all(&scratch.coast);
}

/// Vet one event per node in a single batched sweep (the Vivaldi tick
/// shape: every participating node tests exactly one peer sample — or
/// coasts — per tick).
///
/// This is **bit-for-bit** the same as calling
/// [`SecureNode::step`] / [`SecureNode::step_missing`] on each node in
/// order: the bank runs the identical per-slot f64 recursions (with the
/// `Q⁻¹(α/2)` factor cached — a pure function, so the product is
/// unchanged) and scatters the state back before returning. The `bank`
/// is caller-owned so its allocations, sweep buffers and quantile memo
/// persist across ticks; it is cleared and refilled here.
///
/// Calls `sink(i, step)` for node `i`'s `Sample` event, in node order;
/// a `Missing` event, as in the scalar path, produces no step outcome.
pub fn vet_single<E: Embedding>(
    bank: &mut DetectorBank,
    nodes: &mut [&mut SecureNode<E>],
    events: &[VetEvent],
    sink: impl FnMut(usize, SecureStep),
) {
    assert_eq!(
        nodes.len(),
        events.len(),
        "one event per node: {} nodes vs {} events",
        nodes.len(),
        events.len()
    );
    bank.clear();
    for node in nodes.iter() {
        bank.push(&node.detector);
    }
    let mut scratch = std::mem::take(&mut bank.columns);
    vet_column(bank, nodes, |i| Some(&events[i]), &mut scratch, sink);
    bank.columns = scratch;
    for (i, node) in nodes.iter_mut().enumerate() {
        bank.store(i, &mut node.detector);
    }
}

/// Vet a per-node *sequence* of events in batched column sweeps (the
/// NPS round shape: each node tests its reference points in order).
/// Column `k` processes event `k` of every node that has one, so a
/// node's events run in sequence — bit-for-bit the scalar order — while
/// the sweep across nodes stays flat.
///
/// Calls `sink(i, k, step)` for event `k` of node `i` when it is a
/// `Sample` (a `Missing` event produces no step), column by column, so
/// each node's steps arrive in its event order.
pub fn vet_sequences<E: Embedding>(
    bank: &mut DetectorBank,
    nodes: &mut [&mut SecureNode<E>],
    events: &[Vec<VetEvent>],
    mut sink: impl FnMut(usize, usize, SecureStep),
) {
    assert_eq!(
        nodes.len(),
        events.len(),
        "one event sequence per node: {} nodes vs {} sequences",
        nodes.len(),
        events.len()
    );
    bank.clear();
    for node in nodes.iter() {
        bank.push(&node.detector);
    }
    let columns = events.iter().map(Vec::len).max().unwrap_or(0);
    let mut scratch = std::mem::take(&mut bank.columns);
    #[allow(clippy::needless_range_loop)] // k cursors jagged per-node sequences, not one slice
    for k in 0..columns {
        vet_column(bank, nodes, |i| events[i].get(k), &mut scratch, |i, step| {
            sink(i, k, step);
        });
    }
    bank.columns = scratch;
    for (i, node) in nodes.iter_mut().enumerate() {
        bank.store(i, &mut node.detector);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::{Coordinate, Space};

    /// A minimal embedding: fixed coordinate, configurable local error;
    /// lets the tests isolate protocol behavior from geometry.
    #[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
    struct StubEmbedding {
        coordinate: Coordinate,
        local_error: f64,
        applied: Vec<usize>,
    }

    impl StubEmbedding {
        fn new(local_error: f64) -> Self {
            Self {
                coordinate: Coordinate::origin(Space::with_height(2)),
                local_error,
                applied: Vec::new(),
            }
        }
    }

    impl Embedding for StubEmbedding {
        fn coordinate(&self) -> &Coordinate {
            &self.coordinate
        }
        fn local_error(&self) -> f64 {
            self.local_error
        }
        fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome {
            self.applied.push(sample.peer);
            StepOutcome {
                relative_error: 0.0,
                local_error: self.local_error,
                moved: true,
            }
        }
    }

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.8,
            v_w: 0.001,
            v_u: 0.001,
            w_bar: 0.02,
            w0: 0.1,
            p0: 0.01,
        }
    }

    /// A sample whose probe yields relative error ≈ `d` against the stub
    /// at the origin: put the peer at distance `est` with rtt chosen so
    /// |est − rtt|/rtt = d (overestimation form: est = rtt(1+d)).
    fn sample_with_error(peer: usize, d: f64) -> PeerSample {
        let rtt = 50.0;
        let est = rtt * (1.0 + d);
        PeerSample {
            peer,
            peer_coord: Coordinate::new(vec![est, 0.0], 0.0),
            peer_error: 0.2,
            rtt_ms: rtt,
        }
    }

    fn secure(local_error: f64) -> SecureNode<StubEmbedding> {
        SecureNode::new(
            StubEmbedding::new(local_error),
            params(),
            0,
            SecurityConfig::paper_default(),
        )
        .unwrap()
    }

    #[test]
    fn nominal_steps_are_accepted_and_applied() {
        let mut node = secure(0.1);
        let s = sample_with_error(1, 0.1); // close to the filter's state
        let step = node.step(&s);
        assert!(step.accepted(), "verdict: {:?}", step.verdict());
        assert_eq!(node.inner().applied, vec![1]);
        assert_eq!(node.counts(), (1, 0, 0));
    }

    #[test]
    fn wild_steps_from_known_peers_are_rejected() {
        let mut node = secure(0.1);
        // Make peer 2 known with a good step first.
        node.step(&sample_with_error(2, 0.1));
        let step = node.step(&sample_with_error(2, 5.0));
        assert!(step.replace_peer());
        assert_eq!(node.inner().applied, vec![2], "bad step must not apply");
        assert_eq!(node.counts().2, 1);
    }

    #[test]
    fn first_time_peer_with_moderate_deviation_gets_reprieved() {
        // A converged node (tiny e_l) is lenient with joining peers: the
        // secondary threshold at e_l·α is much wider.
        let mut node = secure(0.01);
        // Suspicious at α = 5% but inside the (e_l·α)-threshold.
        let primary_t = node.detector().prediction().threshold;
        let secondary_t = node.detector().threshold_at(0.01 * 0.05);
        assert!(secondary_t > primary_t);
        // Find a deviation between the two thresholds: innovation is
        // (d − predicted); predicted starts at w0-ish. Use d = predicted
        // + 1.5·primary_t.
        let predicted = node.detector().prediction().predicted;
        let d = predicted + (primary_t + secondary_t) / 2.0;
        let step = node.step(&sample_with_error(7, d));
        match step {
            SecureStep::Reprieved { .. } => {}
            other => panic!("expected reprieve, got {other:?}"),
        }
        assert!(node.inner().applied.is_empty(), "reprieve still aborts");
        assert_eq!(node.counts(), (0, 1, 0));
    }

    #[test]
    fn reprieve_only_granted_once_per_peer() {
        let mut node = secure(0.01);
        let outlook = node.detector().prediction();
        let secondary_t = node.detector().threshold_at(0.01 * 0.05);
        let d = outlook.predicted + (outlook.threshold + secondary_t) / 2.0;
        let first = node.step(&sample_with_error(7, d));
        assert!(matches!(first, SecureStep::Reprieved { .. }));
        let second = node.step(&sample_with_error(7, d));
        assert!(
            second.replace_peer(),
            "second suspicious step from the same peer must reject"
        );
    }

    #[test]
    fn unconfident_node_grants_fewer_reprieves() {
        // With e_l = 1 the secondary test equals the primary test, so a
        // step that failed the primary also fails the reprieve.
        let mut node = secure(1.0);
        let outlook = node.detector().prediction();
        let d = outlook.predicted + outlook.threshold * 1.5;
        let step = node.step(&sample_with_error(3, d));
        assert!(step.replace_peer(), "e_l = 1 leaves no reprieve headroom");
    }

    #[test]
    fn blatant_lies_are_rejected_even_first_time() {
        let mut node = secure(0.01);
        let step = node.step(&sample_with_error(4, 50.0));
        assert!(step.replace_peer());
    }

    #[test]
    fn reprieve_can_be_disabled() {
        let mut config = SecurityConfig::paper_default();
        config.reprieve_enabled = false;
        let mut node = SecureNode::new(StubEmbedding::new(0.01), params(), 0, config).unwrap();
        let outlook = node.detector().prediction();
        let secondary_t = node.detector().threshold_at(0.01 * 0.05);
        let d = outlook.predicted + (outlook.threshold + secondary_t) / 2.0;
        let step = node.step(&sample_with_error(7, d));
        assert!(step.replace_peer(), "no reprieve when disabled");
    }

    #[test]
    fn round_with_majority_rejections_triggers_refresh() {
        let mut node = secure(1.0);
        // Two peers accepted, two rejected → exactly half → refresh.
        node.step(&sample_with_error(1, 0.1));
        node.step(&sample_with_error(2, 0.1));
        node.step(&sample_with_error(3, 50.0));
        node.step(&sample_with_error(4, 50.0));
        assert_eq!(node.end_round(), RoundAction::RefreshFilter);
        // Counters reset for the next round.
        node.step(&sample_with_error(5, 0.1));
        assert_eq!(node.end_round(), RoundAction::Continue);
    }

    #[test]
    fn quiet_round_continues() {
        let mut node = secure(1.0);
        for peer in 0..6 {
            node.step(&sample_with_error(peer, 0.1));
        }
        node.step(&sample_with_error(99, 50.0)); // 1 of 7 rejected
        assert_eq!(node.end_round(), RoundAction::Continue);
    }

    #[test]
    fn refresh_filter_swaps_source_and_state() {
        let mut node = secure(1.0);
        for _ in 0..5 {
            node.step(&sample_with_error(1, 0.1));
        }
        assert_eq!(node.filter_source(), 0);
        node.refresh_filter(params(), 42);
        assert_eq!(node.filter_source(), 42);
        assert_eq!(node.detector().filter().updates(), 0);
    }

    #[test]
    fn validate_returns_typed_errors() {
        let mut config = SecurityConfig::paper_default();
        assert_eq!(config.validate(), Ok(()));
        config.alpha = 1.5;
        assert_eq!(config.validate(), Err(ConfigError::InvalidAlpha(1.5)));
        config.alpha = 0.05;
        config.refresh_fraction = 0.0;
        assert_eq!(
            config.validate(),
            Err(ConfigError::InvalidRefreshFraction(0.0))
        );
        let msg = config.validate().unwrap_err().to_string();
        assert!(msg.contains("refresh_fraction"), "message: {msg}");
        let node = SecureNode::new(StubEmbedding::new(0.1), params(), 0, config);
        assert_eq!(
            node.err(),
            Some(ConfigError::InvalidRefreshFraction(0.0)),
            "an invalid config must not build a node"
        );
    }

    #[test]
    fn missing_samples_coast_without_touching_round_state() {
        let mut node = secure(0.1);
        node.step(&sample_with_error(1, 0.1));
        let threshold_before = node.detector().prediction().threshold;
        for _ in 0..10 {
            node.step_missing();
        }
        let threshold_after = node.detector().prediction().threshold;
        assert!(
            threshold_after > threshold_before,
            "coasting widens the test band"
        );
        assert!(node.inner().applied == vec![1], "embedding untouched");
        assert_eq!(node.counts(), (1, 0, 0), "no step outcome recorded");
        // 1 tested peer, 0 rejections, starvation below the limit.
        assert_eq!(node.end_round(), RoundAction::Continue);
    }

    #[test]
    fn sample_starvation_requests_filter_refresh() {
        use crate::detector::SAMPLE_STARVATION_LIMIT;
        let mut node = secure(0.1);
        for _ in 0..SAMPLE_STARVATION_LIMIT {
            node.step_missing();
        }
        assert_eq!(
            node.end_round(),
            RoundAction::RefreshFilter,
            "a starved detector must ask for recalibration"
        );
        // Installing fresh parameters clears the starvation state.
        node.refresh_filter(params(), 9);
        node.step(&sample_with_error(1, 0.1));
        assert_eq!(node.end_round(), RoundAction::Continue);
    }

    #[test]
    fn accepted_fraction_on_clean_stream_is_high() {
        // End-to-end sanity: a stream of nominal errors drawn from the
        // model itself should be overwhelmingly accepted.
        let p = params();
        let mut rng = ices_stats::rng::stream_rng(30, 0);
        let trace = p.simulate(2000, &mut rng);
        let mut node = secure(0.3);
        let mut accepted = 0usize;
        for (i, &d) in trace.iter().enumerate() {
            if node.step(&sample_with_error(i % 64, d.max(0.0))).accepted() {
                accepted += 1;
            }
        }
        let rate = accepted as f64 / trace.len() as f64;
        assert!(rate > 0.9, "acceptance rate {rate}");
    }

    /// One mixed event per node per tick: the batched sweep must leave
    /// every node — detector state, counters, applied steps, round
    /// bookkeeping — exactly where the scalar calls leave it, and
    /// return the same step outcomes.
    #[test]
    fn vet_single_is_bit_identical_to_scalar_steps() {
        let n = 6;
        let mut scalar: Vec<SecureNode<StubEmbedding>> =
            (0..n).map(|i| secure(0.01 + 0.15 * i as f64)).collect();
        let mut batched = scalar.clone();
        let mut bank = DetectorBank::new();
        for tick in 0..30 {
            let events: Vec<VetEvent> = (0..n)
                .map(|i| match (tick + i) % 7 {
                    0 => VetEvent::Missing,
                    // A blatant lie from a never-seen peer (reject even
                    // with the reprieve check engaged).
                    1 => VetEvent::Sample(sample_with_error(100 + tick, 50.0)),
                    // A moderate deviation from a fresh peer (reprieve
                    // candidate on confident nodes).
                    2 => VetEvent::Sample(sample_with_error(200 + tick, 0.6)),
                    _ => VetEvent::Sample(sample_with_error(i, 0.1)),
                })
                .collect();
            let scalar_steps: Vec<Option<SecureStep>> = scalar
                .iter_mut()
                .zip(&events)
                .map(|(node, event)| match event {
                    VetEvent::Sample(s) => Some(node.step(s)),
                    VetEvent::Missing => {
                        node.step_missing();
                        None
                    }
                })
                .collect();
            let mut refs: Vec<&mut SecureNode<StubEmbedding>> = batched.iter_mut().collect();
            let mut batched_steps = vec![None; n];
            vet_single(&mut bank, &mut refs, &events, |i, step| batched_steps[i] = Some(step));
            assert_eq!(scalar_steps, batched_steps, "tick {tick}");
        }
        for (i, (s, b)) in scalar.iter_mut().zip(batched.iter_mut()).enumerate() {
            assert_eq!(s.detector(), b.detector(), "node {i} detector state");
            assert_eq!(s.counts(), b.counts(), "node {i} counters");
            assert_eq!(s.inner().applied, b.inner().applied, "node {i} applied");
            assert_eq!(s.end_round(), b.end_round(), "node {i} round action");
        }
    }

    /// The NPS shape: per-node event sequences of different lengths,
    /// vetted column-by-column — same bit-identity requirement.
    #[test]
    fn vet_sequences_is_bit_identical_to_scalar_steps() {
        let n = 5;
        let mut scalar: Vec<SecureNode<StubEmbedding>> =
            (0..n).map(|i| secure(0.02 + 0.2 * i as f64)).collect();
        let mut batched = scalar.clone();
        let mut bank = DetectorBank::new();
        for round in 0..12 {
            let events: Vec<Vec<VetEvent>> = (0..n)
                .map(|i| {
                    (0..(i % 3) + 2)
                        .map(|k| match (round + i + k) % 5 {
                            0 => VetEvent::Missing,
                            1 => VetEvent::Sample(sample_with_error(300 + round * 8 + k, 50.0)),
                            _ => VetEvent::Sample(sample_with_error(k, 0.12)),
                        })
                        .collect()
                })
                .collect();
            let scalar_steps: Vec<Vec<Option<SecureStep>>> = scalar
                .iter_mut()
                .zip(&events)
                .map(|(node, seq)| {
                    seq.iter()
                        .map(|event| match event {
                            VetEvent::Sample(s) => Some(node.step(s)),
                            VetEvent::Missing => {
                                node.step_missing();
                                None
                            }
                        })
                        .collect()
                })
                .collect();
            let mut refs: Vec<&mut SecureNode<StubEmbedding>> = batched.iter_mut().collect();
            let mut batched_steps: Vec<Vec<Option<SecureStep>>> =
                events.iter().map(|seq| vec![None; seq.len()]).collect();
            vet_sequences(&mut bank, &mut refs, &events, |i, k, step| {
                batched_steps[i][k] = Some(step);
            });
            assert_eq!(scalar_steps, batched_steps, "round {round}");
            for (i, (s, b)) in scalar.iter_mut().zip(batched.iter_mut()).enumerate() {
                assert_eq!(s.end_round(), b.end_round(), "round {round} node {i}");
            }
        }
        // The ledger across columns, on the most confident node: a
        // peer rejected in column 0 and tested again in column 1 (no
        // reprieve: it is no longer new), then a new peer reprieved in
        // column 2. The deviations sit between the primary and the
        // reprieve threshold of the step they are vetted at, so the
        // first-time flag alone decides between reprieve and reject.
        let moderate = |node: &SecureNode<StubEmbedding>, prefix: &[PeerSample]| {
            let mut ahead = node.clone();
            for sample in prefix {
                ahead.step(sample);
            }
            let outlook = ahead.detector().prediction();
            let el = ahead.inner().local_error();
            let reprieve = ahead.detector().threshold_at(el * ahead.config.alpha);
            outlook.predicted + (outlook.threshold + reprieve) / 2.0
        };
        let blatant = sample_with_error(900, 50.0);
        let again = sample_with_error(900, moderate(&scalar[0], std::slice::from_ref(&blatant)));
        let fresh = sample_with_error(901, moderate(&scalar[0], &[blatant.clone(), again.clone()]));
        let mut events: Vec<Vec<VetEvent>> = (0..n)
            .map(|i| vec![VetEvent::Sample(sample_with_error(i, 0.12)); 3])
            .collect();
        events[0] = [blatant, again, fresh]
            .into_iter()
            .map(VetEvent::Sample)
            .collect();
        let scalar_steps: Vec<Vec<Option<SecureStep>>> = scalar
            .iter_mut()
            .zip(&events)
            .map(|(node, seq)| {
                seq.iter()
                    .map(|event| match event {
                        VetEvent::Sample(s) => Some(node.step(s)),
                        VetEvent::Missing => None,
                    })
                    .collect()
            })
            .collect();
        assert!(
            matches!(
                scalar_steps[0][..],
                [
                    Some(SecureStep::Rejected { .. }),
                    Some(SecureStep::Rejected { .. }),
                    Some(SecureStep::Reprieved { .. })
                ]
            ),
            "the cross-column cases must be exercised: {:?}",
            scalar_steps[0]
        );
        let mut refs: Vec<&mut SecureNode<StubEmbedding>> = batched.iter_mut().collect();
        let mut batched_steps: Vec<Vec<Option<SecureStep>>> = vec![vec![None; 3]; n];
        vet_sequences(&mut bank, &mut refs, &events, |i, k, step| {
            batched_steps[i][k] = Some(step);
        });
        assert_eq!(scalar_steps, batched_steps, "cross-column ledger cases");
        for (i, (s, b)) in scalar.iter_mut().zip(batched.iter_mut()).enumerate() {
            assert_eq!(s.end_round(), b.end_round(), "cross-column round, node {i}");
        }
        for (i, (s, b)) in scalar.iter().zip(batched.iter()).enumerate() {
            assert_eq!(s.detector(), b.detector(), "node {i} detector state");
            assert_eq!(s.counts(), b.counts(), "node {i} counters");
        }
    }

    /// The three-set bookkeeping the [`PeerLedger`] replaces: peers
    /// ever tested, distinct peers tested this round, distinct peers
    /// rejected this round.
    #[derive(Default)]
    struct ReferenceSets {
        seen: std::collections::BTreeSet<usize>,
        round_peers: std::collections::BTreeSet<usize>,
        round_rejections: std::collections::BTreeSet<usize>,
    }

    impl ReferenceSets {
        fn test(&mut self, peer: usize) -> bool {
            self.round_peers.insert(peer);
            self.seen.insert(peer)
        }

        fn reject(&mut self, peer: usize) {
            self.round_rejections.insert(peer);
        }

        fn end_round(&mut self) -> (usize, usize) {
            let counts = (self.round_peers.len(), self.round_rejections.len());
            self.round_peers.clear();
            self.round_rejections.clear();
            counts
        }
    }

    /// The refresh rule of [`SecureNode::end_round`] over round counts.
    fn round_action((peers, rejected): (usize, usize)) -> RoundAction {
        let fraction = SecurityConfig::paper_default().refresh_fraction;
        if peers > 0 && (rejected as f64) >= (peers as f64) * fraction {
            RoundAction::RefreshFilter
        } else {
            RoundAction::Continue
        }
    }

    proptest::proptest! {
        /// Random sequences of accepted, reprieved and rejected steps
        /// and round ends over a small peer pool (so peers recur within
        /// and across rounds): the ledger reports the same first-time
        /// flags, round counts and round actions as the three sets.
        #[test]
        fn ledger_matches_three_set_reference(
            ops in proptest::collection::vec((0u8..8, 0usize..12), 0..300),
        ) {
            let mut ledger = PeerLedger::new();
            let mut reference = ReferenceSets::default();
            for (op, peer) in ops {
                match op {
                    // Round end.
                    0 => {
                        let (counts, expected) = (ledger.end_round(), reference.end_round());
                        proptest::prop_assert_eq!(counts, expected);
                        proptest::prop_assert_eq!(round_action(counts), round_action(expected));
                    }
                    // Rejected step: tested, then rejected.
                    1 | 2 => {
                        proptest::prop_assert_eq!(ledger.test(peer), reference.test(peer));
                        ledger.reject(peer);
                        reference.reject(peer);
                    }
                    // Accepted or reprieved step: tested only.
                    _ => proptest::prop_assert_eq!(ledger.test(peer), reference.test(peer)),
                }
            }
            let (counts, expected) = (ledger.end_round(), reference.end_round());
            proptest::prop_assert_eq!(counts, expected);
            proptest::prop_assert_eq!(round_action(counts), round_action(expected));
        }
    }

    #[test]
    fn vet_single_handles_empty_node_sets() {
        let mut bank = DetectorBank::new();
        let mut refs: Vec<&mut SecureNode<StubEmbedding>> = Vec::new();
        let mut steps = 0;
        vet_single(&mut bank, &mut refs, &[], |_, _| steps += 1);
        assert_eq!(steps, 0);
    }

    #[test]
    #[should_panic(expected = "one event per node")]
    fn vet_single_rejects_misaligned_events() {
        let mut node = secure(0.1);
        let mut bank = DetectorBank::new();
        let mut refs = vec![&mut node];
        vet_single(&mut bank, &mut refs, &[], |_, _| {});
    }
}
