//! Batched SoA detection kernel.
//!
//! The paper's detector is a *scalar* Kalman innovation test, but a node
//! (or a whole simulated population) runs one independent filter per
//! peer — an embarrassingly data-parallel sweep. [`DetectorBank`]
//! flattens a set of [`Detector`]s into structure-of-arrays columns
//! (`estimate`, `variance`, band/coast run counters) and exposes the
//! four sweep kernels `predict_all` / `evaluate_into` / `accept_all` /
//! `coast_all`, each one flat pass over `&[f64]` replacing N individual
//! `Detector` calls.
//!
//! # Bit-identity contract
//!
//! Every kernel performs **bit-for-bit the
//! same f64 operations, in the same per-slot order**, as the scalar
//! [`Detector`]/[`KalmanFilter`] methods it replaces:
//!
//! * `predict_all` is [`KalmanFilter::predict`] per slot;
//! * `evaluate_into` is [`Detector::evaluate`] with the slot's
//!   `Q⁻¹(α/2)` factor **cached** — `q_inverse` is a pure function, so
//!   memoizing it per slot (and per distinct `α` at gather time) yields
//!   the identical product `√v_η · Q⁻¹(α/2)` while skipping the
//!   dominant cost of the scalar path, which re-derives the quantile on
//!   every single evaluation;
//! * `accept_all` is [`KalmanFilter::update`] (gain, posterior,
//!   recalibration-band bookkeeping — same expressions, same order);
//! * `coast_all` is [`KalmanFilter::time_update`] plus the starvation
//!   streak of [`Detector::coast`].
//!
//! The bank is a **transient execution engine**, not a second store of
//! truth: callers gather detectors with [`DetectorBank::push`], run
//! sweeps, and scatter the state back with [`DetectorBank::store`]. The
//! scalar `Detector` inside each `SecureNode` remains the single
//! serialized, API-visible state. Parameters never change inside the
//! bank: a recalibration happens on the `Detector` between sweeps
//! (`SecureNode::refresh_filter`), and the next sweep pushes it again.

use crate::detector::{Detector, Verdict};
use crate::kalman::RECALIBRATION_BAND;
use crate::protocol::ColumnScratch;
use ices_stats::q_inverse;

/// A set of per-peer detectors flattened into SoA columns.
///
/// See the module docs for the bit-identity contract. Typical round trip:
///
/// ```
/// use ices_core::batch::DetectorBank;
/// use ices_core::{Detector, StateSpaceParams};
///
/// let params = StateSpaceParams::em_initial_guess();
/// let mut detectors = vec![Detector::new(params, 0.05)?; 3];
/// let mut bank = DetectorBank::new();
/// for d in &detectors {
///     bank.push(d);
/// }
/// bank.predict_all();
/// let mut verdicts = Vec::new();
/// bank.evaluate_into(&[0.4, 0.5, 9.0], &[true, true, true], &mut verdicts);
/// let accept: Vec<bool> = verdicts
///     .iter()
///     .map(|v| v.map(|v| !v.suspicious).unwrap_or(false))
///     .collect();
/// bank.accept_all(&[0.4, 0.5, 9.0], &accept);
/// for (slot, d) in detectors.iter_mut().enumerate() {
///     bank.store(slot, d);
/// }
/// # Ok::<(), ices_core::DetectorError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetectorBank {
    // Calibrated parameter columns (hot in every sweep).
    beta: Vec<f64>,
    w_bar: Vec<f64>,
    v_w: Vec<f64>,
    v_u: Vec<f64>,
    /// Per-slot cached `Q⁻¹(α/2)` of the detector's significance level.
    q_half_alpha: Vec<f64>,
    // Filter state columns.
    estimate: Vec<f64>,
    variance: Vec<f64>,
    updates: Vec<u64>,
    outside_streak: Vec<u32>,
    starvation_streak: Vec<u32>,
    // Prediction scratch (filled by `predict_all`).
    predicted: Vec<f64>,
    state_var: Vec<f64>,
    innov_var: Vec<f64>,
    /// Slots whose state changed since the last `predict_all` (their
    /// scratch entries are stale; touching one again is a caller bug).
    dirty: Vec<bool>,
    /// Whether `predict_all` has run since the last state change.
    predicted_fresh: bool,
    /// One-entry `q_inverse(α/2)` memo: every push with the same `α`
    /// (the common case — one protocol-wide significance level) reuses
    /// the cached quantile. `q_inverse` is pure, so this is invisible
    /// to the numbers.
    memo_alpha_bits: u64,
    memo_q: f64,
    /// Per-column buffers of the protocol's vetting sweeps
    /// ([`crate::vet_single`], [`crate::vet_sequences`]), kept here so
    /// their allocations persist across calls.
    pub(crate) columns: ColumnScratch,
}

impl DetectorBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self {
            memo_alpha_bits: f64::NAN.to_bits(),
            memo_q: f64::NAN,
            ..Self::default()
        }
    }

    /// Number of gathered slots.
    pub fn len(&self) -> usize {
        self.estimate.len()
    }

    /// Whether the bank holds no slots.
    pub fn is_empty(&self) -> bool {
        self.estimate.is_empty()
    }

    /// Drop all slots, keeping allocations and the quantile memo.
    pub fn clear(&mut self) {
        self.beta.clear();
        self.w_bar.clear();
        self.v_w.clear();
        self.v_u.clear();
        self.q_half_alpha.clear();
        self.estimate.clear();
        self.variance.clear();
        self.updates.clear();
        self.outside_streak.clear();
        self.starvation_streak.clear();
        self.predicted.clear();
        self.state_var.clear();
        self.innov_var.clear();
        self.dirty.clear();
        self.predicted_fresh = false;
    }

    fn q_for(&mut self, alpha: f64) -> f64 {
        if alpha.to_bits() != self.memo_alpha_bits {
            self.memo_alpha_bits = alpha.to_bits();
            self.memo_q = q_inverse(alpha / 2.0);
        }
        self.memo_q
    }

    /// Gather one detector into the bank, returning its slot index.
    pub fn push(&mut self, det: &Detector) -> usize {
        let slot = self.len();
        let p = *det.filter().params();
        let (estimate, variance, updates, outside_streak) = det.filter().raw_state();
        self.beta.push(p.beta);
        self.w_bar.push(p.w_bar);
        self.v_w.push(p.v_w);
        self.v_u.push(p.v_u);
        let q = self.q_for(det.alpha());
        self.q_half_alpha.push(q);
        self.estimate.push(estimate);
        self.variance.push(variance);
        self.updates.push(updates);
        self.outside_streak.push(outside_streak);
        self.starvation_streak.push(det.starvation_streak());
        self.predicted.push(0.0);
        self.state_var.push(0.0);
        self.innov_var.push(0.0);
        self.dirty.push(false);
        self.predicted_fresh = false;
        slot
    }

    /// One-step-ahead prediction for every slot, in one flat sweep —
    /// [`KalmanFilter::predict`] columnized. Must run before
    /// `evaluate_into` / `accept_all` / `coast_all`, and again after any
    /// slot's state changes.
    pub fn predict_all(&mut self) {
        let n = self.len();
        for i in 0..n {
            let predicted = self.beta[i] * self.estimate[i] + self.w_bar[i];
            let state_var = self.beta[i] * self.beta[i] * self.variance[i] + self.v_w[i];
            self.predicted[i] = predicted;
            self.state_var[i] = state_var;
            self.innov_var[i] = state_var + self.v_u[i];
        }
        for d in self.dirty.iter_mut() {
            *d = false;
        }
        self.predicted_fresh = true;
    }

    fn assert_fresh(&self, kernel: &str) {
        assert!(
            self.predicted_fresh,
            "DetectorBank::{kernel} requires predict_all() since the last state change"
        );
    }

    fn assert_aligned(&self, kernel: &str, len: usize) {
        assert!(
            len == self.len(),
            "DetectorBank::{kernel}: argument length {len} != {} slots",
            self.len()
        );
    }

    /// Evaluate one observation per active slot — [`Detector::evaluate`]
    /// columnized, with the per-slot `Q⁻¹(α/2)` factor cached — into
    /// `out`, which is cleared first so a sweep that runs every tick
    /// reuses one allocation. Inactive slots get `None` and their
    /// observation value is ignored. Does not change any state.
    ///
    /// # Panics
    /// Panics if `predict_all` has not been (re-)run, on length
    /// mismatches, or on a non-finite observation for an active slot
    /// (the scalar path's error, as a panic).
    pub fn evaluate_into(
        &self,
        observations: &[f64],
        active: &[bool],
        out: &mut Vec<Option<Verdict>>,
    ) {
        self.assert_fresh("evaluate_into");
        self.assert_aligned("evaluate_into", observations.len());
        self.assert_aligned("evaluate_into", active.len());
        out.clear();
        for i in 0..self.len() {
            if !active[i] {
                out.push(None);
                continue;
            }
            debug_assert!(!self.dirty[i], "slot {i} touched since predict_all");
            let observation = observations[i];
            assert!(
                observation.is_finite(),
                "observation must be finite, got {observation}"
            );
            let innovation = observation - self.predicted[i];
            let threshold = self.innov_var[i].sqrt() * self.q_half_alpha[i];
            out.push(Some(Verdict {
                suspicious: innovation.abs() >= threshold,
                innovation,
                threshold,
                predicted: self.predicted[i],
                innovation_variance: self.innov_var[i],
            }));
        }
    }

    /// Incorporate one observation per masked slot — the
    /// measurement-update of [`KalmanFilter::update`] plus the streak
    /// bookkeeping of [`Detector::accept`], columnized. Reuses the
    /// predictions from `predict_all` (the state is unchanged since, so
    /// the scalar path's internal re-prediction would produce the same
    /// bits).
    ///
    /// # Panics
    /// Panics if `predict_all` has not been (re-)run, on length
    /// mismatches, or on a non-finite observation for a masked slot.
    pub fn accept_all(&mut self, observations: &[f64], mask: &[bool]) {
        self.assert_fresh("accept_all");
        self.assert_aligned("accept_all", observations.len());
        self.assert_aligned("accept_all", mask.len());
        for i in 0..self.len() {
            if !mask[i] {
                continue;
            }
            debug_assert!(!self.dirty[i], "slot {i} touched twice since predict_all");
            self.dirty[i] = true;
            let observation = observations[i];
            assert!(
                observation.is_finite(),
                "observation must be finite, got {observation}"
            );
            let innovation = observation - self.predicted[i];
            let gain = self.state_var[i] / (self.state_var[i] + self.v_u[i]);
            self.estimate[i] = self.predicted[i] + gain * innovation;
            self.variance[i] = self.v_u[i] * self.state_var[i] / (self.state_var[i] + self.v_u[i]);
            debug_assert!(
                self.variance[i].is_finite() && self.variance[i] >= 0.0,
                "posterior variance must stay finite and non-negative, got {}",
                self.variance[i]
            );
            self.updates[i] += 1;
            let band = RECALIBRATION_BAND * self.innov_var[i].sqrt();
            if innovation.abs() > band {
                self.outside_streak[i] += 1;
            } else {
                self.outside_streak[i] = 0;
            }
            self.starvation_streak[i] = 0;
        }
    }

    /// Absorb a missing measurement per masked slot —
    /// [`KalmanFilter::time_update`] plus the starvation streak of
    /// [`Detector::coast`], columnized.
    ///
    /// # Panics
    /// Panics if `predict_all` has not been (re-)run or on a length
    /// mismatch.
    pub fn coast_all(&mut self, mask: &[bool]) {
        self.assert_fresh("coast_all");
        self.assert_aligned("coast_all", mask.len());
        for (i, &masked) in mask.iter().enumerate() {
            if !masked {
                continue;
            }
            debug_assert!(!self.dirty[i], "slot {i} touched twice since predict_all");
            self.dirty[i] = true;
            self.estimate[i] = self.predicted[i];
            self.variance[i] = self.state_var[i];
            debug_assert!(
                self.variance[i].is_finite() && self.variance[i] >= 0.0,
                "coasting variance must stay finite and non-negative, got {}",
                self.variance[i]
            );
            self.starvation_streak[i] = self.starvation_streak[i].saturating_add(1);
        }
    }

    /// The threshold `t_n` at an arbitrary significance level for one
    /// slot, from the current prediction scratch — the bank's
    /// [`Detector::threshold_at`] (the reprieve retest). Bit-identical:
    /// the slot's state is unchanged since `predict_all`, so the scalar
    /// path's internal re-prediction yields the same `v_η`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`, if `predict_all` has not
    /// been (re-)run, or if the slot's state already changed.
    pub fn threshold_at(&self, slot: usize, alpha: f64) -> f64 {
        self.assert_fresh("threshold_at");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "significance level must be in (0, 1), got {alpha}"
        );
        assert!(
            !self.dirty[slot],
            "DetectorBank::threshold_at: slot {slot} changed since predict_all"
        );
        self.innov_var[slot].sqrt() * q_inverse(alpha / 2.0)
    }

    /// Scatter one slot's state back into the detector it was pushed
    /// from. The bank ran the exact recursions, so the values written
    /// are bit-for-bit what the scalar call sequence would have left
    /// behind. Only the state is written: the parameters and `α` are
    /// the ones the detector already holds.
    pub fn store(&self, slot: usize, det: &mut Detector) {
        det.filter_mut().set_raw_state(
            self.estimate[slot],
            self.variance[slot],
            self.updates[slot],
            self.outside_streak[slot],
        );
        det.set_starvation_streak(self.starvation_streak[slot]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::SAMPLE_STARVATION_LIMIT;
    use crate::model::StateSpaceParams;
    use ices_stats::rng::stream_rng;

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.85,
            v_w: 0.003,
            v_u: 0.002,
            w_bar: 0.015,
            w0: 0.3,
            p0: 0.02,
        }
    }

    fn detector(p: StateSpaceParams) -> Detector {
        Detector::new(p, 0.05).unwrap()
    }

    /// Drive N scalar detectors and one bank through the same
    /// accept/coast schedule and require bit-identical state throughout.
    #[test]
    fn bank_matches_scalar_detectors_bitwise() {
        let p = params();
        let n = 8;
        let mut scalars: Vec<Detector> = (0..n).map(|_| detector(p)).collect();
        let mut bank = DetectorBank::new();
        for d in &scalars {
            bank.push(d);
        }
        let mut rng = stream_rng(40, 0);
        let traces: Vec<Vec<f64>> = (0..n).map(|_| p.simulate(50, &mut rng)).collect();
        let mut verdicts = Vec::new();
        for step in 0..50 {
            let obs: Vec<f64> = traces.iter().map(|t| t[step]).collect();
            // Slot i coasts on steps where (step + i) % 5 == 0.
            let coast: Vec<bool> = (0..n).map(|i| (step + i) % 5 == 0).collect();
            let sample: Vec<bool> = coast.iter().map(|&c| !c).collect();
            bank.predict_all();
            bank.evaluate_into(&obs, &sample, &mut verdicts);
            let mut accept = vec![false; n];
            for i in 0..n {
                let scalar_verdict = scalars[i].evaluate(obs[i]).unwrap();
                if coast[i] {
                    scalars[i].coast();
                    continue;
                }
                let v = verdicts[i].expect("active slot has a verdict");
                assert_eq!(v.innovation.to_bits(), scalar_verdict.innovation.to_bits());
                assert_eq!(v.threshold.to_bits(), scalar_verdict.threshold.to_bits());
                assert_eq!(v.suspicious, scalar_verdict.suspicious);
                if !v.suspicious {
                    accept[i] = true;
                    scalars[i].accept(obs[i]);
                }
            }
            bank.accept_all(&obs, &accept);
            bank.coast_all(&coast);
        }
        for (i, scalar) in scalars.iter_mut().enumerate() {
            let mut out = detector(p);
            bank.store(i, &mut out);
            assert_eq!(&out, scalar, "slot {i} diverged");
        }
    }

    #[test]
    fn threshold_at_matches_scalar_reprieve_path() {
        let p = params();
        let mut scalar = detector(p);
        for obs in [0.31, 0.27, 0.4] {
            scalar.accept(obs);
        }
        let mut bank = DetectorBank::new();
        bank.push(&scalar);
        bank.predict_all();
        for alpha2 in [1e-9, 0.0005, 0.025, 0.3] {
            assert_eq!(
                bank.threshold_at(0, alpha2).to_bits(),
                scalar.threshold_at(alpha2).unwrap().to_bits()
            );
        }
    }

    /// The starvation streak travels through `store`, so the node's
    /// round end sees a starvation that built up inside bank sweeps.
    #[test]
    fn starvation_built_in_the_bank_reaches_the_detector() {
        let p = params();
        let mut scalar = detector(p);
        let mut banked = scalar.clone();
        let mut bank = DetectorBank::new();
        for _ in 0..SAMPLE_STARVATION_LIMIT {
            bank.clear();
            bank.push(&banked);
            bank.predict_all();
            bank.coast_all(&[true]);
            bank.store(0, &mut banked);
            scalar.coast();
        }
        assert!(banked.starved());
        assert_eq!(banked, scalar);
    }

    #[test]
    fn clear_keeps_capacity_and_quantile_memo() {
        let p = params();
        let d = detector(p);
        let mut bank = DetectorBank::new();
        bank.push(&d);
        let q = bank.q_half_alpha[0];
        bank.clear();
        assert!(bank.is_empty());
        bank.push(&d);
        assert_eq!(bank.q_half_alpha[0].to_bits(), q.to_bits());
        assert_eq!(
            q.to_bits(),
            q_inverse(0.025).to_bits(),
            "memo must stay a pure q_inverse value"
        );
    }

    #[test]
    #[should_panic(expected = "requires predict_all")]
    fn evaluate_without_predict_panics() {
        let d = detector(params());
        let mut bank = DetectorBank::new();
        bank.push(&d);
        bank.evaluate_into(&[0.3], &[true], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "observation must be finite")]
    fn evaluate_rejects_non_finite_active_observation() {
        let d = detector(params());
        let mut bank = DetectorBank::new();
        bank.push(&d);
        bank.predict_all();
        bank.evaluate_into(&[f64::NAN], &[true], &mut Vec::new());
    }

    mod interleavings {
        use super::*;
        use proptest::prelude::*;

        /// One step of the randomized schedule for one slot.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// Evaluate an observation and accept it if not suspicious
            /// (the protocol's accept path).
            Sample(f64),
            /// Coast (missing probe).
            Missing,
            /// Recalibrate with a shifted `w0`.
            Recalibrate(f64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..10, -1.0f64..4.0).prop_map(|(kind, x)| match kind {
                0 | 1 => Op::Missing,
                2 => Op::Recalibrate(0.05 + (x + 1.0) * 0.1),
                _ => Op::Sample(x),
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Over random sample/missing/recalibrate interleavings, a
            /// push → sweep → store round trip per step (the protocol's
            /// shape) leaves every detector bit-for-bit (`to_bits`)
            /// where the scalar call sequence leaves it.
            #[test]
            fn bank_is_bit_identical_over_random_interleavings(
                schedule in proptest::collection::vec(
                    proptest::collection::vec(op_strategy(), 1..40), 1..7),
            ) {
                let p = params();
                let n = schedule.len();
                let steps = schedule.iter().map(Vec::len).max().unwrap_or(0);
                let mut scalars: Vec<Detector> = (0..n).map(|_| detector(p)).collect();
                let mut banked = scalars.clone();
                let mut bank = DetectorBank::new();
                let mut verdicts = Vec::new();
                for step in 0..steps {
                    // Recalibrations happen on the detectors between
                    // sweeps, as in the protocol (end_round →
                    // refresh_filter).
                    for i in 0..n {
                        if let Some(Op::Recalibrate(w0)) = schedule[i].get(step) {
                            let mut fresh = p;
                            fresh.w0 = *w0;
                            banked[i].recalibrate(fresh).unwrap();
                            scalars[i].recalibrate(fresh).unwrap();
                        }
                    }
                    let mut obs = vec![0.0f64; n];
                    let mut active = vec![false; n];
                    let mut coast = vec![false; n];
                    for i in 0..n {
                        match schedule[i].get(step) {
                            Some(Op::Sample(x)) => {
                                obs[i] = *x;
                                active[i] = true;
                            }
                            Some(Op::Missing) => coast[i] = true,
                            _ => {}
                        }
                    }
                    bank.clear();
                    for d in &banked {
                        bank.push(d);
                    }
                    bank.predict_all();
                    bank.evaluate_into(&obs, &active, &mut verdicts);
                    let mut accept = vec![false; n];
                    for i in 0..n {
                        if !active[i] {
                            continue;
                        }
                        let scalar_verdict = scalars[i].evaluate(obs[i]).unwrap();
                        let v = verdicts[i].expect("active slot");
                        prop_assert_eq!(
                            v.innovation.to_bits(),
                            scalar_verdict.innovation.to_bits()
                        );
                        prop_assert_eq!(
                            v.threshold.to_bits(),
                            scalar_verdict.threshold.to_bits()
                        );
                        prop_assert_eq!(v.suspicious, scalar_verdict.suspicious);
                        if !v.suspicious {
                            accept[i] = true;
                            scalars[i].accept(obs[i]);
                        }
                    }
                    for i in 0..n {
                        if coast[i] {
                            scalars[i].coast();
                        }
                    }
                    bank.accept_all(&obs, &accept);
                    bank.coast_all(&coast);
                    for (i, d) in banked.iter_mut().enumerate() {
                        bank.store(i, d);
                    }
                }
                for (i, (b, scalar)) in banked.iter().zip(&scalars).enumerate() {
                    prop_assert_eq!(b, scalar, "slot {} diverged", i);
                }
            }
        }
    }

    #[test]
    fn inactive_slots_ignore_their_observation_value() {
        let d = detector(params());
        let mut bank = DetectorBank::new();
        bank.push(&d);
        bank.push(&d);
        bank.predict_all();
        let mut verdicts = Vec::new();
        bank.evaluate_into(&[f64::NAN, 0.3], &[false, true], &mut verdicts);
        assert!(verdicts[0].is_none());
        assert!(verdicts[1].is_some());
    }
}
