//! A single NPS node.

use crate::config::NpsConfig;
use crate::lanes::{Job, JobQueue, LaneSolver};
use crate::simplex::NelderMeadStats;
use ices_coord::{relative_error, Coordinate, Embedding, PeerSample, StepOutcome};
use ices_stats::ewma::Ewma;
use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::borrow::BorrowMut;
use std::collections::VecDeque;

/// Summary of one completed positioning round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Residual objective (mean squared relative fit error) after the
    /// round's repositioning.
    pub fit_error: f64,
    /// Reference points discarded by NPS's built-in security filter.
    pub discarded: Vec<usize>,
    /// Samples used in the final solve.
    pub samples_used: usize,
    /// Nelder–Mead minimizations the round ran: the filter's trial plus
    /// the final solve, less the final's restart 0 when the trial
    /// discarded nothing and its restart 0 was reused.
    pub solver_runs: usize,
    /// Objective evaluations those minimizations ran.
    pub evaluations: usize,
    /// Nelder–Mead iterations those minimizations ran.
    pub iterations: usize,
}

/// Per-node NPS state.
///
/// The node buffers accepted reference-point samples during a round
/// ([`Embedding::apply_step`] stores a sample and reports `moved:
/// false`); [`NpsNode::finish_round`] runs the built-in security filter
/// and the downhill-simplex solve, actually moving the coordinate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NpsNode {
    id: usize,
    config: NpsConfig,
    coordinate: Coordinate,
    local_error: Ewma,
    round: Vec<PeerSample>,
    steps: u64,
    rounds: u64,
    rng: SimRng,
    /// Workspace of the rounds this node finishes, alone or at the head
    /// of a batch.
    scratch: RoundScratch,
}

impl NpsNode {
    /// Create a node with a small random initial coordinate (breaking the
    /// all-at-origin symmetry that the simplex solver cannot).
    pub fn new(id: usize, config: NpsConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = SimRng::from_stream(seed, id as u64, streams::NPSN); // "NPSN"
        let coordinate = Coordinate::random(config.space, 1.0, &mut rng);
        Self {
            id,
            config,
            coordinate,
            local_error: Ewma::new(config.error_smoothing, config.initial_error),
            round: Vec::new(),
            steps: 0,
            rounds: 0,
            rng,
            scratch: RoundScratch::default(),
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Configuration in force.
    pub fn config(&self) -> &NpsConfig {
        &self.config
    }

    /// Embedding steps accepted so far (across all rounds).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Positioning rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Samples buffered in the current round.
    pub fn pending_samples(&self) -> usize {
        self.round.len()
    }

    /// Forget all positioning state and rejoin (§3.2's second embedding).
    pub fn reset(&mut self) {
        self.coordinate = Coordinate::random(self.config.space, 1.0, &mut self.rng);
        self.local_error = Ewma::new(self.config.error_smoothing, self.config.initial_error);
        self.round.clear();
        self.steps = 0;
        self.rounds = 0;
    }

    /// Complete the current round: run NPS's built-in security filter,
    /// reposition via downhill simplex, update the local error, and clear
    /// the buffer. A one-node [`finish_rounds`](Self::finish_rounds).
    ///
    /// Returns `None` — leaving the coordinate untouched — when fewer
    /// than `config.min_rps` samples were accepted this round (the
    /// detection protocol may have vetoed the rest).
    pub fn finish_round(&mut self) -> Option<RoundSummary> {
        Self::finish_rounds(&mut [self]).pop().flatten()
    }

    /// Complete the current round of every node in `nodes`, exactly as
    /// [`finish_round`](Self::finish_round) would complete each alone;
    /// the summaries come back in `nodes` order.
    ///
    /// Each round's minimizations are queued as jobs: the filter's trial
    /// restarts, the final solve's other restarts ahead of the filter's
    /// decision (in lanes no other job needs; moot if the filter
    /// discards), and after a discard the final solve in full. The jobs
    /// of all nodes run as lock-step lanes ([`crate::lanes`]). A
    /// minimization depends only on its own start and samples, and a
    /// node draws its round's random starts from its RNG in the order
    /// the one-node loop drew them, so every coordinate, summary and RNG
    /// state is that of the node finishing alone, whatever the batch.
    pub fn finish_rounds<N: BorrowMut<NpsNode>>(nodes: &mut [N]) -> Vec<Option<RoundSummary>> {
        let mut summaries = vec![None; nodes.len()];
        let Some(first) = nodes.first_mut() else {
            return summaries;
        };
        // The batch runs in its first node's workspace, so a node that
        // finishes alone, or leads the same batch round after round,
        // reuses warm buffers.
        let mut scratch = std::mem::take(&mut first.borrow_mut().scratch);
        let RoundScratch {
            solver,
            passes,
            buffers,
        } = &mut scratch;
        // Lanes share one row width, so each dimensionality in the batch
        // (in practice there is one) runs as a pass of its own.
        passes.clear();
        passes.extend(nodes.iter().map(|n| n.borrow().config.space.dims()));
        passes.sort_unstable();
        passes.dedup();
        let mut batch = RoundBatch {
            nodes,
            summaries: &mut summaries,
            buf: buffers,
        };
        for &dims in passes.iter() {
            batch.buf.clear();
            for slot in 0..batch.nodes.len() {
                let node = batch.nodes[slot].borrow_mut();
                if node.config.space.dims() != dims {
                    continue;
                }
                if node.round.len() < node.config.min_rps {
                    node.round.clear();
                    continue;
                }
                batch.open_round(slot);
            }
            solver.run(dims, &mut batch);
        }
        if let Some(first) = nodes.first_mut() {
            first.borrow_mut().scratch = scratch;
        }
        summaries
    }
}

// A round's minimizations fill three ranges of `restarts` result slots.

/// The filter's trial.
const TRIAL: usize = 0;
/// The final solve's restarts from 1 on, run ahead of the trial's
/// decision on the premise that it discards nothing (slot 0 takes the
/// trial's restart 0 once that premise holds).
const AHEAD: usize = 1;
/// The final solve in full: after a discard, or without a trial.
const RERUN: usize = 2;

/// Workspace of [`NpsNode::finish_rounds`]: the lane solver and the
/// batch's buffers, kept between calls. Pure scratch, not part of a
/// node's state: it serializes as `null` and deserializes cold.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    solver: LaneSolver<JobId>,
    /// The batch's dimensionalities, one lane pass each.
    passes: Vec<usize>,
    buffers: BatchBuffers,
}

// The vendored serde derive has no `#[serde(skip)]`, so the workspace
// opts out by hand.
impl Serialize for RoundScratch {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for RoundScratch {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
}

/// A minimization: `(index into rounds, result slot)`, the slot counted
/// from the round's `base` over its three ranges.
type JobId = (usize, usize);

/// The rounds of one lane pass and their minimizations' inputs and
/// results, flat: round `r`'s slot `s` is entry `rounds[r].base + s`
/// (times `dims` for points).
#[derive(Debug, Clone, Default)]
struct BatchBuffers {
    rounds: Vec<RoundInFlight>,
    /// Ready jobs.
    queue: VecDeque<JobId>,
    /// Jobs run ahead of a trial's decision, taken only when `queue` is
    /// empty: they fill lanes that would otherwise idle.
    spare: VecDeque<JobId>,
    /// Each slot's start point.
    starts: Vec<f64>,
    /// The final solve's uniform draws, in its restart slots of the
    /// trial range: the starts are these scaled by the median RTT of the
    /// samples the final solve ends up with.
    draws: Vec<f64>,
    /// Each slot's outcome and best point.
    results: Vec<NelderMeadStats>,
    points: Vec<f64>,
    /// The filter's per-sample fit errors against the trial solution.
    errors: Vec<f64>,
    /// RTTs or fit errors for median selection.
    select: Vec<f64>,
}

impl BatchBuffers {
    fn clear(&mut self) {
        self.rounds.clear();
        self.queue.clear();
        self.spare.clear();
        self.starts.clear();
        self.draws.clear();
        self.results.clear();
        self.points.clear();
    }
}

/// One node's round in flight through [`NpsNode::finish_rounds`].
#[derive(Debug, Clone)]
struct RoundInFlight {
    /// The node's index in the batch.
    slot: usize,
    /// The round's samples (less the discarded one after a discard).
    samples: Vec<PeerSample>,
    dims: usize,
    restarts: usize,
    /// First of the round's `3 × restarts` result slots.
    base: usize,
    /// Whether the filter's trial runs.
    trial: bool,
    /// Initial simplex step of each range.
    steps: [f64; 3],
    /// Minimizations of each range still to come in.
    open: [usize; 3],
    /// The final solve's range once known: `AHEAD` or `RERUN`.
    final_range: Option<usize>,
    /// The trial discarded a sample, so the `AHEAD` runs are moot.
    ahead_moot: bool,
    discarded: Vec<usize>,
}

/// The job queue of [`NpsNode::finish_rounds`]: each node's trial and
/// final restarts as independent jobs.
struct RoundBatch<'a, N> {
    nodes: &'a mut [N],
    summaries: &'a mut [Option<RoundSummary>],
    buf: &'a mut BatchBuffers,
}

impl<N: BorrowMut<NpsNode>> RoundBatch<'_, N> {
    /// Start the round of the node at `slot`, which has enough samples.
    /// NPS's built-in landmark filter runs a trial solve first, when
    /// there is a reference point to spare.
    fn open_round(&mut self, slot: usize) {
        let node = self.nodes[slot].borrow_mut();
        let config = &node.config;
        let (dims, restarts) = (config.space.dims(), config.solver_restarts);
        let samples = std::mem::take(&mut node.round);
        let trial = config.basic_security && samples.len() > config.min_rps;
        let buf = &mut *self.buf;
        let base = buf.results.len();
        let slots = base + 3 * restarts;
        let unset = NelderMeadStats {
            value: f64::NAN,
            iterations: 0,
            evaluations: 0,
            converged: false,
        };
        buf.results.resize(slots, unset);
        for v in [&mut buf.starts, &mut buf.draws, &mut buf.points] {
            v.resize(slots * dims, 0.0);
        }
        buf.rounds.push(RoundInFlight {
            slot,
            samples,
            dims,
            restarts,
            base,
            trial,
            steps: [0.0; 3],
            open: [0; 3],
            final_range: None,
            ahead_moot: false,
            discarded: Vec::new(),
        });
        let r = buf.rounds.len() - 1;
        if trial {
            self.queue_trial(r);
        } else {
            self.queue_final(r, true);
        }
    }

    /// Queue round `r`'s trial restarts, and its final restarts from 1 on
    /// as spare jobs. Restart 0 starts from the current coordinate, the
    /// others from random points at the network's scale (the GNP recipe:
    /// the objective has mirror-fold local minima). Every random start of
    /// the round is drawn now, in the order the phases use them — the
    /// trial's restarts, then the final's — so the node's stream is the
    /// same whatever the trial decides; the final's draws are kept and
    /// scaled once its samples are known.
    fn queue_trial(&mut self, r: usize) {
        let buf = &mut *self.buf;
        let round = &mut buf.rounds[r];
        let node = self.nodes[round.slot].borrow_mut();
        let (dims, restarts, base) = (round.dims, round.restarts, round.base);
        let median_rtt = median_rtt(&mut buf.select, &round.samples);
        round.steps[TRIAL] = (median_rtt / 4.0).max(1.0);
        round.steps[AHEAD] = round.steps[TRIAL];
        let at = |range: usize, restart: usize| (base + range * restarts + restart) * dims;
        let start = at(TRIAL, 0);
        buf.starts[start..start + dims].copy_from_slice(node.coordinate.position());
        for restart in 1..restarts {
            let start = at(TRIAL, restart);
            for x in &mut buf.starts[start..start + dims] {
                *x = (node.rng.random::<f64>() * 2.0 - 1.0) * median_rtt;
            }
        }
        for restart in 1..restarts {
            let (draw, start) = (at(TRIAL, restart), at(AHEAD, restart));
            for d in 0..dims {
                let u = node.rng.random::<f64>();
                buf.draws[draw + d] = u;
                buf.starts[start + d] = (u * 2.0 - 1.0) * median_rtt;
            }
        }
        round.open[TRIAL] = restarts;
        round.open[AHEAD] = restarts - 1;
        let ids =
            |range: usize, from: usize| (from..restarts).map(move |k| (r, range * restarts + k));
        buf.queue.extend(ids(TRIAL, 0));
        buf.spare.extend(ids(AHEAD, 1));
    }

    /// Queue round `r`'s final solve in full, on its samples as they now
    /// are: restart 0 from the current coordinate, the others from the
    /// uniform draws, taken from the node's stream now (`draw`) or kept
    /// from when the trial was queued.
    fn queue_final(&mut self, r: usize, draw: bool) {
        let buf = &mut *self.buf;
        let round = &mut buf.rounds[r];
        let node = self.nodes[round.slot].borrow_mut();
        let (dims, restarts, base) = (round.dims, round.restarts, round.base);
        let median_rtt = median_rtt(&mut buf.select, &round.samples);
        round.steps[RERUN] = (median_rtt / 4.0).max(1.0);
        let at = |range: usize, restart: usize| (base + range * restarts + restart) * dims;
        let start = at(RERUN, 0);
        buf.starts[start..start + dims].copy_from_slice(node.coordinate.position());
        for restart in 1..restarts {
            let (kept, start) = (at(TRIAL, restart), at(RERUN, restart));
            for d in 0..dims {
                let u = if draw {
                    node.rng.random::<f64>()
                } else {
                    buf.draws[kept + d]
                };
                buf.starts[start + d] = (u * 2.0 - 1.0) * median_rtt;
            }
        }
        round.open[RERUN] = restarts;
        round.final_range = Some(RERUN);
        buf.queue
            .extend((0..restarts).map(|k| (r, RERUN * restarts + k)));
    }

    /// The slot of range `range` holding the best result: restart 0's,
    /// replaced by any strictly better one in restart order.
    fn best_slot(&self, r: usize, range: usize) -> usize {
        let round = &self.buf.rounds[r];
        let first = round.base + range * round.restarts;
        let results = &self.buf.results[first..first + round.restarts];
        let mut best = 0;
        for (restart, stats) in results.iter().enumerate() {
            if stats.value < results[best].value {
                best = restart;
            }
        }
        first + best
    }

    /// Every trial restart of round `r` is in: apply NPS's built-in
    /// landmark filter, faithfully primitive — discard only the SINGLE
    /// worst-fitting reference point, and only if its error exceeds
    /// `sensitivity ×` the median fit error. (One elimination per round
    /// is exactly why the paper's reference [11] defeats it with a
    /// colluding minority — the SIGCOMM'07 paper calls the mechanism
    /// "too primitive".)
    fn trial_done(&mut self, r: usize) {
        let best = self.best_slot(r, TRIAL);
        let buf = &mut *self.buf;
        let round = &mut buf.rounds[r];
        let sensitivity = self.nodes[round.slot].borrow().config.sensitivity;
        let dims = round.dims;
        let solution = Coordinate::euclidean(buf.points[best * dims..(best + 1) * dims].to_vec());
        let errors = &mut buf.errors;
        errors.clear();
        errors.extend(round.samples.iter().map(|s| fit_error(&solution, s)));
        buf.select.clear();
        buf.select.extend_from_slice(errors);
        let median = upper_median(&mut buf.select).max(1e-3);
        let threshold = sensitivity * median;
        let worst = errors
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if errors.get(worst).copied().unwrap_or(0.0) > threshold {
            let dropped = round.samples.remove(worst);
            round.discarded.push(dropped.peer);
            round.ahead_moot = true;
            self.queue_final(r, false);
        } else {
            // The final solve would rerun restart 0 on the same samples
            // from the same coordinate with the same step, drawing
            // nothing: a pure function of unchanged inputs, so the
            // trial's result stands in for it, and the runs ahead are
            // the final solve's other restarts.
            let (from, to) = (round.base, round.base + AHEAD * round.restarts);
            buf.results[to] = buf.results[from];
            buf.points
                .copy_within(from * dims..(from + 1) * dims, to * dims);
            round.final_range = Some(AHEAD);
            if round.open[AHEAD] == 0 {
                self.final_done(r);
            }
        }
    }

    /// Every restart of round `r`'s final solve is in: move the node.
    fn final_done(&mut self, r: usize) {
        let round = &self.buf.rounds[r];
        let Some(range) = round.final_range else {
            return;
        };
        let best = self.best_slot(r, range);
        let buf = &mut *self.buf;
        let round = &mut buf.rounds[r];
        let (dims, restarts, base) = (round.dims, round.restarts, round.base);
        let solution = Coordinate::euclidean(buf.points[best * dims..(best + 1) * dims].to_vec());
        // The runs the round paid for: the trial's, then the final's
        // (less restart 0 when the trial's stood in for it).
        let trial_runs = if round.trial { 0..restarts } else { 0..0 };
        let final_first = base + range * restarts + usize::from(range == AHEAD);
        let runs = buf.results[base + trial_runs.start..base + trial_runs.end]
            .iter()
            .chain(&buf.results[final_first..base + (range + 1) * restarts]);
        let (mut solver_runs, mut evaluations, mut iterations) = (0, 0, 0);
        for stats in runs {
            solver_runs += 1;
            evaluations += stats.evaluations;
            iterations += stats.iterations;
        }
        let node = self.nodes[round.slot].borrow_mut();
        let fit = mean_sq_rel_error(&solution, &round.samples);
        node.coordinate = solution;
        node.rounds += 1;
        self.summaries[round.slot] = Some(RoundSummary {
            fit_error: fit,
            discarded: std::mem::take(&mut round.discarded),
            samples_used: round.samples.len(),
            solver_runs,
            evaluations,
            iterations,
        });
        // Hand the sample buffer back, emptied, so the next round's steps
        // fill it without regrowing it.
        round.samples.clear();
        node.round = std::mem::take(&mut round.samples);
    }
}

/// The element a total-order sort would put at the middle of the
/// samples' RTTs.
fn median_rtt(select: &mut Vec<f64>, samples: &[PeerSample]) -> f64 {
    debug_assert!(!samples.is_empty());
    select.clear();
    select.extend(samples.iter().map(|s| s.rtt_ms));
    upper_median(select)
}

impl<N: BorrowMut<NpsNode>> JobQueue for RoundBatch<'_, N> {
    type Id = JobId;

    fn next_job(&mut self) -> Option<(Self::Id, Job<'_>)> {
        let (r, s) = match self.buf.queue.pop_front() {
            Some(id) => id,
            None => loop {
                let id = self.buf.spare.pop_front()?;
                if self.wanted(id) {
                    break id;
                }
            },
        };
        let round = &self.buf.rounds[r];
        let config = &self.nodes[round.slot].borrow().config;
        let (dims, at) = (round.dims, round.base + s);
        let job = Job {
            samples: &round.samples,
            start: &self.buf.starts[at * dims..(at + 1) * dims],
            step: round.steps[s / round.restarts],
            max_iter: config.solver_max_iter,
            tol: config.solver_tol,
        };
        Some(((r, s), job))
    }

    fn wanted(&self, (r, s): Self::Id) -> bool {
        let round = &self.buf.rounds[r];
        !(round.ahead_moot && s / round.restarts == AHEAD)
    }

    fn finish_job(&mut self, (r, s): Self::Id, stats: NelderMeadStats, best: &[f64]) {
        if !self.wanted((r, s)) {
            return;
        }
        let round = &mut self.buf.rounds[r];
        let (at, range) = (round.base + s, s / round.restarts);
        self.buf.results[at] = stats;
        self.buf.points[at * round.dims..(at + 1) * round.dims].copy_from_slice(best);
        round.open[range] -= 1;
        if round.open[range] > 0 {
            return;
        }
        if range == TRIAL {
            self.trial_done(r);
        } else if round.final_range == Some(range) {
            self.final_done(r);
        }
    }
}

/// The element a total-order sort would put at `len / 2`, found by
/// selection (the same element: `total_cmp` equality is bit equality).
/// Reorders `values`.
fn upper_median(values: &mut [f64]) -> f64 {
    let mid = values.len() / 2;
    *values.select_nth_unstable_by(mid, f64::total_cmp).1
}

fn fit_error(coord: &Coordinate, sample: &PeerSample) -> f64 {
    relative_error(coord, &sample.peer_coord, sample.rtt_ms)
}

fn mean_sq_rel_error(coord: &Coordinate, samples: &[PeerSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples
        .iter()
        .map(|s| fit_error(coord, s).powi(2))
        .sum::<f64>()
        / samples.len() as f64
}

impl Embedding for NpsNode {
    fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    fn local_error(&self) -> f64 {
        if self.local_error.is_initialized() {
            self.local_error.value()
        } else {
            self.config.initial_error
        }
    }

    fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome {
        // A zero, negative, or non-finite RTT is a broken measurement:
        // the GNP objective divides by it, so one such sample would feed
        // NaN/Inf into every evaluation of the round's solve. Refuse to
        // buffer it — the node observes nothing and the coordinate
        // holds.
        if !(sample.rtt_ms.is_finite() && sample.rtt_ms > 0.0) {
            return StepOutcome {
                relative_error: f64::INFINITY,
                local_error: self.local_error(),
                moved: false,
            };
        }
        let d = relative_error(&self.coordinate, &sample.peer_coord, sample.rtt_ms);
        self.local_error.update(d);
        self.round.push(sample.clone());
        self.steps += 1;
        StepOutcome {
            relative_error: d,
            local_error: self.local_error(),
            moved: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NelderMeadScratch;
    use ices_coord::Space;
    use proptest::prelude::*;

    fn small_config() -> NpsConfig {
        // 2-d space so tests are cheap and geometric intuition holds.
        NpsConfig {
            space: Space::euclidean(2),
            landmarks: 6,
            rps_per_node: 6,
            min_rps: 3,
            ..NpsConfig::paper_default()
        }
    }

    /// Anchors on a ring plus the true distances toward `truth`.
    fn anchors_and_samples(truth: &[f64]) -> Vec<PeerSample> {
        let anchors = [
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![0.0, 100.0],
            vec![100.0, 100.0],
            vec![50.0, -40.0],
            vec![-40.0, 50.0],
        ];
        anchors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let d = ((a[0] - truth[0]).powi(2) + (a[1] - truth[1]).powi(2)).sqrt();
                PeerSample {
                    peer: i,
                    peer_coord: Coordinate::euclidean(a.clone()),
                    peer_error: 0.1,
                    rtt_ms: d.max(1.0),
                }
            })
            .collect()
    }

    #[test]
    fn steps_buffer_without_moving() {
        let mut n = NpsNode::new(0, small_config(), 1);
        let before = n.coordinate().clone();
        let samples = anchors_and_samples(&[30.0, 40.0]);
        for s in &samples[..3] {
            let out = n.apply_step(s);
            assert!(!out.moved);
        }
        assert_eq!(n.pending_samples(), 3);
        assert_eq!(n.coordinate(), &before);
    }

    #[test]
    fn non_positive_rtt_samples_are_rejected() {
        let mut n = NpsNode::new(0, small_config(), 9);
        let before_err = n.local_error();
        let mut bad = anchors_and_samples(&[30.0, 40.0]).remove(0);
        for rtt in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            bad.rtt_ms = rtt;
            let out = n.apply_step(&bad);
            assert!(!out.moved);
            assert!(out.relative_error.is_infinite());
        }
        assert_eq!(n.pending_samples(), 0, "broken samples must not buffer");
        assert_eq!(n.steps(), 0);
        assert_eq!(n.local_error(), before_err, "EWMA must not absorb garbage");
    }

    #[test]
    fn finish_round_recovers_position() {
        let mut n = NpsNode::new(0, small_config(), 2);
        for s in anchors_and_samples(&[30.0, 40.0]) {
            n.apply_step(&s);
        }
        let summary = n.finish_round().expect("round should complete");
        assert!(summary.fit_error < 1e-4, "fit = {}", summary.fit_error);
        assert!(summary.discarded.is_empty());
        let pos = n.coordinate().position();
        assert!(
            (pos[0] - 30.0).abs() < 1.0 && (pos[1] - 40.0).abs() < 1.0,
            "recovered {pos:?}"
        );
        assert_eq!(n.rounds(), 1);
        assert_eq!(n.pending_samples(), 0);
    }

    #[test]
    fn too_few_samples_skip_the_round() {
        let mut n = NpsNode::new(0, small_config(), 3);
        let before = n.coordinate().clone();
        let samples = anchors_and_samples(&[30.0, 40.0]);
        n.apply_step(&samples[0]);
        n.apply_step(&samples[1]);
        assert!(n.finish_round().is_none());
        assert_eq!(n.coordinate(), &before);
        assert_eq!(n.rounds(), 0);
        assert_eq!(n.pending_samples(), 0, "buffer must clear regardless");
    }

    #[test]
    fn basic_security_discards_lying_reference_point() {
        let mut cfg = small_config();
        cfg.sensitivity = 4.0;
        cfg.basic_security = true;
        let mut n = NpsNode::new(0, cfg, 4);
        let mut samples = anchors_and_samples(&[30.0, 40.0]);
        // One RP lies wildly about its coordinate: claims to be far away
        // while the RTT says close.
        samples[5].peer_coord = Coordinate::euclidean(vec![5000.0, 5000.0]);
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert_eq!(summary.discarded, vec![5], "the liar should be dropped");
        let pos = n.coordinate().position();
        assert!(
            (pos[0] - 30.0).abs() < 2.0 && (pos[1] - 40.0).abs() < 2.0,
            "position survived the attack: {pos:?}"
        );
    }

    #[test]
    fn security_off_lets_the_lie_through() {
        let mut cfg = small_config();
        cfg.basic_security = false;
        let mut n = NpsNode::new(0, cfg, 5);
        let mut samples = anchors_and_samples(&[30.0, 40.0]);
        samples[5].peer_coord = Coordinate::euclidean(vec![5000.0, 5000.0]);
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert!(summary.discarded.is_empty());
        assert!(
            summary.fit_error > 1e-2,
            "the lie should hurt the fit: {}",
            summary.fit_error
        );
    }

    #[test]
    fn local_error_decreases_on_good_rounds() {
        let mut n = NpsNode::new(0, small_config(), 6);
        assert_eq!(n.local_error(), 1.0);
        for _ in 0..5 {
            for s in anchors_and_samples(&[30.0, 40.0]) {
                n.apply_step(&s);
            }
            n.finish_round();
        }
        assert!(n.local_error() < 0.2, "e_l = {}", n.local_error());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut n = NpsNode::new(0, small_config(), 7);
        for s in anchors_and_samples(&[30.0, 40.0]) {
            n.apply_step(&s);
        }
        n.finish_round();
        n.reset();
        assert_eq!(n.rounds(), 0);
        assert_eq!(n.steps(), 0);
        assert_eq!(n.local_error(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut n = NpsNode::new(3, small_config(), 11);
            for s in anchors_and_samples(&[70.0, -20.0]) {
                n.apply_step(&s);
            }
            n.finish_round();
            n.coordinate().clone()
        };
        assert_eq!(run(), run());
    }

    /// 20 reference points in 8-d with slightly noisy RTTs toward
    /// `truth`; `liar` (if any) claims a far-off coordinate.
    fn golden_samples(round: usize, liar: Option<usize>) -> Vec<PeerSample> {
        let truth: Vec<f64> = (0..8).map(|d| 12.0 * d as f64 - 30.0).collect();
        (0..20)
            .map(|k| {
                let pos: Vec<f64> = (0..8)
                    .map(|d| ((k * 8 + d + round * 3) as f64 * 0.7).sin() * 110.0)
                    .collect();
                let dist = pos
                    .iter()
                    .zip(&truth)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let noise = 1.0 + 0.04 * ((k * 5 + round) as f64).cos();
                let claimed = if liar == Some(k) {
                    Coordinate::euclidean(vec![4000.0; 8])
                } else {
                    Coordinate::euclidean(pos)
                };
                PeerSample {
                    peer: k,
                    peer_coord: claimed,
                    peer_error: 0.1,
                    rtt_ms: (dist * noise).max(1.0),
                }
            })
            .collect()
    }

    /// Captured before the tiled kernel and the trial reuse: rounds 0
    /// and 2 discard nothing (the final solve reuses the trial's restart
    /// 0), round 1 discards the liar (the final solve runs in full).
    /// One golden round: whether it discards, the fit-error bits and the
    /// coordinate bits after it.
    type GoldenRound = (bool, u64, [u64; 8]);

    #[test]
    fn finish_round_8d_golden() {
        #[rustfmt::skip]
        let expected: [(usize, [GoldenRound; 3]); 2] = [
            (2, [
                (false, 0x3f483debe01e5b41, [0x4016da8cdd9825bb, 0xc04be9d40fd67668, 0xc03c88662afee1c3, 0x402b8b4e0e6c4376, 0x403e76426453240a, 0x4033f258a4c4af92, 0x40421333309e819b, 0x403a6c970f9c7c14]),
                (true, 0x3f486f36c0fa04ad, [0x401f18be55e87c7e, 0xc046bc3505b99978, 0xc0333c93a67914bc, 0x403066efd3d907b6, 0x4037e90c110b3704, 0x403aa89e0f5c1496, 0x40431c917b394b7c, 0x4041e337e5c75f50]),
                (false, 0x3f491c634ee61a9e, [0xc016a00f0a070d76, 0xc02863da5c472608, 0xc039ef393c9cb3ac, 0x40293e121ebe0f37, 0x403803ebcd3ec8ce, 0x4048e571bac69ab6, 0x4043e20e49cc897c, 0x4044789c588d5f8c]),
            ]),
            (1, [
                (false, 0x3f483debe01e5b41, [0x4016da8cdd9825bb, 0xc04be9d40fd67668, 0xc03c88662afee1c3, 0x402b8b4e0e6c4376, 0x403e76426453240a, 0x4033f258a4c4af92, 0x40421333309e819b, 0x403a6c970f9c7c14]),
                (true, 0x3f486f36c0fa04ad, [0x401f18be55e87c7e, 0xc046bc3505b99978, 0xc0333c93a67914bc, 0x403066efd3d907b6, 0x4037e90c110b3704, 0x403aa89e0f5c1496, 0x40431c917b394b7c, 0x4041e337e5c75f50]),
                (false, 0x3f491c634ee61aa3, [0x400532e6efadf665, 0xc042aa352162b83c, 0xc033c4d135c7a99e, 0x403239599ea72152, 0x403b72cd9ef35fe5, 0x403dcb01ff86a426, 0x40466eaa95f9dc24, 0x4043ad9cb21f21dc]),
            ]),
        ];
        // `(evaluations, iterations)` of each round's minimizations,
        // counted on the one-solve-at-a-time solver the lanes replaced.
        let counts: [[(usize, usize); 3]; 2] = [
            [(2103, 1109), (3165, 1815), (1927, 986)],
            [(639, 324), (1501, 885), (598, 302)],
        ];
        for ((restarts, rounds), counts) in expected.into_iter().zip(counts) {
            let cfg = NpsConfig {
                solver_restarts: restarts,
                ..NpsConfig::paper_default()
            };
            let mut n = NpsNode::new(5, cfg, 2007);
            for (round, (discards, fit_bits, coord_bits)) in rounds.into_iter().enumerate() {
                let liar = if discards { Some(7) } else { None };
                for s in golden_samples(round, liar) {
                    n.apply_step(&s);
                }
                let summary = n.finish_round().expect("round completes");
                let bits: Vec<u64> = n
                    .coordinate()
                    .position()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(bits, coord_bits, "restarts={restarts} round={round}");
                assert_eq!(summary.fit_error.to_bits(), fit_bits);
                let want_discarded: &[usize] = if discards { &[7] } else { &[] };
                assert_eq!(summary.discarded, want_discarded);
                // The trial runs `restarts` minimizations; the final
                // solve skips its restart 0 unless the trial discarded.
                let want_runs = 2 * restarts - usize::from(!discards);
                assert_eq!(
                    summary.solver_runs, want_runs,
                    "restarts={restarts} round={round}"
                );
                assert_eq!(
                    (summary.evaluations, summary.iterations),
                    counts[round],
                    "restarts={restarts} round={round}"
                );
            }
        }
    }

    #[test]
    fn solver_runs_without_the_filter_are_the_restarts() {
        let mut cfg = small_config();
        cfg.basic_security = false;
        cfg.solver_restarts = 3;
        let mut n = NpsNode::new(0, cfg, 2);
        for s in anchors_and_samples(&[30.0, 40.0]) {
            n.apply_step(&s);
        }
        assert_eq!(n.finish_round().expect("round completes").solver_runs, 3);
    }

    /// The one-node-at-a-time round that [`NpsNode::finish_rounds`]
    /// replaced, kept as the reference the batch must reproduce: filter
    /// trial, discard or reuse of the trial's restart 0, final solve,
    /// each restart a `NelderMeadScratch` run on the scalar objective.
    fn reference_finish_round(node: &mut NpsNode) -> Option<RoundSummary> {
        if node.round.len() < node.config.min_rps {
            node.round.clear();
            return None;
        }
        let mut samples = std::mem::take(&mut node.round);
        let mut summary = RoundSummary {
            fit_error: 0.0,
            discarded: Vec::new(),
            samples_used: 0,
            solver_runs: 0,
            evaluations: 0,
            iterations: 0,
        };
        let mut first: Option<(f64, Vec<f64>)> = None;
        let mut reuse = false;
        if node.config.basic_security && samples.len() > node.config.min_rps {
            let trial = reference_solve(node, &samples, None, &mut first, &mut summary);
            let trial = Coordinate::euclidean(trial);
            let errors: Vec<f64> = samples.iter().map(|s| fit_error(&trial, s)).collect();
            let mut select = errors.clone();
            select.sort_by(f64::total_cmp);
            let median = select[select.len() / 2].max(1e-3);
            let worst = errors
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if errors[worst] > node.config.sensitivity * median {
                summary.discarded.push(samples.remove(worst).peer);
            } else {
                reuse = true;
            }
        }
        let reused = if reuse { first.clone() } else { None };
        let solution = reference_solve(node, &samples, reused, &mut first, &mut summary);
        let solution = Coordinate::euclidean(solution);
        summary.fit_error = mean_sq_rel_error(&solution, &samples);
        summary.samples_used = samples.len();
        node.coordinate = solution;
        node.rounds += 1;
        Some(summary)
    }

    /// One solve of the reference round: restarts in order, restart 0
    /// from the coordinate (or taken over from the trial), the others
    /// from RNG draws, the strictly better one kept.
    fn reference_solve(
        node: &mut NpsNode,
        samples: &[PeerSample],
        reused: Option<(f64, Vec<f64>)>,
        first: &mut Option<(f64, Vec<f64>)>,
        summary: &mut RoundSummary,
    ) -> Vec<f64> {
        let dims = node.config.space.dims();
        let mut rtts: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
        rtts.sort_by(f64::total_cmp);
        let median_rtt = rtts[rtts.len() / 2];
        let step = (median_rtt / 4.0).max(1.0);
        let mut best = reused.clone();
        let first_restart = usize::from(reused.is_some());
        let mut nm = NelderMeadScratch::new();
        for restart in first_restart..node.config.solver_restarts {
            let start: Vec<f64> = if restart == 0 {
                node.coordinate.position().to_vec()
            } else {
                (0..dims)
                    .map(|_| (node.rng.random::<f64>() * 2.0 - 1.0) * median_rtt)
                    .collect()
            };
            let stats = nm.minimize(
                |x| scalar_objective(samples, x),
                &start,
                step,
                node.config.solver_max_iter,
                node.config.solver_tol,
            );
            summary.solver_runs += 1;
            summary.evaluations += stats.evaluations;
            summary.iterations += stats.iterations;
            let point = nm.best_point().to_vec();
            if restart == 0 {
                *first = Some((stats.value, point.clone()));
            }
            if best.as_ref().map(|(v, _)| stats.value < *v).unwrap_or(true) {
                best = Some((stats.value, point));
            }
        }
        best.map(|(_, x)| x).unwrap_or_default()
    }

    /// The GNP objective one `Coordinate::distance` at a time, terms
    /// summed in sample order.
    fn scalar_objective(samples: &[PeerSample], x: &[f64]) -> f64 {
        let me = Coordinate::euclidean(x.to_vec());
        let mut total = 0.0;
        for s in samples {
            let rel = (me.distance(&s.peer_coord) - s.rtt_ms) / s.rtt_ms;
            total += rel * rel;
        }
        total
    }

    /// A node for the batch equivalence test: `dims`-d (2 or 8), its
    /// filter on or off, `restarts` restarts, and `min_rps + extra − 1`
    /// samples (so below, at and above the minimum), one of them from a
    /// liar far off when `liar` is set.
    fn batch_node(spec: (bool, usize, bool, usize, bool, u64), id: usize) -> NpsNode {
        let (eight, restarts, security, extra, liar, seed) = spec;
        let dims = if eight { 8 } else { 2 };
        let cfg = NpsConfig {
            space: Space::euclidean(dims),
            landmarks: dims + 2,
            min_rps: dims + 1,
            rps_per_node: dims + 6,
            basic_security: security,
            solver_restarts: restarts,
            solver_max_iter: 60,
            ..NpsConfig::paper_default()
        };
        let mut node = NpsNode::new(id, cfg, seed);
        let truth: Vec<f64> = (0..dims)
            .map(|d| ((seed as usize + d) % 7) as f64 * 9.0 - 20.0)
            .collect();
        for k in 0..cfg.min_rps + extra - 1 {
            let pos: Vec<f64> = (0..dims)
                .map(|d| ((k * dims + d) as f64 * 0.9 + seed as f64).sin() * 120.0)
                .collect();
            let dist = pos
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let claimed = if liar && k == 1 {
                vec![3000.0; dims]
            } else {
                pos
            };
            node.apply_step(&PeerSample {
                peer: k,
                peer_coord: Coordinate::euclidean(claimed),
                peer_error: 0.1,
                rtt_ms: (dist * (1.0 + 0.03 * (k as f64).cos())).max(1.0),
            });
        }
        node
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A batch of nodes (more than there are lanes) finishes every
        /// round exactly as the one-node reference does — coordinate and
        /// fit bits, summary, and the RNG's next draw — in either order.
        #[test]
        fn finish_rounds_matches_one_node_rounds(
            specs in proptest::collection::vec(
                (0u8..2, 1usize..=3, 0u8..2, 0usize..=4, 0u8..2, 0u64..1000),
                1..10,
            ),
        ) {
            let specs: Vec<_> = specs
                .into_iter()
                .map(|(eight, restarts, security, extra, liar, seed)| {
                    (eight == 1, restarts, security == 1, extra, liar == 1, seed)
                })
                .collect();
            let mut want: Vec<NpsNode> = specs.iter().enumerate().map(|(i, &s)| batch_node(s, i)).collect();
            let want_summaries: Vec<Option<RoundSummary>> =
                want.iter_mut().map(reference_finish_round).collect();
            for reversed in [false, true] {
                let mut order: Vec<usize> = (0..specs.len()).collect();
                if reversed {
                    order.reverse();
                }
                let mut got: Vec<NpsNode> = order.iter().map(|&i| batch_node(specs[i], i)).collect();
                let summaries = NpsNode::finish_rounds(&mut got);
                for ((&i, node), summary) in order.iter().zip(&mut got).zip(&summaries) {
                    let reference = &mut want[i].clone();
                    prop_assert_eq!(summary, &want_summaries[i], "node {}", i);
                    let bits = |c: &Coordinate| c.position().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&node.coordinate), bits(&reference.coordinate), "node {}", i);
                    prop_assert_eq!(node.rounds, reference.rounds);
                    prop_assert_eq!(node.pending_samples(), 0);
                    prop_assert_eq!(node.rng.random::<u64>(), reference.rng.random::<u64>(), "node {}", i);
                }
            }
        }
    }

    #[test]
    fn eight_dimensional_solve_works() {
        // The paper's actual 8-d configuration, landmarks at distinct
        // random-ish corners.
        let cfg = NpsConfig::paper_default();
        let mut n = NpsNode::new(0, cfg, 8);
        let truth: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
        let samples: Vec<PeerSample> = (0..20)
            .map(|k| {
                let pos: Vec<f64> = (0..8)
                    .map(|d| {
                        if (k + d) % 3 == 0 {
                            100.0
                        } else {
                            -30.0 * (d as f64 + 1.0) / (k as f64 + 1.0)
                        }
                    })
                    .collect();
                let dist = pos
                    .iter()
                    .zip(&truth)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                PeerSample {
                    peer: k,
                    peer_coord: Coordinate::euclidean(pos),
                    peer_error: 0.1,
                    rtt_ms: dist.max(1.0),
                }
            })
            .collect();
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert!(
            summary.fit_error < 0.05,
            "8-d fit error = {}",
            summary.fit_error
        );
    }
}
