//! A single NPS node.

use crate::config::NpsConfig;
use crate::simplex::NelderMeadScratch;
use ices_coord::{relative_error, Coordinate, Embedding, PeerSample, StepOutcome};
use ices_stats::ewma::Ewma;
use ices_stats::rng::SimRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use ices_stats::streams;

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
    /// Solver workspace reused across restarts and rounds. Pure scratch:
    /// not part of the node's semantic state — it serializes as `null`
    /// and deserialized nodes start with a cold workspace.
    scratch: SolveScratch,
}

/// Per-solve inputs, the security filter's buffers and the Nelder–Mead
/// workspace, reused across restarts and rounds.
#[derive(Debug, Clone, Default)]
struct SolveScratch {
    nm: NelderMeadScratch,
    /// The round's reference set, flattened once per solve.
    tiles: RpTiles,
    /// Median of the RTTs in `tiles`: the scale of the random restarts.
    median_rtt: f64,
    /// RTTs (and later the filter's fit errors) for median selection.
    select: Vec<f64>,
    /// The filter's per-sample fit errors against the trial solution.
    errors: Vec<f64>,
    /// Starting point of the current restart.
    start: Vec<f64>,
    /// Value reached by restart 0 of the last solve.
    first_value: f64,
    /// Point reached by restart 0 of the last solve.
    first_x: Vec<f64>,
    /// Best solution across restarts.
    best_x: Vec<f64>,
}

/// Lanes per reference-point tile.
pub(crate) const TILE: usize = 8;

/// The reference set of one solve, flattened into 8-lane tiles.
///
/// Samples are grouped into blocks of [`TILE`]; a block holds its
/// positions dimension by dimension (`blocks × dims × [f64; TILE]`),
/// plus one tile each of heights and RTTs. The objective then builds
/// all eight squared distances of a block in registers, with no pass
/// through memory per dimension. Lanes past the last sample are padded
/// with a position at the origin, height 0 and RTT 1.0, so their terms
/// are finite for any finite candidate; the kernels never sum them.
#[derive(Debug, Clone, Default)]
pub(crate) struct RpTiles {
    /// Live samples (the lanes the kernels sum).
    ns: usize,
    /// Dimensionality of the positions.
    dims: usize,
    /// Positions, block-major: `blocks × dims` tiles.
    pos: Vec<[f64; TILE]>,
    /// Heights, one tile per block.
    heights: Vec<[f64; TILE]>,
    /// Measured RTTs, one tile per block.
    rtts: Vec<[f64; TILE]>,
}

impl RpTiles {
    /// Flatten `samples` (all of dimensionality `dims`) into tiles,
    /// reusing the buffers' capacity.
    pub(crate) fn fill(&mut self, samples: &[PeerSample], dims: usize) {
        let blocks = samples.len().div_ceil(TILE);
        self.ns = samples.len();
        self.dims = dims;
        self.pos.clear();
        self.pos.resize(blocks * dims, [0.0; TILE]);
        self.heights.clear();
        self.heights.resize(blocks, [0.0; TILE]);
        self.rtts.clear();
        self.rtts.resize(blocks, [1.0; TILE]);
        for (i, s) in samples.iter().enumerate() {
            let (block, lane) = (i / TILE, i % TILE);
            for (d, &p) in s.peer_coord.position().iter().enumerate() {
                self.pos[block * dims + d][lane] = p;
            }
            debug_assert!(
                s.rtt_ms > 0.0,
                "non-positive RTT {} reached the objective kernel",
                s.rtt_ms
            );
            self.heights[block][lane] = s.peer_coord.height();
            self.rtts[block][lane] = s.rtt_ms;
        }
    }

    /// Live samples.
    pub(crate) fn len(&self) -> usize {
        self.ns
    }

    /// The blocks in order: each block's position tiles (one per
    /// dimension), heights, RTTs, and the number of its live lanes.
    #[inline(always)]
    fn blocks(&self) -> impl Iterator<Item = (&[[f64; TILE]], &[f64; TILE], &[f64; TILE], usize)> {
        let dims = self.dims;
        self.heights
            .iter()
            .zip(&self.rtts)
            .enumerate()
            .map(move |(b, (heights, rtts))| {
                let pos = &self.pos[b * dims..(b + 1) * dims];
                (pos, heights, rtts, (self.ns - b * TILE).min(TILE))
            })
    }

    /// The GNP objective: the sum of squared relative errors of
    /// candidate `x` against every reference point.
    ///
    /// Bit-for-bit identical to evaluating `Coordinate::euclidean(x)`
    /// and `Coordinate::distance` per sample. Per sample the operation
    /// order is preserved exactly: the squared-difference accumulator
    /// advances in component order (as `vector::distance`'s `sum()`
    /// does); the candidate's height is zero, so `sqrt(sq) + height`
    /// reproduces `dist + self.height + other.height` (`d + 0.0` is
    /// exact for the non-negative `d` a square root returns); and the
    /// terms are summed in sample order from 0.0. Only the lanes of a
    /// tile run side by side, and lanes never mix.
    #[inline(always)]
    pub(crate) fn objective(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dims, "candidate dimensionality");
        let mut total = 0.0;
        for (pos, heights, rtts, live) in self.blocks() {
            let terms = tile_terms(x, pos, heights, rtts);
            for &t in &terms[..live] {
                total += t;
            }
        }
        total
    }
}

/// Squared distances from `x` to the eight reference points of one
/// block, accumulated in dimension order per lane. The first dimension
/// initializes the lanes outright: a square is never −0.0, so
/// `0.0 + diff²` is bitwise `diff²`.
#[inline(always)]
fn tile_sq(x: &[f64], pos: &[[f64; TILE]]) -> [f64; TILE] {
    let mut sq = [0.0; TILE];
    let mut rows = x.iter().zip(pos);
    if let Some((&xd, row)) = rows.next() {
        for (q, &p) in sq.iter_mut().zip(row) {
            let diff = xd - p;
            *q = diff * diff;
        }
    }
    for (&xd, row) in rows {
        for (q, &p) in sq.iter_mut().zip(row) {
            let diff = xd - p;
            *q += diff * diff;
        }
    }
    sq
}

/// The eight squared relative errors of one block. A helper returning
/// the whole tile (rather than a loop written inline in the objective)
/// is what lets the compiler pack the square roots and divisions.
#[inline(always)]
fn tile_terms(
    x: &[f64],
    pos: &[[f64; TILE]],
    heights: &[f64; TILE],
    rtts: &[f64; TILE],
) -> [f64; TILE] {
    let sq = tile_sq(x, pos);
    let mut terms = [0.0; TILE];
    for (((t, &q), &height), &rtt) in terms.iter_mut().zip(&sq).zip(heights).zip(rtts) {
        let est = q.sqrt() + height;
        let rel = (est - rtt) / rtt;
        *t = rel * rel;
    }
    terms
}

// The vendored serde derive has no `#[serde(skip)]`, so the workspace
// opts out by hand: it encodes as `null` and always deserializes cold.
impl Serialize for SolveScratch {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for SolveScratch {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
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
            scratch: SolveScratch::default(),
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
    /// the buffer.
    ///
    /// Returns `None` — leaving the coordinate untouched — when fewer
    /// than `config.min_rps` samples were accepted this round (the
    /// detection protocol may have vetoed the rest).
    pub fn finish_round(&mut self) -> Option<RoundSummary> {
        if self.round.len() < self.config.min_rps {
            self.round.clear();
            return None;
        }
        let mut samples = std::mem::take(&mut self.round);
        let mut discarded = Vec::new();
        let mut solver_runs = 0;
        // Whether the final solve may reuse the trial's flattened inputs
        // and its restart 0 (see `solve`).
        let mut reuse_trial = false;

        if self.config.basic_security {
            // NPS's built-in landmark filter, faithfully primitive: after
            // a trial solve, discard only the SINGLE worst-fitting
            // reference point, and only if its error exceeds
            // `sensitivity ×` the median fit error. (One elimination per
            // round is exactly why the paper's reference [11] defeats it
            // with a colluding minority — the SIGCOMM'07 paper calls the
            // mechanism "too primitive".)
            if samples.len() > self.config.min_rps {
                solver_runs += self.solve(&samples, false);
                let trial = Coordinate::euclidean(self.scratch.best_x.clone());
                let SolveScratch { select, errors, .. } = &mut self.scratch;
                errors.clear();
                errors.extend(samples.iter().map(|s| fit_error(&trial, s)));
                select.clear();
                select.extend_from_slice(errors);
                let median = upper_median(select).max(1e-3);
                let threshold = self.config.sensitivity * median;
                let worst = errors
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if errors.get(worst).copied().unwrap_or(0.0) > threshold {
                    let dropped = samples.remove(worst);
                    discarded.push(dropped.peer);
                } else {
                    reuse_trial = true;
                }
            }
        }

        solver_runs += self.solve(&samples, reuse_trial);
        let solution = Coordinate::euclidean(self.scratch.best_x.clone());
        let fit = mean_sq_rel_error(&solution, &samples);
        self.coordinate = solution;
        self.rounds += 1;
        Some(RoundSummary {
            fit_error: fit,
            discarded,
            samples_used: samples.len(),
            solver_runs,
        })
    }

    /// Minimize the GNP objective — the sum of squared relative errors
    /// against the sampled reference points. Solves from the current
    /// coordinate plus `solver_restarts − 1` random starting points (the
    /// GNP recipe: the objective has mirror-fold local minima) and keeps
    /// the best in `scratch.best_x`. Returns the number of
    /// minimizations run.
    ///
    /// `reuse_trial` says that the previous call solved the same
    /// samples from the same coordinate (the filter's trial, which
    /// discarded nothing). Restart 0 is then a pure function of inputs
    /// that have not changed — same start, same samples, same step, no
    /// RNG draw — so its stored result stands in for a rerun, and only
    /// restarts 1 and up run (drawing the RNG exactly as before).
    fn solve(&mut self, samples: &[PeerSample], reuse_trial: bool) -> usize {
        debug_assert!(!samples.is_empty());
        let dims = self.config.space.dims();
        let scratch = &mut self.scratch;
        if reuse_trial {
            debug_assert_eq!(scratch.tiles.len(), samples.len());
        } else {
            scratch.tiles.fill(samples, dims);
            scratch.select.clear();
            scratch.select.extend(samples.iter().map(|s| s.rtt_ms));
            scratch.median_rtt = upper_median(&mut scratch.select);
        }
        let median_rtt = scratch.median_rtt;
        let step = (median_rtt / 4.0).max(1.0);

        let SolveScratch {
            nm,
            tiles,
            start,
            first_value,
            first_x,
            best_x,
            ..
        } = scratch;
        let tiles = &*tiles;
        let mut best: Option<f64> = None;
        let mut first_restart = 0;
        if reuse_trial {
            best = Some(*first_value);
            best_x.clear();
            best_x.extend_from_slice(first_x);
            first_restart = 1;
        }
        for restart in first_restart..self.config.solver_restarts {
            start.clear();
            if restart == 0 {
                start.extend_from_slice(self.coordinate.position());
            } else {
                // A random point at the network's scale.
                for _ in 0..dims {
                    start.push((self.rng.random::<f64>() * 2.0 - 1.0) * median_rtt);
                }
            }
            let stats = nm.minimize(
                |x| tiles.objective(x),
                start,
                step,
                self.config.solver_max_iter,
                self.config.solver_tol,
            );
            if restart == 0 {
                *first_value = stats.value;
                first_x.clear();
                first_x.extend_from_slice(nm.best_point());
            }
            if best.map(|v| stats.value < v).unwrap_or(true) {
                best = Some(stats.value);
                best_x.clear();
                best_x.extend_from_slice(nm.best_point());
            }
        }
        // solver_restarts >= 1 (config invariant), so best_x was written
        // by at least one restart (or taken over from the trial's).
        self.config.solver_restarts - first_restart
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

/// A kernel test case: `ns` reference points in `dims` dimensions and a
/// candidate, drawn from `vals` (values in `[-1, 1)`, cycled). `mode`
/// picks the regime: 0 ordinary; 1 a candidate near 1e160 with the
/// reference points within a relative 1e-12 of it, so live terms stay
/// finite while a pad lane's term would overflow to infinity; 2 a candidate near ±1e300,
/// every term infinite; 3 the candidate on top of every reference point.
#[cfg(test)]
pub(crate) fn kernel_case(
    ns: usize,
    dims: usize,
    mode: usize,
    vals: &[f64],
) -> (Vec<PeerSample>, Vec<f64>) {
    let mut vals = vals.iter().copied().cycle();
    let mut next = move || vals.next().unwrap_or(0.5);
    let x: Vec<f64> = (0..dims)
        .map(|_| match mode {
            0 => next() * 200.0,
            1 => (1.0 + next()) * 1e160,
            2 => next() * 1e300,
            _ => next() * 50.0,
        })
        .collect();
    let samples = (0..ns)
        .map(|peer| {
            let position = x
                .iter()
                .map(|&xd| match mode {
                    1 => xd * (1.0 + next() * 1e-12),
                    3 => xd,
                    _ => next() * 200.0,
                })
                .collect();
            let height = if mode == 3 { 0.0 } else { next().abs() * 10.0 };
            PeerSample {
                peer,
                peer_coord: Coordinate::new(position, height),
                peer_error: 0.1,
                rtt_ms: 1.0 + next().abs() * 300.0,
            }
        })
        .collect();
    (samples, x)
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
        for (restarts, rounds) in expected {
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

    /// The scalar reference the tiled kernel must reproduce: one
    /// `Coordinate::distance` per sample, terms summed in sample order.
    fn scalar_objective(samples: &[PeerSample], x: &[f64]) -> f64 {
        let me = Coordinate::euclidean(x.to_vec());
        let mut total = 0.0;
        for s in samples {
            let rel = (me.distance(&s.peer_coord) - s.rtt_ms) / s.rtt_ms;
            total += rel * rel;
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn tiled_kernel_matches_the_scalar_reference_bit_for_bit(
            ns in 1usize..=40,
            dims in 1usize..=10,
            mode in 0usize..4,
            vals in proptest::collection::vec(-1f64..1.0, 512),
        ) {
            let (samples, x) = kernel_case(ns, dims, mode, &vals);
            let mut tiles = RpTiles::default();
            tiles.fill(&samples, dims);
            let got = tiles.objective(&x);
            let want = scalar_objective(&samples, &x);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "ns={} dims={} mode={}: tiled {} vs scalar {}",
                ns, dims, mode, got, want
            );
            if mode == 1 {
                prop_assert!(got.is_finite(), "a pad lane leaked into the sum");
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
