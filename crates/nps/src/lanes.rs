//! Lock-step Nelder–Mead solves over lane-major reference sets.
//!
//! An NPS positioning round is a handful of independent minimizations
//! per node (the filter's trial restarts, then the final restarts), and
//! every one is a dependent chain: one objective evaluation after
//! another, each a sample-ordered sum. [`LaneSolver`] runs up to
//! [`LANES`] such minimizations side by side, each a [`NelderMeadLane`];
//! every step evaluates all lanes' pending points in one call of the
//! lane-major objective, so the lanes' chains overlap instead of
//! queueing. A finished lane is refilled from a [`JobQueue`] at the next
//! step, and a finishing job can make others moot (a run that assumed
//! an outcome which did not happen): their lanes are freed at once.
//!
//! Scheduling never changes a result: a lane's run depends only on its
//! job (start, reference set, step, budget), and lanes never mix.

use crate::simplex::{Dim, Dyn, Fixed, NelderMeadLane, NelderMeadStats};
use ices_coord::PeerSample;

/// Minimizations stepped together. Four `f64` lanes fill one 256-bit
/// vector of the kernel's square roots and divisions; two and eight
/// lanes both measured slower per evaluation (DESIGN.md §9).
pub(crate) const LANES: usize = 4;

/// One `f64` per lane.
type Lanes = [f64; LANES];

/// One minimization: a start point and the reference set whose GNP
/// objective it minimizes.
pub(crate) struct Job<'a> {
    /// Reference samples, in the order their terms are summed.
    pub samples: &'a [PeerSample],
    /// Starting point; its length is the run's dimensionality.
    pub start: &'a [f64],
    /// Initial simplex step along each axis.
    pub step: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Convergence tolerance.
    pub tol: f64,
}

/// Where a [`LaneSolver`] takes its jobs from and delivers its results.
pub(crate) trait JobQueue {
    /// Identifies a job when its result comes back.
    type Id: Copy;
    /// The next job to run, if any is ready.
    fn next_job(&mut self) -> Option<(Self::Id, Job<'_>)>;
    /// Whether a job handed out is still wanted: a finishing job can
    /// make others moot, which the solver then stops.
    fn wanted(&self, id: Self::Id) -> bool;
    /// A job's outcome and best point. May make new jobs ready, and other
    /// jobs unwanted.
    fn finish_job(&mut self, id: Self::Id, stats: NelderMeadStats, best: &[f64]);
}

/// The reference sets of the running lanes, lane-major: row `s` holds
/// sample `s` of every lane, so one evaluation builds every lane's term
/// for a sample with vertical (per-lane) operations.
///
/// A lane's rows past its sample count are masked: they add +0.0 to its
/// total, which leaves the total unchanged because a sum of squares that
/// starts at +0.0 is never −0.0.
#[derive(Debug, Clone, Default)]
struct LaneObjective {
    /// Dimensions per row: every lane's.
    dims: usize,
    /// Rows the kernel visits: the most samples of any running lane.
    rows: usize,
    /// Samples of each lane (0 for an idle lane).
    live: [usize; LANES],
    /// Positions, `rows × dims`.
    pos: Vec<Lanes>,
    /// Peer heights, one row per sample.
    heights: Vec<Lanes>,
    /// Measured RTTs, one row per sample.
    rtts: Vec<Lanes>,
    /// Per row, all-ones bits for a lane's live samples, zero otherwise.
    mask: Vec<[u64; LANES]>,
}

impl LaneObjective {
    /// Empty every lane and set the row width.
    fn reset(&mut self, dims: usize) {
        self.dims = dims;
        self.rows = 0;
        self.live = [0; LANES];
        self.pos.clear();
        self.heights.clear();
        self.rtts.clear();
        self.mask.clear();
    }

    /// Put `samples` in `lane`'s column.
    fn load(&mut self, lane: usize, samples: &[PeerSample]) {
        let dims = self.dims;
        let capacity = self.heights.len();
        if samples.len() > capacity {
            // New rows: a position at the origin, height 0 and RTT 1.0,
            // so an unmasked term there would be finite.
            self.pos.resize(samples.len() * dims, [0.0; LANES]);
            self.heights.resize(samples.len(), [0.0; LANES]);
            self.rtts.resize(samples.len(), [1.0; LANES]);
            self.mask.resize(samples.len(), [0; LANES]);
        }
        for (s, sample) in samples.iter().enumerate() {
            debug_assert!(
                sample.rtt_ms > 0.0,
                "non-positive RTT {} reached the objective kernel",
                sample.rtt_ms
            );
            let row = &mut self.pos[s * dims..(s + 1) * dims];
            let position = sample.peer_coord.position();
            debug_assert_eq!(position.len(), dims, "sample dimensionality");
            for (p, &x) in row.iter_mut().zip(position) {
                p[lane] = x;
            }
            self.heights[s][lane] = sample.peer_coord.height();
            self.rtts[s][lane] = sample.rtt_ms;
        }
        for (s, m) in self.mask.iter_mut().enumerate() {
            m[lane] = if s < samples.len() { u64::MAX } else { 0 };
        }
        self.live[lane] = samples.len();
        self.rows = self.live.iter().copied().max().unwrap_or(0);
    }

    /// Mark `lane` idle: it stops widening the rows the kernel visits.
    fn unload(&mut self, lane: usize) {
        self.live[lane] = 0;
        self.rows = self.live.iter().copied().max().unwrap_or(0);
    }

    /// The GNP objective of every lane at its candidate: lane `l`'s sum
    /// of squared relative errors of `x[..][l]` against its samples.
    ///
    /// Per lane this is bit-for-bit `Coordinate::euclidean(x)` measured
    /// with `Coordinate::distance` against each sample, terms summed in
    /// sample order from 0.0: the squared distance accumulates in
    /// component order (the first component initializes it — a square
    /// is never −0.0, so `0.0 + diff²` is `diff²`); the candidate's
    /// height is zero, so `sqrt(sq) + height` is `dist + 0.0 + height`
    /// (`d + 0.0` is exact for the non-negative `d` a square root
    /// returns). Only lanes run side by side; lanes never mix.
    #[inline(always)]
    fn evaluate<D: Dim>(&self, dim: D, x: &[Lanes]) -> Lanes {
        let dims = dim.get();
        debug_assert_eq!(dims, self.dims, "candidate dimensionality");
        let x = &x[..dims];
        let mut total = [0.0; LANES];
        let rows = self
            .pos
            .chunks_exact(dims)
            .zip(&self.heights)
            .zip(&self.rtts)
            .zip(&self.mask)
            .take(self.rows);
        for (((pos, heights), rtts), mask) in rows {
            let term = lane_terms(x, &pos[..dims], heights, rtts);
            for ((t, &term), &keep) in total.iter_mut().zip(&term).zip(mask) {
                *t += f64::from_bits(term.to_bits() & keep);
            }
        }
        total
    }
}

/// Every lane's squared relative error for one sample row. A helper
/// returning whole lane vectors is what lets the compiler keep the
/// square roots and divisions packed.
#[inline(always)]
fn lane_terms(x: &[Lanes], pos: &[Lanes], heights: &Lanes, rtts: &Lanes) -> Lanes {
    let mut sq = [0.0; LANES];
    let mut dims = x.iter().zip(pos);
    if let Some((xd, p)) = dims.next() {
        for ((q, &xd), &p) in sq.iter_mut().zip(xd).zip(p) {
            let diff = xd - p;
            *q = diff * diff;
        }
    }
    for (xd, p) in dims {
        for ((q, &xd), &p) in sq.iter_mut().zip(xd).zip(p) {
            let diff = xd - p;
            *q += diff * diff;
        }
    }
    let mut terms = [0.0; LANES];
    for (((t, &q), &height), &rtt) in terms.iter_mut().zip(&sq).zip(heights).zip(rtts) {
        let est = q.sqrt() + height;
        let rel = (est - rtt) / rtt;
        *t = rel * rel;
    }
    terms
}

/// [`LANES`] Nelder–Mead lanes over one lane-major objective, refilled
/// from a [`JobQueue`] until it runs dry.
#[derive(Debug, Clone)]
pub(crate) struct LaneSolver<Id> {
    objective: LaneObjective,
    lanes: [NelderMeadLane; LANES],
    /// The job each lane runs (`None`: idle).
    jobs: [Option<Id>; LANES],
    /// The lanes' pending points, lane-major: `x[d][l]`.
    x: Vec<Lanes>,
}

impl<Id> Default for LaneSolver<Id> {
    fn default() -> Self {
        Self {
            objective: LaneObjective::default(),
            lanes: Default::default(),
            jobs: std::array::from_fn(|_| None),
            x: Vec::new(),
        }
    }
}

impl<Id: Copy> LaneSolver<Id> {
    /// Run every job `queue` hands out, including those that finishing
    /// jobs make ready, until no lane is busy and no job is left. Every
    /// job has dimensionality `dims`.
    pub(crate) fn run<Q: JobQueue<Id = Id>>(&mut self, dims: usize, queue: &mut Q) {
        // The production dimensionality gets compile-time trip counts in
        // both the kernel and the lane steps (see [`Dim`]).
        match dims {
            8 => self.run_in(Fixed::<8>, queue),
            n => self.run_in(Dyn(n), queue),
        }
    }

    fn run_in<D: Dim, Q: JobQueue<Id = Id>>(&mut self, dim: D, queue: &mut Q) {
        let n = dim.get();
        self.objective.reset(n);
        for lane in &mut self.lanes {
            lane.reset(n);
        }
        self.x.clear();
        self.x.resize(n, [0.0; LANES]);
        self.jobs = [None; LANES];
        loop {
            for (l, slot) in self.jobs.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let Some((id, job)) = queue.next_job() else {
                    break;
                };
                self.objective.load(l, job.samples);
                self.lanes[l].start(job.start, job.step, job.max_iter, job.tol);
                *slot = Some(id);
            }
            if self.jobs.iter().all(Option::is_none) {
                return;
            }
            // Transpose the pending points into the kernel's layout, a
            // whole lane vector per component. (Idle lanes contribute
            // their stale point; their values are ignored.)
            let pending: [&[f64]; LANES] = std::array::from_fn(|l| &self.lanes[l].pending()[..n]);
            for (d, xd) in self.x[..n].iter_mut().enumerate() {
                let column: Lanes = std::array::from_fn(|l| pending[l][d]);
                *xd = column;
            }
            let values = self.objective.evaluate(dim, &self.x);
            let mut finished = false;
            for (l, (slot, lane)) in self.jobs.iter_mut().zip(&mut self.lanes).enumerate() {
                let Some(id) = *slot else {
                    continue;
                };
                lane.feed(dim, values[l]);
                if !lane.busy() {
                    queue.finish_job(id, lane.stats(), lane.best_point());
                    self.objective.unload(l);
                    *slot = None;
                    finished = true;
                }
            }
            if finished {
                for (l, slot) in self.jobs.iter_mut().enumerate() {
                    if slot.is_some_and(|id| !queue.wanted(id)) {
                        self.objective.unload(l);
                        *slot = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Coordinate;
    use proptest::prelude::*;

    /// A kernel test case: `ns` reference points in `dims` dimensions and a
    /// candidate, drawn from `vals` (values in `[-1, 1)`, cycled). `mode`
    /// picks the regime: 0 ordinary; 1 a candidate near 1e160 with the
    /// reference points within a relative 1e-12 of it, so live terms stay
    /// finite while a pad lane's term would overflow to infinity; 2 a candidate near ±1e300,
    /// every term infinite; 3 the candidate on top of every reference point.
    fn kernel_case(
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

    /// The scalar reference the lane kernel must reproduce: one
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

        /// Every lane of one evaluation equals the scalar objective of its
        /// own case, whatever the other lanes hold: lanes with different
        /// sample counts (masked rows), loaded over a previous, longer
        /// occupant.
        #[test]
        fn lane_kernel_matches_the_scalar_reference_bit_for_bit(
            ns in proptest::collection::vec(1usize..=40, LANES),
            dims in 1usize..=10,
            mode in 0usize..4,
            vals in proptest::collection::vec(-1f64..1.0, 512),
        ) {
            let mut objective = LaneObjective::default();
            objective.reset(dims);
            let (stale, _) = kernel_case(45, dims, 0, &vals);
            let mut x = vec![[0.0; LANES]; dims];
            let mut cases = Vec::new();
            for l in 0..LANES {
                objective.load(l, &stale);
                let (samples, point) = kernel_case(ns[l], dims, mode, &vals[l * 7..]);
                objective.load(l, &samples);
                for (xd, &p) in x.iter_mut().zip(&point) {
                    xd[l] = p;
                }
                cases.push((samples, point));
            }
            let got = match dims {
                8 => objective.evaluate(Fixed::<8>, &x),
                n => objective.evaluate(Dyn(n), &x),
            };
            for (l, (samples, point)) in cases.iter().enumerate() {
                let want = scalar_objective(samples, point);
                prop_assert_eq!(
                    got[l].to_bits(),
                    want.to_bits(),
                    "lane {} ns={} dims={} mode={}: lanes {} vs scalar {}",
                    l, ns[l], dims, mode, got[l], want
                );
                if mode == 1 {
                    prop_assert!(got[l].is_finite(), "a masked row leaked into the sum");
                }
            }
        }
    }

    /// Two jobs, one capped at a single iteration and one at 100,000:
    /// the short one finishing makes the long one moot, and the solver
    /// must stop it rather than run it out.
    struct MootQueue {
        samples: Vec<PeerSample>,
        handed: usize,
        finished: Vec<usize>,
    }

    impl JobQueue for MootQueue {
        type Id = usize;

        fn next_job(&mut self) -> Option<(usize, Job<'_>)> {
            let id = self.handed;
            if id == 2 {
                return None;
            }
            self.handed += 1;
            let job = Job {
                samples: &self.samples,
                start: &[0.0, 0.0],
                step: 1.0,
                max_iter: [1, 100_000][id],
                tol: 1e-300,
            };
            Some((id, job))
        }

        fn wanted(&self, id: usize) -> bool {
            id == 0 || !self.finished.contains(&0)
        }

        fn finish_job(&mut self, id: usize, _: NelderMeadStats, _: &[f64]) {
            self.finished.push(id);
        }
    }

    #[test]
    fn a_moot_job_is_stopped() {
        let (samples, _) = kernel_case(12, 2, 0, &[0.3, -0.7, 0.1, 0.9, -0.2]);
        let mut queue = MootQueue {
            samples,
            handed: 0,
            finished: Vec::new(),
        };
        LaneSolver::default().run(2, &mut queue);
        assert_eq!(queue.handed, 2);
        assert_eq!(queue.finished, vec![0], "the moot job ran to its end");
    }
}
