//! Nelder–Mead downhill simplex minimization.
//!
//! NPS (like GNP before it) computes a node's coordinate by minimizing
//! the sum of squared relative errors against its reference points with
//! the downhill simplex method — derivative-free, robust to the
//! non-smooth objective that absolute values and RTT noise produce.
//!
//! Standard coefficients: reflection 1, expansion 2, contraction ½,
//! shrink ½.
//!
//! The solver is a resumable machine, `NelderMeadLane`: it exposes the
//! point it wants evaluated next and takes the objective value back. The
//! NPS round batch (`crate::lanes`) steps several independent lanes side
//! by side and evaluates all their pending points in one lane-major
//! kernel call; [`NelderMeadScratch::minimize`] is the same machine
//! driven by a closure, one evaluation at a time. Every buffer belongs to
//! the lane and is reused across runs, so after the first run at a given
//! dimensionality an iteration performs zero heap allocations.
//!
//! Bit-for-bit guarantee: a lane executes the exact floating-point
//! operation sequence of the original one-run implementation — same
//! evaluation order, same accumulation order, same tie-breaking (the
//! best, second-worst and worst vertices are those a stable sort of the
//! identity by value ranks there, i.e. sorted by `(value, vertex
//! index)`). The golden `to_bits` regression tests pin this.

/// Outcome of one minimization; the best point itself stays in the
/// solver (read it with [`NelderMeadScratch::best_point`]) so the
/// solver never has to allocate for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadStats {
    /// Objective value at the best point.
    pub value: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Number of objective evaluations: the `n + 1` initial vertices,
    /// then per iteration the reflection, an expansion or contraction
    /// if one was tried, and `n` more after a shrink.
    pub evaluations: usize,
    /// Whether the simplex diameter converged below tolerance.
    pub converged: bool,
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// Dimensionalities up to this keep a step's centroid sums in a local
/// array, which the optimizer can hold in registers.
const LOCAL_DIMS: usize = 16;

/// Dimensionality parameter of a lane's step: either a compile-time
/// constant (so the per-iteration loops unroll and vectorize into
/// straight-line code) or a runtime value. Both instantiations are the
/// same source body, so they execute the same floating-point operation
/// sequence — monomorphization changes code generation, never op order.
pub(crate) trait Dim: Copy {
    fn get(self) -> usize;
}

/// Compile-time dimensionality (the production NPS configuration runs
/// 8-d, so `Fixed::<8>` carries the hot path).
#[derive(Copy, Clone)]
pub(crate) struct Fixed<const N: usize>;

impl<const N: usize> Dim for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

/// Runtime dimensionality — the fallback for every other `n`.
#[derive(Copy, Clone)]
pub(crate) struct Dyn(pub(crate) usize);

impl Dim for Dyn {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// What a lane waits for: the value of its pending point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Initial vertex `next` (vertices are evaluated in index order).
    Init,
    /// The reflection of the worst vertex through the centroid.
    Reflect,
    /// The expansion candidate (the reflection beat the best vertex).
    Expand,
    /// The contraction candidate (the reflection beat no second-worst).
    Contract,
    /// Shrunk vertex `next` (every vertex but the best, index order).
    Shrink,
    /// The run has ended, or none was started; nothing is pending.
    #[default]
    Done,
}

/// `f64::total_cmp` as an integer key: `a.total_cmp(&b)` orders as
/// `total_key(a).cmp(&total_key(b))`, so ranks compare branch-free.
#[inline(always)]
fn total_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Whether the simplex diameter — the largest |component difference|
/// of any vertex from the vertex starting at `best_start`, folded with
/// `f64::max` from 0.0, so NaNs are ignored — is below `tol`.
///
/// Asked as a yes/no question: the diameter is below `tol` exactly when
/// no difference reaches it, so the scan stops at the first one that
/// does. Minimizations that stall at the iteration cap spend many
/// iterations with the spread already below tolerance, each asking this.
fn diameter_below(simplex: &[f64], best_start: usize, n: usize, tol: f64) -> bool {
    let best_row = &simplex[best_start..best_start + n];
    simplex.chunks_exact(n).all(|v| {
        v.iter().zip(best_row).all(|(a, b)| {
            let d = (a - b).abs();
            d < tol || d.is_nan()
        })
    })
}

/// One Nelder–Mead minimization as a resumable state machine.
///
/// [`start`](Self::start) builds the initial simplex; then, while the
/// run is [`busy`](Self::busy), the caller evaluates the objective at
/// [`pending`](Self::pending) and passes the value to
/// [`feed`](Self::feed), which advances the machine to its next pending
/// point. Each `feed` runs the part of the classic loop between two
/// evaluations, so a run performs the classic loop's operations in the
/// classic order.
#[derive(Debug, Clone, Default)]
pub(crate) struct NelderMeadLane {
    /// The simplex: `n + 1` vertices of dimension `n`, flat row-major.
    simplex: Vec<f64>,
    /// Objective value of each vertex.
    values: Vec<f64>,
    /// Centroid of all vertices but the worst.
    centroid: Vec<f64>,
    /// Reflection candidate (kept while its expansion is evaluated).
    reflect: Vec<f64>,
    /// The point awaiting its value: a vertex, the reflection, or the
    /// expansion or contraction candidate.
    pending: Vec<f64>,
    state: LaneState,
}

/// The scalar state of a [`NelderMeadLane`].
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    /// Dimensionality of the run.
    n: usize,
    max_iter: usize,
    tol: f64,
    phase: Phase,
    /// Vertex awaiting its value in `Init` and `Shrink`.
    next: usize,
    /// Rank of the vertices when the current iteration opened.
    best: usize,
    second_worst: usize,
    worst: usize,
    /// Value of the reflection, for the expansion's comparison.
    f_reflect: f64,
    iterations: usize,
    evaluations: usize,
    converged: bool,
}

impl NelderMeadLane {
    /// Size every buffer for dimensionality `n`, keeping capacity, and
    /// leave the lane idle with a pending point of zeros.
    pub(crate) fn reset(&mut self, n: usize) {
        for (buf, len) in [
            (&mut self.simplex, (n + 1) * n),
            (&mut self.values, n + 1),
            (&mut self.centroid, n),
            (&mut self.reflect, n),
            (&mut self.pending, n),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
        self.state = LaneState {
            n,
            ..LaneState::default()
        };
    }

    /// Begin minimizing from `x0`, building the initial simplex by
    /// stepping `initial_step` along each axis. The run stops when the
    /// simplex's objective spread and diameter fall below `tol`, or
    /// after `max_iter` iterations.
    ///
    /// # Panics
    /// Panics if `x0` is empty, `initial_step` is not positive or `tol`
    /// is not positive.
    pub(crate) fn start(&mut self, x0: &[f64], initial_step: f64, max_iter: usize, tol: f64) {
        assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
        assert!(initial_step > 0.0, "initial_step must be positive");
        assert!(tol > 0.0, "tol must be positive");
        let n = x0.len();
        if n != self.state.n {
            self.reset(n);
        }
        // Initial simplex: x0 plus one axis-step vertex per dimension.
        for (row, v) in self.simplex.chunks_exact_mut(n).enumerate() {
            v.copy_from_slice(x0);
            if row > 0 {
                v[row - 1] += initial_step;
            }
        }
        self.pending.copy_from_slice(x0);
        self.state = LaneState {
            n,
            max_iter,
            tol,
            phase: Phase::Init,
            ..LaneState::default()
        };
    }

    /// Whether the run awaits a value (started and not yet ended).
    #[inline(always)]
    pub(crate) fn busy(&self) -> bool {
        self.state.phase != Phase::Done
    }

    /// The point whose objective value the lane needs next. Stale (the
    /// last point evaluated) once the run has ended.
    #[inline(always)]
    pub(crate) fn pending(&self) -> &[f64] {
        &self.pending
    }

    /// Take the objective value at the pending point and advance to the
    /// next one.
    ///
    /// # Panics
    /// Panics if the run has ended, or if the starting point's value is
    /// NaN (checked once all initial vertices are in).
    #[inline(always)]
    pub(crate) fn feed<D: Dim>(&mut self, dim: D, value: f64) {
        let n = dim.get();
        debug_assert_eq!(n, self.state.n, "lane dimensionality");
        // Re-slice every buffer through the `Dim`-provided length so a
        // `Fixed` instantiation sees compile-time trip counts, and hand
        // them over as distinct borrows, which tells the optimizer they
        // do not alias. Pure re-slicing — no arithmetic is touched.
        step(
            dim,
            &mut self.state,
            &mut self.simplex[..(n + 1) * n],
            &mut self.values[..n + 1],
            &mut self.centroid[..n],
            &mut self.reflect[..n],
            &mut self.pending[..n],
            value,
        );
    }

    /// Best point of the run (the first minimum by value). Empty before
    /// the first run.
    pub(crate) fn best_point(&self) -> &[f64] {
        let (n, best) = (self.state.n, self.state.best);
        &self.simplex[best * n..(best + 1) * n]
    }

    /// Outcome of the run; meaningful once it has ended.
    pub(crate) fn stats(&self) -> NelderMeadStats {
        NelderMeadStats {
            value: self
                .values
                .get(self.state.best)
                .copied()
                .unwrap_or(f64::NAN),
            iterations: self.state.iterations,
            evaluations: self.state.evaluations,
            converged: self.state.converged,
        }
    }
}

/// [`NelderMeadLane::feed`] on the lane's state and buffers.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one borrow per buffer is the point
fn step<D: Dim>(
    dim: D,
    st: &mut LaneState,
    simplex: &mut [f64],
    values: &mut [f64],
    centroid: &mut [f64],
    reflect: &mut [f64],
    pending: &mut [f64],
    value: f64,
) {
    let n = dim.get();
    st.evaluations += 1;
    let worst = st.worst;
    // Whether a candidate replaced the worst vertex (else every vertex
    // value may have changed: the initial or shrunk vertices are in).
    let mut accepted = true;
    let worst_row = worst * n..(worst + 1) * n;
    match st.phase {
        Phase::Init => {
            values[st.next] = value;
            st.next += 1;
            if st.next <= n {
                pending.copy_from_slice(&simplex[st.next * n..(st.next + 1) * n]);
                return;
            }
            assert!(
                !values.first().is_some_and(|v| v.is_nan()),
                "objective is NaN at the starting point"
            );
            accepted = false;
        }
        Phase::Reflect => {
            st.f_reflect = value;
            if value < values[st.best] {
                // Try expanding further.
                for ((e, c), w) in pending
                    .iter_mut()
                    .zip(centroid.iter())
                    .zip(&simplex[worst_row])
                {
                    *e = c + GAMMA * (c - w);
                }
                st.phase = Phase::Expand;
                return;
            } else if value < values[st.second_worst] {
                simplex[worst_row].copy_from_slice(reflect);
                values[worst] = value;
            } else {
                // Contract toward the centroid.
                for ((e, c), w) in pending
                    .iter_mut()
                    .zip(centroid.iter())
                    .zip(&simplex[worst_row])
                {
                    *e = c + RHO * (w - c);
                }
                st.phase = Phase::Contract;
                return;
            }
        }
        Phase::Expand => {
            // Keep the better of expansion and reflection, chosen
            // element-wise so the copy does not branch.
            let take = value < st.f_reflect;
            for (x, (&e, &r)) in simplex[worst_row]
                .iter_mut()
                .zip(pending.iter().zip(reflect.iter()))
            {
                *x = if take { e } else { r };
            }
            values[worst] = if take { value } else { st.f_reflect };
        }
        Phase::Contract => {
            if value < values[worst] {
                simplex[worst_row].copy_from_slice(pending);
                values[worst] = value;
            } else {
                // Shrink everything toward the best vertex, then
                // evaluate the shrunk vertices in index order (the
                // objective cannot observe that all rows moved
                // before the first evaluation).
                let best = st.best;
                let (head, tail) = simplex.split_at_mut(best * n);
                let (b, tail) = tail.split_at_mut(n);
                for v in head.chunks_exact_mut(n).chain(tail.chunks_exact_mut(n)) {
                    for (x, &b) in v.iter_mut().zip(b.iter()) {
                        *x = b + SIGMA * (*x - b);
                    }
                }
                st.phase = Phase::Shrink;
                st.next = usize::from(best == 0);
                pending.copy_from_slice(&simplex[st.next * n..(st.next + 1) * n]);
                return;
            }
        }
        Phase::Shrink => {
            values[st.next] = value;
            st.next += 1;
            if st.next == st.best {
                st.next += 1;
            }
            if st.next <= n {
                pending.copy_from_slice(&simplex[st.next * n..(st.next + 1) * n]);
                return;
            }
            accepted = false;
        }
        Phase::Done => panic!("a finished Nelder–Mead run takes no more values"),
    }

    // Open the next iteration: check the budget and convergence, then
    // reflect the worst vertex through the centroid of the others.
    let (best, second_worst, worst) = if accepted {
        rerank(values, st.best, st.second_worst, st.worst)
    } else {
        rank(values)
    };
    (st.best, st.second_worst, st.worst) = (best, second_worst, worst);
    if st.iterations >= st.max_iter {
        st.phase = Phase::Done;
        return;
    }
    st.iterations += 1;
    // Convergence: objective spread and simplex diameter. The O(n²)
    // diameter is only consulted once the spread is below tolerance
    // (`&&` short-circuit) — a pure-function elision.
    let spread = values[worst] - values[best];
    if spread.abs() < st.tol && diameter_below(simplex, best * n, n, st.tol) {
        st.converged = true;
        st.phase = Phase::Done;
        return;
    }
    // Centroid of all but the worst vertex, rows in ascending order from
    // 0.0. The worst row adds +0.0 instead (its bits masked to zero): a
    // sum that starts at +0.0 is never −0.0, so adding +0.0 leaves it
    // unchanged, and the skip needs no branch.
    // The sums live in a local array when they fit (so they stay in
    // registers), else in the lane's buffer, zeroed first.
    let mut local = [0.0; LOCAL_DIMS];
    let sums: &mut [f64] = if n <= LOCAL_DIMS {
        &mut local[..n]
    } else {
        centroid.fill(0.0);
        &mut *centroid
    };
    for (v, row) in simplex.chunks_exact(n).enumerate() {
        let keep = u64::from(v != worst).wrapping_neg();
        for (c, &x) in sums.iter_mut().zip(row) {
            *c += f64::from_bits(x.to_bits() & keep);
        }
    }
    let w = &simplex[worst * n..(worst + 1) * n];
    for (((c, r), p), w) in sums
        .iter_mut()
        .zip(reflect.iter_mut())
        .zip(pending.iter_mut())
        .zip(w)
    {
        *c /= n as f64;
        *r = *c + ALPHA * (*c - w);
        *p = *r;
    }
    if n <= LOCAL_DIMS {
        centroid.copy_from_slice(&local[..n]);
    }
    st.phase = Phase::Reflect;
}

/// [`rank`] after the worst vertex `worst` took a new value, from the
/// ranks before: every other vertex kept its value, so the new best is
/// the old best or `worst`, the new worst the old second-worst or
/// `worst`, and only the second-worst needs a scan.
#[inline(always)]
fn rerank(values: &[f64], best: usize, second_worst: usize, worst: usize) -> (usize, usize, usize) {
    // `(key, index)` strictly below.
    let below = |a: usize, b: usize| {
        let (ka, kb) = (total_key(values[a]), total_key(values[b]));
        (ka < kb) | ((ka == kb) & (a < b))
    };
    let new_best = if below(worst, best) { worst } else { best };
    let new_worst = if below(second_worst, worst) {
        worst
    } else {
        second_worst
    };
    if new_worst == worst {
        return (new_best, second_worst, worst);
    }
    let mut second = 0;
    let mut second_key = i64::MIN;
    for (i, &v) in values.iter().enumerate() {
        let k = total_key(v);
        let higher = (i != new_worst) & (k >= second_key);
        second = if higher { i } else { second };
        second_key = if higher { k } else { second_key };
    }
    (new_best, second, new_worst)
}

/// The vertex ranks `(best, second-worst, worst)`: the best is the first
/// minimum by `(value, index)`, the worst the last maximum, the
/// second-worst the last maximum of the rest — what a stable sort of the
/// identity by `total_cmp` puts first, second-to-last and last.
/// Compare-and-select scans, no data-dependent branch.
#[inline(always)]
fn rank(values: &[f64]) -> (usize, usize, usize) {
    let mut best = 0;
    let mut worst = 0;
    let mut best_key = i64::MAX;
    let mut worst_key = i64::MIN;
    for (i, &v) in values.iter().enumerate() {
        let k = total_key(v);
        let lower = k < best_key;
        best = if lower { i } else { best };
        best_key = if lower { k } else { best_key };
        let higher = k >= worst_key;
        worst = if higher { i } else { worst };
        worst_key = if higher { k } else { worst_key };
    }
    let mut second = 0;
    let mut second_key = i64::MIN;
    for (i, &v) in values.iter().enumerate() {
        let k = total_key(v);
        let higher = (i != worst) & (k >= second_key);
        second = if higher { i } else { second };
        second_key = if higher { k } else { second_key };
    }
    (best, second, worst)
}

/// Reusable workspace for one-at-a-time Nelder–Mead runs: one
/// [`NelderMeadLane`] driven by a closure.
///
/// The lane's buffers are kept between calls, so repeated solves at the
/// same dimensionality never touch the allocator: after warm-up,
/// `minimize` performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct NelderMeadScratch {
    lane: NelderMeadLane,
}

impl NelderMeadScratch {
    /// Create an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Best point found by the most recent [`minimize`](Self::minimize)
    /// call. Empty before the first call.
    pub fn best_point(&self) -> &[f64] {
        self.lane.best_point()
    }

    /// Minimize `f` starting from `x0`, building the initial simplex by
    /// stepping `initial_step` along each axis.
    ///
    /// Stops when the simplex's objective spread and diameter fall below
    /// `tol`, or after `max_iter` iterations. The best point is left in
    /// the scratch — read it with [`best_point`](Self::best_point).
    ///
    /// # Panics
    /// Panics if `x0` is empty, `initial_step` is not positive, `tol` is
    /// not positive, or `f` returns NaN at the starting point.
    pub fn minimize(
        &mut self,
        f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        initial_step: f64,
        max_iter: usize,
        tol: f64,
    ) -> NelderMeadStats {
        self.lane.start(x0, initial_step, max_iter, tol);
        match x0.len() {
            8 => self.run(Fixed::<8>, f),
            n => self.run(Dyn(n), f),
        }
    }

    fn run<D: Dim>(&mut self, dim: D, mut f: impl FnMut(&[f64]) -> f64) -> NelderMeadStats {
        while self.lane.busy() {
            let value = f(self.lane.pending());
            self.lane.feed(dim, value);
        }
        self.lane.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One solve on a fresh workspace: the best point and the stats.
    fn solve(
        f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        initial_step: f64,
        max_iter: usize,
        tol: f64,
    ) -> (Vec<f64>, NelderMeadStats) {
        let mut scratch = NelderMeadScratch::new();
        let stats = scratch.minimize(f, x0, initial_step, max_iter, tol);
        (scratch.best_point().to_vec(), stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The early-exit scan answers exactly what comparing the
        /// max-folded diameter with `tol` answers, NaN components
        /// included.
        #[test]
        fn diameter_below_matches_the_folded_diameter(
            n in 1usize..=9,
            best in 0usize..10,
            scale in 0usize..3,
            offsets in proptest::collection::vec(-1f64..1.0, 90),
            nan_at in proptest::collection::vec(0usize..200, 3),
        ) {
            let tol = 1e-8;
            let best = best % (n + 1);
            // Spreads wholly inside, straddling and mostly outside `tol`.
            let scale = [3e-9, 1e-8, 3e-8][scale];
            let mut simplex: Vec<f64> =
                offsets[..(n + 1) * n].iter().map(|o| 100.0 + o * scale).collect();
            for &i in &nan_at {
                if let Some(v) = simplex.get_mut(i) {
                    *v = f64::NAN;
                }
            }
            let best_row = &simplex[best * n..(best + 1) * n];
            let diameter = simplex
                .chunks_exact(n)
                .map(|v| {
                    v.iter()
                        .zip(best_row)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max);
            prop_assert_eq!(diameter_below(&simplex, best * n, n, tol), diameter < tol);
        }

        /// `rank` and `rerank` pick the vertices a stable sort by
        /// `total_cmp` puts first, second-to-last and last, with repeated
        /// values, signed zeros, infinities and NaNs of both signs.
        #[test]
        fn ranks_match_a_stable_sort(
            picks in proptest::collection::vec((0usize..12, -3f64..3.0), 2..22),
            replacement in (0usize..12, -3f64..3.0),
        ) {
            let mut values: Vec<f64> = picks.iter().map(|&p| rank_value(p)).collect();
            let (best, second_worst, worst) = rank(&values);
            prop_assert_eq!((best, second_worst, worst), sorted_ranks(&values));
            values[worst] = rank_value(replacement);
            prop_assert_eq!(
                rerank(&values, best, second_worst, worst),
                sorted_ranks(&values),
                "values {:?}", values
            );
        }

        /// The lane machine reproduces the one-run loop it replaced —
        /// best point, value, iteration and evaluation counts, bit for
        /// bit — on smooth, kinked, plateaued, signed-zero and partly-NaN
        /// objectives, in 1 to 20 dimensions, at small iteration caps.
        #[test]
        fn lane_matches_the_one_run_loop(
            n in 1usize..=20,
            kind in 0usize..5,
            params in proptest::collection::vec(-5f64..5.0, 60),
            step in 0usize..3,
            max_iter in 0usize..80,
            tol in 0usize..2,
        ) {
            let f = |x: &[f64]| test_objective(kind, &params, x);
            let x0 = &params[40..40 + n.min(20)];
            let step = [0.5, 1.0, 3.0][step];
            let tol = [1e-3, 1e-9][tol];
            let mut evaluations = 0;
            let (want_x, want) = reference_minimize(
                |x| {
                    evaluations += 1;
                    f(x)
                },
                x0,
                step,
                max_iter,
                tol,
            );
            let (got_x, got) = solve(f, x0, step, max_iter, tol);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got_x), bits(&want_x), "kind {} n {}", kind, n);
            prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.converged, want.converged);
            prop_assert_eq!(got.evaluations, evaluations);
        }
    }

    /// A value for the rank tests: `pick` chooses special values often
    /// enough that ties, signed zeros and NaNs meet in most cases.
    fn rank_value((pick, r): (usize, f64)) -> f64 {
        [
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            2.0,
            f64::MIN_POSITIVE,
            r,
            r.round(),
        ][pick]
    }

    /// `(best, second-worst, worst)` read off a stable sort of the
    /// identity by `total_cmp`.
    fn sorted_ranks(values: &[f64]) -> (usize, usize, usize) {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let last = order.len() - 1;
        (order[0], order[last - 1], order[last])
    }

    /// Objectives for the loop comparison, shaped by `params`: 0 a
    /// weighted bowl, 1 a GNP-style fit to three anchors, 2 a bowl
    /// rounded to quarters (plateaus: ties and shrinks), 3 a bowl that
    /// is NaN past a plane the first axis step crosses, 4 a bowl whose
    /// low values are −0.0 or +0.0 (equal to `<`, ordered by
    /// `total_cmp`).
    fn test_objective(kind: usize, params: &[f64], x: &[f64]) -> f64 {
        let bowl: f64 = x
            .iter()
            .zip(params)
            .enumerate()
            .map(|(i, (v, c))| (1.0 + (i % 3) as f64) * (v - c) * (v - c))
            .sum();
        match kind {
            0 => bowl,
            1 => params[20..38]
                .chunks_exact(6)
                .map(|a| {
                    let d: f64 = x
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v - a[i % 6]) * (v - a[i % 6]))
                        .sum();
                    let rtt = 1.0 + a[0].abs() * 10.0;
                    ((d.sqrt() - rtt) / rtt).powi(2)
                })
                .sum(),
            2 => (bowl * 4.0).round() / 4.0,
            3 if x[0] > params[40] + 0.25 => f64::NAN,
            3 => bowl,
            _ if bowl < 20.0 => -0.0,
            _ if bowl < 40.0 => 0.0,
            _ => bowl,
        }
    }

    /// The one-run Nelder–Mead loop the lane machine replaced, kept
    /// verbatim in substance as the reference for
    /// `lane_matches_the_one_run_loop`: vertex order kept by insertion
    /// (`(value, index)` under `total_cmp`), the centroid summed from
    /// zeros skipping the worst row, shrunk vertices evaluated as they
    /// move.
    fn reference_minimize(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        initial_step: f64,
        max_iter: usize,
        tol: f64,
    ) -> (Vec<f64>, NelderMeadStats) {
        let rank_less = |values: &[f64], a: usize, b: usize| match values[a].total_cmp(&values[b]) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b,
        };
        let rebuild_order = |order: &mut Vec<usize>, values: &[f64]| {
            order.clear();
            for i in 0..values.len() {
                order.push(i);
                let mut j = order.len() - 1;
                while j > 0 && rank_less(values, order[j], order[j - 1]) {
                    order.swap(j, j - 1);
                    j -= 1;
                }
            }
        };
        let reposition_last = |order: &mut [usize], values: &[f64]| {
            let mut j = order.len() - 1;
            let moved = order[j];
            while j > 0 && rank_less(values, moved, order[j - 1]) {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = moved;
        };

        let n = x0.len();
        let mut simplex = vec![0.0; (n + 1) * n];
        for (row, v) in simplex.chunks_exact_mut(n).enumerate() {
            v.copy_from_slice(x0);
            if row > 0 {
                v[row - 1] += initial_step;
            }
        }
        let mut values: Vec<f64> = simplex.chunks_exact(n).map(&mut f).collect();
        assert!(
            !values[0].is_nan(),
            "objective is NaN at the starting point"
        );
        let mut order = Vec::new();
        rebuild_order(&mut order, &values);
        let (mut centroid, mut reflect, mut expand) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);

        let mut iterations = 0;
        let mut converged = false;
        while iterations < max_iter {
            iterations += 1;
            let (best, second_worst, worst) = (order[0], order[n - 1], order[n]);
            let spread = values[worst] - values[best];
            if spread.abs() < tol && diameter_below(&simplex, best * n, n, tol) {
                converged = true;
                break;
            }
            centroid.fill(0.0);
            for (i, v) in simplex.chunks_exact(n).enumerate() {
                if i != worst {
                    for (c, &x) in centroid.iter_mut().zip(v) {
                        *c += x;
                    }
                }
            }
            for c in centroid.iter_mut() {
                *c /= n as f64;
            }
            let worst_row = simplex[worst * n..(worst + 1) * n].to_vec();
            for ((r, c), w) in reflect.iter_mut().zip(&centroid).zip(&worst_row) {
                *r = c + ALPHA * (c - w);
            }
            let f_reflect = f(&reflect);
            if f_reflect < values[best] {
                for ((e, c), w) in expand.iter_mut().zip(&centroid).zip(&worst_row) {
                    *e = c + GAMMA * (c - w);
                }
                let f_expand = f(&expand);
                let (x, v) = if f_expand < f_reflect {
                    (&expand, f_expand)
                } else {
                    (&reflect, f_reflect)
                };
                simplex[worst * n..(worst + 1) * n].copy_from_slice(x);
                values[worst] = v;
                reposition_last(&mut order, &values);
            } else if f_reflect < values[second_worst] {
                simplex[worst * n..(worst + 1) * n].copy_from_slice(&reflect);
                values[worst] = f_reflect;
                reposition_last(&mut order, &values);
            } else {
                for ((e, c), w) in expand.iter_mut().zip(&centroid).zip(&worst_row) {
                    *e = c + RHO * (w - c);
                }
                let f_contract = f(&expand);
                if f_contract < values[worst] {
                    simplex[worst * n..(worst + 1) * n].copy_from_slice(&expand);
                    values[worst] = f_contract;
                    reposition_last(&mut order, &values);
                } else {
                    let best_copy = simplex[best * n..(best + 1) * n].to_vec();
                    for (i, v) in simplex.chunks_exact_mut(n).enumerate() {
                        if i != best {
                            for (x, &b) in v.iter_mut().zip(&best_copy) {
                                *x = b + SIGMA * (*x - b);
                            }
                            values[i] = f(v);
                        }
                    }
                    rebuild_order(&mut order, &values);
                }
            }
        }
        let best = (0..=n)
            .min_by(|&a, &b| values[a].total_cmp(&values[b]))
            .unwrap_or(0);
        let stats = NelderMeadStats {
            value: values[best],
            iterations,
            evaluations: 0,
            converged,
        };
        (simplex[best * n..(best + 1) * n].to_vec(), stats)
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let (x, r) = solve(
            |x| x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum(),
            &[0.0, 0.0, 0.0],
            1.0,
            2000,
            1e-10,
        );
        assert!(r.converged);
        for v in &x {
            assert!((v - 3.0).abs() < 1e-4, "x = {x:?}");
        }
        assert!(r.value < 1e-8);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let rosen = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let (x, _) = solve(rosen, &[-1.2, 1.0], 0.5, 5000, 1e-12);
        assert!(
            (x[0] - 1.0).abs() < 1e-3 && (x[1] - 1.0).abs() < 1e-3,
            "x = {x:?}"
        );
    }

    #[test]
    fn handles_non_smooth_objective() {
        // |x| + |y| has a kink at the optimum; simplex should still land
        // close.
        let (_, r) = solve(
            |x| x.iter().map(|v| v.abs()).sum(),
            &[5.0, -7.0],
            1.0,
            2000,
            1e-10,
        );
        assert!(r.value < 1e-4, "value = {}", r.value);
    }

    #[test]
    fn one_dimensional_works() {
        let (x, r) = solve(|x| (x[0] + 2.0).powi(2) + 1.0, &[10.0], 1.0, 1000, 1e-12);
        assert!((x[0] + 2.0).abs() < 1e-4);
        assert!((r.value - 1.0).abs() < 1e-8);
    }

    #[test]
    fn respects_iteration_cap() {
        let (_, r) = solve(
            |x| x.iter().map(|v| v * v).sum(),
            &[100.0; 8],
            1.0,
            3,
            1e-16,
        );
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn gnp_style_objective_recovers_position() {
        // Place 5 anchors in 2-d; recover an unknown point from exact
        // distances by minimizing squared relative error — the exact
        // computation an NPS node performs.
        let anchors = [
            [0.0, 0.0],
            [100.0, 0.0],
            [0.0, 100.0],
            [100.0, 100.0],
            [50.0, 120.0],
        ];
        let truth = [37.0, 61.0];
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let rtts: Vec<f64> = anchors.iter().map(|a| dist(a, &truth)).collect();
        let objective = |x: &[f64]| -> f64 {
            anchors
                .iter()
                .zip(&rtts)
                .map(|(a, &rtt)| {
                    let est = dist(a, x);
                    ((est - rtt) / rtt).powi(2)
                })
                .sum()
        };
        let (x, _) = solve(objective, &[0.0, 0.0], 10.0, 5000, 1e-14);
        assert!(
            (x[0] - truth[0]).abs() < 0.01 && (x[1] - truth[1]).abs() < 0.01,
            "recovered {x:?}"
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One workspace reused across different objectives and
        // dimensionalities must reproduce each one-shot result exactly.
        let bowl = |x: &[f64]| -> f64 { x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum() };
        let rosen = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let mut scratch = NelderMeadScratch::new();
        for _ in 0..3 {
            let stats = scratch.minimize(rosen, &[-1.2, 1.0], 0.5, 5000, 1e-12);
            let (x, fresh) = solve(rosen, &[-1.2, 1.0], 0.5, 5000, 1e-12);
            assert_eq!(scratch.best_point(), &x[..]);
            assert_eq!(stats.value.to_bits(), fresh.value.to_bits());
            assert_eq!(stats.iterations, fresh.iterations);
            assert_eq!(stats.converged, fresh.converged);

            // Interleave a different dimensionality to exercise regrowth.
            let stats = scratch.minimize(bowl, &[0.0; 5], 1.0, 2000, 1e-10);
            let (x, fresh) = solve(bowl, &[0.0; 5], 1.0, 2000, 1e-10);
            assert_eq!(scratch.best_point(), &x[..]);
            assert_eq!(stats.value.to_bits(), fresh.value.to_bits());

            // Above 16 dimensions the centroid sums use the lane's own
            // buffer, which every iteration and every run at the same
            // dimensionality must start afresh.
            let (x, fresh) = solve(bowl, &[0.0; 20], 1.0, 400, 1e-10);
            for _ in 0..2 {
                let stats = scratch.minimize(bowl, &[0.0; 20], 1.0, 400, 1e-10);
                assert_eq!(scratch.best_point(), &x[..]);
                assert_eq!(stats, fresh);
            }
        }
    }

    #[test]
    fn incremental_order_handles_ties() {
        // A flat objective makes every vertex value identical, so the
        // ordering is decided purely by the stable-sort index tie-break;
        // every iteration shrinks until the diameter converges.
        let (x, r) = solve(|_| 1.0, &[2.0, 4.0], 1.0, 100, 1e-6);
        assert_eq!(r.value, 1.0);
        assert!(r.converged, "flat objective converges by diameter");
        assert_eq!(x, vec![2.0, 4.0], "tie-break keeps the first vertex");
    }

    #[test]
    #[should_panic(expected = "initial_step must be positive")]
    fn rejects_zero_step() {
        solve(|x| x[0], &[0.0], 0.0, 10, 1e-6);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn rejects_empty_start() {
        solve(|_| 0.0, &[], 1.0, 10, 1e-6);
    }
}
