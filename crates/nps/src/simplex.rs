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
//! The solver runs inside every NPS positioning round, so the hot entry
//! point is [`NelderMeadScratch::minimize`]: the simplex lives in one
//! flat row-major buffer and every intermediate (centroid, reflection,
//! expansion/contraction candidate, vertex ordering) is a preallocated
//! buffer reused across iterations and across calls. After the first
//! call at a given dimensionality, an iteration performs zero heap
//! allocations.
//!
//! Bit-for-bit guarantee: `minimize` executes the exact floating-point
//! operation sequence of the original allocating implementation — same
//! evaluation order, same accumulation order, same tie-breaking (the
//! vertex ordering maintains the permutation a stable sort of the
//! identity produces, i.e. sorted by `(value, vertex index)`). The
//! golden `to_bits` regression tests pin this.

/// Outcome of a scratch-based run; the best point itself stays in the
/// scratch (read it with [`NelderMeadScratch::best_point`]) so the
/// solver never has to allocate for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadStats {
    /// Objective value at the best point.
    pub value: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the simplex diameter converged below tolerance.
    pub converged: bool,
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// Reusable workspace for Nelder–Mead runs.
///
/// All buffers are grown on demand and kept between calls, so repeated
/// solves at the same dimensionality (the NPS restart loop, successive
/// rounds) never touch the allocator: after warm-up, `minimize` performs
/// zero heap allocations per iteration — the `&mut self` contract is
/// exactly that the workspace owns every byte the solver needs.
#[derive(Debug, Clone, Default)]
pub struct NelderMeadScratch {
    /// The simplex: `n + 1` vertices of dimension `n`, flat row-major.
    simplex: Vec<f64>,
    /// Objective value of each vertex.
    values: Vec<f64>,
    /// Vertex indices sorted by `(value, index)` — the permutation a
    /// stable sort of `0..=n` by value produces. Maintained
    /// incrementally: accepted moves re-insert the single replaced
    /// vertex; only a shrink (which re-evaluates every vertex) rebuilds.
    order: Vec<usize>,
    /// Centroid of all vertices but the worst.
    centroid: Vec<f64>,
    /// Reflection candidate.
    reflect: Vec<f64>,
    /// Expansion *and* contraction candidate (never both live at once).
    expand: Vec<f64>,
    /// Copy of the best vertex pinned during an in-place shrink.
    best_copy: Vec<f64>,
    /// Best point of the last run.
    best_x: Vec<f64>,
}

/// Dimensionality parameter for the solver core: either a compile-time
/// constant (so the per-iteration loops unroll and vectorize into
/// straight-line code) or a runtime value. Both instantiations are the
/// same source body, so they execute the same floating-point operation
/// sequence — monomorphization changes code generation, never op order.
trait Dim: Copy {
    fn get(self) -> usize;
}

/// Compile-time dimensionality (the production NPS configuration runs
/// 8-d, so `Fixed::<8>` carries the hot path).
#[derive(Copy, Clone)]
struct Fixed<const N: usize>;

impl<const N: usize> Dim for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

/// Runtime dimensionality — the fallback for every other `n`.
#[derive(Copy, Clone)]
struct Dyn(usize);

impl Dim for Dyn {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// `(value, index)` strict less-than — the total order the vertex
/// ranking maintains. Ties on value break by vertex index, which is
/// exactly what a stable sort of the identity permutation yields.
#[inline]
fn rank_less(values: &[f64], a: usize, b: usize) -> bool {
    match values[a].total_cmp(&values[b]) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a < b,
    }
}

/// Rebuild `order` as `0..values.len()` sorted by `(value, index)`.
/// Insertion sort: the simplex has at most a handful of vertices.
fn rebuild_order(order: &mut Vec<usize>, values: &[f64]) {
    order.clear();
    for i in 0..values.len() {
        order.push(i);
        let mut j = order.len() - 1;
        while j > 0 && rank_less(values, order[j], order[j - 1]) {
            order.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Re-insert the (just replaced) last-ranked vertex into its sorted
/// position after its value changed.
fn reposition_last(order: &mut [usize], values: &[f64]) {
    let mut j = order.len() - 1;
    let moved = order[j];
    while j > 0 && rank_less(values, moved, order[j - 1]) {
        order[j] = order[j - 1];
        j -= 1;
    }
    order[j] = moved;
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

impl NelderMeadScratch {
    /// Create an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Best point found by the most recent [`minimize`](Self::minimize)
    /// call. Empty before the first call.
    pub fn best_point(&self) -> &[f64] {
        &self.best_x
    }

    /// Size every buffer for dimensionality `n` without shrinking
    /// capacity, so repeat calls at the same `n` never reallocate.
    fn prepare(&mut self, n: usize) {
        self.simplex.clear();
        self.simplex.resize((n + 1) * n, 0.0);
        self.values.clear();
        self.values.reserve(n + 1);
        self.order.clear();
        self.order.reserve(n + 1);
        self.centroid.clear();
        self.centroid.resize(n, 0.0);
        self.reflect.clear();
        self.reflect.resize(n, 0.0);
        self.expand.clear();
        self.expand.resize(n, 0.0);
        self.best_copy.clear();
        self.best_copy.resize(n, 0.0);
        self.best_x.reserve(n);
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
        assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
        assert!(initial_step > 0.0, "initial_step must be positive");
        assert!(tol > 0.0, "tol must be positive");
        // Dispatch to a monomorphized core when the dimensionality is the
        // production one: with `n` a compile-time constant the centroid /
        // reflect / shrink loops become straight-line vector code. Both
        // arms run the identical source body (see [`Dim`]).
        match x0.len() {
            8 => self.minimize_impl(Fixed::<8>, f, x0, initial_step, max_iter, tol),
            n => self.minimize_impl(Dyn(n), f, x0, initial_step, max_iter, tol),
        }
    }

    fn minimize_impl<D: Dim>(
        &mut self,
        dim: D,
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        initial_step: f64,
        max_iter: usize,
        tol: f64,
    ) -> NelderMeadStats {
        let n = dim.get();
        debug_assert_eq!(n, x0.len());
        self.prepare(n);

        // Re-slice every buffer through the `Dim`-provided length so the
        // monomorphized instantiation sees compile-time trip counts (the
        // `Vec` lengths alone are opaque to the optimizer). Pure
        // re-slicing — no arithmetic is touched.
        let Self {
            simplex,
            values,
            order,
            centroid,
            reflect,
            expand,
            best_copy,
            best_x,
        } = self;
        let simplex = &mut simplex[..(n + 1) * n];
        let centroid = &mut centroid[..n];
        let reflect = &mut reflect[..n];
        let expand = &mut expand[..n];
        let best_copy = &mut best_copy[..n];

        // Initial simplex: x0 plus one axis-step vertex per dimension.
        for (row, v) in simplex.chunks_exact_mut(n).enumerate() {
            v.copy_from_slice(x0);
            if row > 0 {
                v[row - 1] += initial_step;
            }
        }
        for v in simplex.chunks_exact(n) {
            let value = f(v);
            values.push(value);
        }
        // audit:allow(PANIC02): simplex holds n + 1 >= 2 vertices by construction
        assert!(!values[0].is_nan(), "objective is NaN at the starting point");
        let values = &mut values[..n + 1];
        rebuild_order(order, values);

        let mut iterations = 0;
        let mut converged = false;
        while iterations < max_iter {
            iterations += 1;

            let best = order[0]; // audit:allow(PANIC02): order holds n + 1 >= 2 entries by construction
            let worst = order[n];
            let second_worst = order[n - 1];

            // Convergence: objective spread and simplex diameter. The
            // O(n²) diameter is only consulted once the spread is below
            // tolerance (`&&` short-circuit), so the common far-from-
            // converged iteration skips it entirely — a pure-function
            // elision with no observable effect.
            let spread = values[worst] - values[best];
            if spread.abs() < tol && diameter_below(simplex, best * n, n, tol) {
                converged = true;
                break;
            }

            // Centroid of all but the worst vertex: rows below the worst,
            // then rows above it — the same row-ascending accumulation
            // order as a skip-one scan, without a per-row branch.
            for c in centroid.iter_mut() {
                *c = 0.0;
            }
            for v in simplex[..worst * n].chunks_exact(n) {
                for (c, &x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for v in simplex[(worst + 1) * n..].chunks_exact(n) {
                for (c, &x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in centroid.iter_mut() {
                *c /= n as f64;
            }

            let worst_row = &simplex[worst * n..(worst + 1) * n];
            for ((r, c), w) in reflect.iter_mut().zip(centroid.iter()).zip(worst_row) {
                *r = c + ALPHA * (c - w);
            }
            let f_reflect = f(reflect);

            if f_reflect < values[best] {
                // Try expanding further.
                for ((e, c), w) in expand.iter_mut().zip(centroid.iter()).zip(worst_row) {
                    *e = c + GAMMA * (c - w);
                }
                let f_expand = f(expand);
                if f_expand < f_reflect {
                    simplex[worst * n..(worst + 1) * n].copy_from_slice(expand);
                    values[worst] = f_expand;
                } else {
                    simplex[worst * n..(worst + 1) * n].copy_from_slice(reflect);
                    values[worst] = f_reflect;
                }
                reposition_last(order, values);
            } else if f_reflect < values[second_worst] {
                simplex[worst * n..(worst + 1) * n].copy_from_slice(reflect);
                values[worst] = f_reflect;
                reposition_last(order, values);
            } else {
                // Contract toward the centroid (reusing the expansion
                // buffer — the two candidates are never live together).
                for ((e, c), w) in expand.iter_mut().zip(centroid.iter()).zip(worst_row) {
                    *e = c + RHO * (w - c);
                }
                let f_contract = f(expand);
                if f_contract < values[worst] {
                    simplex[worst * n..(worst + 1) * n].copy_from_slice(expand);
                    values[worst] = f_contract;
                    reposition_last(order, values);
                } else {
                    // Shrink everything toward the best vertex, in place.
                    best_copy.copy_from_slice(&simplex[best * n..(best + 1) * n]);
                    for (i, v) in simplex.chunks_exact_mut(n).enumerate() {
                        if i != best {
                            for (x, &b) in v.iter_mut().zip(best_copy.iter()) {
                                *x = b + SIGMA * (*x - b);
                            }
                            values[i] = f(v);
                        }
                    }
                    rebuild_order(order, values);
                }
            }
        }

        let best = (0..=n)
            .min_by(|&a, &b| values[a].total_cmp(&values[b]))
            .unwrap_or(0);
        best_x.clear();
        best_x.extend_from_slice(&simplex[best * n..(best + 1) * n]);
        NelderMeadStats {
            value: values[best],
            iterations,
            converged,
        }
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
