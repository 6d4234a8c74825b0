//! Base-RTT matrices.
//!
//! An [`RttMatrix`] holds the *nominal* (fluctuation-free) RTT between
//! every pair of nodes — the synthetic stand-in for the King dataset. It
//! is symmetric with a zero diagonal, stored as a packed upper triangle.

use serde::{Deserialize, Serialize};

/// Symmetric matrix of base RTTs in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RttMatrix {
    n: usize,
    /// Packed strict upper triangle, row-major: entry `(i, j)` for `i < j`
    /// lives at `i*(2n−i−1)/2 + (j−i−1)`.
    upper: Vec<f64>,
}

/// Key bits of [`RttMatrix::median`]'s histogram: 16 bits are the sign,
/// the exponent and 4 mantissa bits, so a bucket spans a sixteenth of an
/// octave of RTTs.
const MEDIAN_BUCKET_BITS: u32 = 16;

/// `x`'s position in [`f64::total_cmp`] order as an unsigned integer.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl RttMatrix {
    /// Build a matrix by evaluating `f(i, j)` for every pair `i < j`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `f` produces a non-positive or non-finite RTT.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        Self::from_rows(n, |i, upper| upper.extend((i + 1..n).map(|j| f(i, j))))
    }

    /// Build a matrix row by row: `fill(i, upper)` appends the entries
    /// `(i, i+1..n)` to `upper`, in that order.
    ///
    /// # Panics
    /// Panics if `n < 2` or `fill` appends the wrong number of entries,
    /// or a non-positive or non-finite RTT.
    pub(crate) fn from_rows(n: usize, mut fill: impl FnMut(usize, &mut Vec<f64>)) -> Self {
        assert!(n >= 2, "a topology needs at least 2 nodes, got {n}");
        let mut upper = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            let start = upper.len();
            fill(i, &mut upper);
            assert_eq!(
                upper.len() - start,
                n - i - 1,
                "row {i} has the wrong length"
            );
            for (j, &rtt) in (i + 1..).zip(&upper[start..]) {
                assert!(
                    rtt.is_finite() && rtt > 0.0,
                    "RTT({i},{j}) must be positive and finite, got {rtt}"
                );
            }
        }
        Self { n, upper }
    }

    /// The entries `(i, i+1..n)` of row `i` of the upper triangle, in
    /// column order.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn upper_row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "node index out of range");
        let start = i * (2 * self.n - i - 1) / 2;
        &self.upper[start..start + (self.n - i - 1)]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: construction requires `n ≥ 2`.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Base RTT between `a` and `b` in milliseconds; 0 for `a == b`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "node index out of range");
        if a == b {
            return 0.0;
        }
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        self.upper[self.index(i, j)]
    }

    /// Overwrite the RTT for a pair (used by tests and synthetic tweaks).
    ///
    /// # Panics
    /// Panics on out-of-range indices, `a == b`, or invalid RTT values.
    pub fn set(&mut self, a: usize, b: usize, rtt: f64) {
        assert!(a < self.n && b < self.n, "node index out of range");
        assert!(a != b, "cannot set the diagonal");
        assert!(
            rtt.is_finite() && rtt > 0.0,
            "RTT must be positive and finite, got {rtt}"
        );
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        let idx = self.index(i, j);
        self.upper[idx] = rtt;
    }

    /// All RTTs from node `a` to every other node (self excluded),
    /// as `(peer, rtt)` pairs.
    pub fn row(&self, a: usize) -> Vec<(usize, f64)> {
        (0..self.n)
            .filter(|&b| b != a)
            .map(|b| (b, self.get(a, b)))
            .collect()
    }

    /// Median RTT over all pairs: the upper middle element in
    /// [`f64::total_cmp`] order.
    ///
    /// Found without copying the triangle: one pass counts the RTTs per
    /// bucket of the top [`MEDIAN_BUCKET_BITS`] bits of their order key,
    /// which finds the bucket holding the middle rank; a selection among
    /// that bucket's few members then finds the element. Keys order as
    /// `total_cmp` does, so this is the element a sort would put there.
    pub fn median(&self) -> f64 {
        let bucket_of = |x: f64| (total_order_key(x) >> (64 - MEDIAN_BUCKET_BITS)) as usize;
        let mid = self.upper.len() / 2;
        // Four interleaved histograms, so runs of equal buckets do not
        // chain one increment on the next.
        let buckets = 1 << MEDIAN_BUCKET_BITS;
        let mut counts = vec![0u32; 4 * buckets];
        let mut quads = self.upper.chunks_exact(4);
        for quad in &mut quads {
            for (h, &x) in quad.iter().enumerate() {
                counts[h * buckets + bucket_of(x)] += 1;
            }
        }
        for &x in quads.remainder() {
            counts[bucket_of(x)] += 1;
        }
        // The bucket holding rank `mid`, and the ranks below it.
        let mut below = 0;
        let mut bucket = 0;
        for b in 0..buckets {
            let count = (0..4)
                .map(|h| counts[h * buckets + b] as usize)
                .sum::<usize>();
            if below + count > mid {
                bucket = b;
                break;
            }
            below += count;
        }
        let mut members: Vec<f64> = self
            .upper
            .iter()
            .copied()
            .filter(|&x| bucket_of(x) == bucket)
            .collect();
        *members
            .select_nth_unstable_by(mid - below, f64::total_cmp)
            .1
    }

    /// Fraction of node triples `(i, j, k)` for which the direct path
    /// `RTT(i,k)` exceeds the detour `RTT(i,j) + RTT(j,k)` by more than
    /// `slack` (relative) — a triangle-inequality-violation census.
    ///
    /// Sampled over at most `max_triples` deterministically chosen triples
    /// to stay cheap on 1740-node matrices.
    pub fn tiv_fraction(&self, slack: f64, max_triples: usize) -> f64 {
        assert!(max_triples > 0, "need at least one triple");
        let n = self.n;
        let mut violations = 0usize;
        let mut total = 0usize;
        // Deterministic low-discrepancy stride over triples.
        let mut state = 0x9E37_79B9u64;
        while total < max_triples {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let i = (state >> 33) as usize % n;
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let j = (state >> 33) as usize % n;
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let k = (state >> 33) as usize % n;
            if i == j || j == k || i == k {
                continue;
            }
            total += 1;
            let direct = self.get(i, k);
            let detour = self.get(i, j) + self.get(j, k);
            if direct > detour * (1.0 + slack) {
                violations += 1;
            }
        }
        violations as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid3() -> RttMatrix {
        // 3 nodes on a line: 0 --10-- 1 --10-- 2, direct 0-2 = 20.
        RttMatrix::from_fn(3, |i, j| ((j - i) as f64) * 10.0)
    }

    #[test]
    fn get_is_symmetric_with_zero_diagonal() {
        let m = grid3();
        assert_eq!(m.get(0, 1), 10.0);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(0, 2), 20.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn set_updates_both_directions() {
        let mut m = grid3();
        m.set(2, 0, 55.0);
        assert_eq!(m.get(0, 2), 55.0);
        assert_eq!(m.get(2, 0), 55.0);
        assert_eq!(m.get(0, 1), 10.0, "other entries untouched");
    }

    #[test]
    fn row_excludes_self() {
        let m = grid3();
        let row = m.row(1);
        assert_eq!(row, vec![(0, 10.0), (2, 10.0)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The histogram median is the element the old clone-and-select
        /// returned, bit for bit, on triangles full of repeated values.
        #[test]
        fn median_matches_clone_and_select(
            n in 2usize..40,
            palette in proptest::collection::vec(0.01f64..500.0, 1..6),
            picks in proptest::collection::vec(0usize..1000, 800),
        ) {
            let mut k = 0;
            // Repeats of a few values, and near-repeats that share a
            // histogram bucket.
            let m = RttMatrix::from_fn(n, |_, _| {
                k += 1;
                let pick = picks[k % picks.len()];
                palette[pick % palette.len()] * (1.0 + (pick % 7) as f64 * 1e-3)
            });
            let mut v = m.upper.clone();
            let mid = v.len() / 2;
            let want = *v.select_nth_unstable_by(mid, f64::total_cmp).1;
            proptest::prop_assert_eq!(m.median().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn median_of_known_matrix() {
        let m = grid3(); // entries 10, 20, 10
        assert_eq!(m.median(), 10.0);
    }

    #[test]
    fn metric_matrix_has_no_tivs() {
        // RTTs from a genuine metric (points on a line) violate nothing.
        let m = RttMatrix::from_fn(10, |i, j| ((j - i) as f64) * 5.0);
        assert_eq!(m.tiv_fraction(0.0, 2000), 0.0);
    }

    #[test]
    fn constructed_tiv_is_detected() {
        let mut m = RttMatrix::from_fn(3, |_, _| 10.0);
        m.set(0, 2, 100.0); // direct much longer than 10+10 detour
        let f = m.tiv_fraction(0.0, 3000);
        // Of the valid ordered triples, those with (i,k) = (0,2) or (2,0)
        // and j = 1 violate: 2 of 6 orderings.
        assert!(f > 0.2 && f < 0.45, "tiv fraction = {f}");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_rtt() {
        RttMatrix::from_fn(2, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_bad_index() {
        grid3().get(0, 3);
    }

    #[test]
    fn serde_roundtrip() {
        let m = grid3();
        let json = serde_json::to_string(&m).expect("serialize");
        let back: RttMatrix = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(m, back);
    }

    proptest! {
        #[test]
        fn median_matches_sorted_reference(
            n in 2usize..40,
            values in proptest::collection::vec(1u32..8, 1..64),
        ) {
            // Few distinct values, so most matrices carry many duplicates.
            let m = RttMatrix::from_fn(n, |i, j| {
                f64::from(values[(i * n + j) % values.len()]) * 2.5
            });
            let mut sorted = m.upper.clone();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(m.median().to_bits(), sorted[sorted.len() / 2].to_bits());
        }

        #[test]
        fn packing_roundtrips(n in 2usize..12) {
            // Fill with a pair-unique value and verify retrieval.
            let m = RttMatrix::from_fn(n, |i, j| (i * 100 + j + 1) as f64);
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        prop_assert_eq!(m.get(i, j), 0.0);
                    } else {
                        let (a, b) = if i < j { (i, j) } else { (j, i) };
                        prop_assert_eq!(m.get(i, j), (a * 100 + b + 1) as f64);
                    }
                }
            }
        }
    }
}
