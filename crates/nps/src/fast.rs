//! Fast-tier GNP objective (`ICES_FAST=1`).
//!
//! This module is the only place in the crate allowed to reorder or
//! refactor the objective's f64 arithmetic (the FAST01 audit rule
//! confines reassociation-bearing code to `fast` modules). Relative to
//! [`crate::node`]'s exact kernel it changes two things:
//!
//! * **fused normalize** — the per-sample relative error multiplies by
//!   a precomputed reciprocal RTT instead of dividing
//!   (`(est − rtt) · rtt⁻¹` vs `(est − rtt) / rtt`), which differs in
//!   the low bits but lets the loop pipeline without the divider;
//! * **4-lane reassociated reduction** — the final sum accumulates four
//!   independent partial sums and folds them pairwise, instead of the
//!   exact kernel's strict left-to-right sum.
//!
//! Outputs are deterministic for the tier (same inputs → same bits, at
//! any `ICES_THREADS` — the kernel is still called from one thread per
//! node and carries no cross-sample ordering dependence), but are NOT
//! bit-identical to the exact tier. The fast tier has its own golden
//! fingerprint below, and tier-2 gates it on statistical equivalence
//! (see DESIGN.md §14).

use crate::node::{tile_sq, RpTiles, TILE};

const LANES: usize = 4;

/// The GNP objective with reassociated arithmetic, over the same tiles
/// as the exact kernel plus their reciprocal-RTT column (filled by
/// `solve()` only on the fast tier).
///
/// The 4-lane fold runs over the flattened per-sample terms: term `i`
/// goes to lane `i % 4` while a whole chunk of four remains, and the
/// last `ns % 4` terms are added after the pairwise fold. A tile holds
/// two whole chunks, so only the last block can carry that remainder.
#[inline(always)]
pub(crate) fn objective_fast(tiles: &RpTiles, x: &[f64]) -> f64 {
    debug_assert!(!x.is_empty(), "candidate point must have dimensions");
    let mut lanes = [0.0f64; LANES];
    let mut tail = [0.0f64; TILE];
    let mut tail_lanes = 0..0;
    for ((pos, heights, rtts, live), inv_rtts) in tiles.blocks().zip(tiles.inv_rtts()) {
        // The squared-distance accumulation is the exact kernel's: it is
        // lane-independent per sample, so there is nothing to
        // reassociate.
        let sq = tile_sq(x, pos);
        let mut terms = [0.0; TILE];
        for ((((t, &q), &height), &rtt), &inv_rtt) in terms
            .iter_mut()
            .zip(&sq)
            .zip(heights)
            .zip(rtts)
            .zip(inv_rtts)
        {
            let est = q.sqrt() + height;
            let rel = (est - rtt) * inv_rtt;
            *t = rel * rel;
        }
        let chunked = live / LANES * LANES;
        for c in terms[..chunked].chunks_exact(LANES) {
            for (lane, &term) in lanes.iter_mut().zip(c) {
                *lane += term;
            }
        }
        if chunked < live {
            tail = terms;
            tail_lanes = chunked..live;
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let mut total = (l0 + l1) + (l2 + l3);
    for &t in &tail[tail_lanes] {
        total += t;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::kernel_case;
    use ices_coord::{Coordinate, PeerSample};
    use proptest::prelude::*;

    /// A deterministic reference set: `n` samples in `dims` dimensions
    /// with irrational-ish values so low-bit differences surface.
    fn fixture(n: usize, dims: usize) -> (Vec<PeerSample>, Vec<f64>) {
        let samples = (0..n)
            .map(|s| PeerSample {
                peer: s,
                peer_coord: Coordinate::new(
                    (0..dims)
                        .map(|d| ((d * 31 + s * 17) as f64).sin() * 90.0 + 0.137 * s as f64)
                        .collect(),
                    0.05 * (s % 5) as f64,
                ),
                peer_error: 0.1,
                rtt_ms: 35.0 + ((s * 13) as f64).cos().abs() * 120.0,
            })
            .collect();
        let x: Vec<f64> = (0..dims).map(|d| 10.0 + 3.7 * d as f64).collect();
        (samples, x)
    }

    fn tiles(samples: &[PeerSample], fast: bool) -> RpTiles {
        let mut tiles = RpTiles::default();
        tiles.fill(samples, samples[0].peer_coord.dims(), fast);
        tiles
    }

    /// The fast kernel as it stood over the dimension-major layout
    /// (rows of `stride` samples, one per dimension), kept here as the
    /// bit reference for the tiled port.
    fn soa_objective_fast(samples: &[PeerSample], x: &[f64]) -> f64 {
        let ns = samples.len();
        let stride = (ns + 7) & !7;
        let mut rp_soa = vec![0.0; x.len() * stride];
        for (s_idx, s) in samples.iter().enumerate() {
            for (d, &p) in s.peer_coord.position().iter().enumerate() {
                rp_soa[d * stride + s_idx] = p;
            }
        }
        let heights: Vec<f64> = samples.iter().map(|s| s.peer_coord.height()).collect();
        let rtts: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
        let inv_rtts: Vec<f64> = rtts.iter().map(|&rtt| 1.0 / rtt).collect();
        let mut sq = vec![0.0; ns];
        let mut terms = vec![0.0; ns];
        let mut rows = x.iter().zip(rp_soa.chunks_exact(stride));
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
        for ((((t, &q), &height), &rtt), &inv_rtt) in terms
            .iter_mut()
            .zip(&sq)
            .zip(&heights)
            .zip(&rtts)
            .zip(&inv_rtts)
        {
            let est = q.sqrt() + height;
            let rel = (est - rtt) * inv_rtt;
            *t = rel * rel;
        }
        let mut lanes = [0.0f64; LANES];
        let chunks = terms.chunks_exact(LANES);
        let remainder = chunks.remainder();
        for c in chunks {
            for (lane, &term) in lanes.iter_mut().zip(c) {
                *lane += term;
            }
        }
        let [l0, l1, l2, l3] = lanes;
        let mut total = (l0 + l1) + (l2 + l3);
        for &t in remainder {
            total += t;
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn tiled_fast_kernel_matches_the_soa_kernel_bit_for_bit(
            ns in 1usize..=40,
            dims in 1usize..=10,
            mode in 0usize..4,
            vals in proptest::collection::vec(-1f64..1.0, 512),
        ) {
            let (samples, x) = kernel_case(ns, dims, mode, &vals);
            let got = objective_fast(&tiles(&samples, true), &x);
            let want = soa_objective_fast(&samples, &x);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "ns={} dims={} mode={}: tiled {} vs soa {}",
                ns, dims, mode, got, want
            );
        }
    }

    #[test]
    fn fast_objective_tracks_exact_within_tolerance() {
        for n in [1, 3, 4, 7, 8, 19, 64] {
            let (samples, x) = fixture(n, 8);
            let tiles = tiles(&samples, true);
            let exact = tiles.objective(&x);
            let fast = objective_fast(&tiles, &x);
            let rel = ((fast - exact) / exact).abs();
            assert!(
                rel < 1e-12,
                "n={n}: fast {fast} vs exact {exact} (rel {rel})"
            );
        }
    }

    /// Golden fingerprint of the fast-tier objective bits: the tier may
    /// differ from exact, but must never drift silently from itself.
    #[test]
    fn fast_objective_fingerprint_is_stable() {
        let mut fingerprint = 0u64;
        for n in [5, 16, 33] {
            let (samples, x) = fixture(n, 8);
            let value = objective_fast(&tiles(&samples, true), &x);
            fingerprint =
                fingerprint.rotate_left(13) ^ value.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        assert_eq!(
            fingerprint, 0xe824_2dfa_dd8a_071b,
            "fast-tier objective fingerprint changed: got {fingerprint:#018x}; \
             if the reassociation deliberately changed, re-record this constant"
        );
    }

    #[test]
    fn fast_solver_path_is_deterministic_per_tier() {
        let (samples, x) = fixture(23, 8);
        let tiles = tiles(&samples, true);
        let eval = || objective_fast(&tiles, &x).to_bits();
        assert_eq!(eval(), eval());
    }
}
