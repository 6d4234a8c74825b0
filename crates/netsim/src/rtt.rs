//! Pluggable base-RTT sources: dense matrices and streamed generators.
//!
//! The paper's substrates fit in memory (1740 nodes ≈ 1.5M packed f64),
//! but a dense pairwise matrix is O(n²) — ~8 TB at a million nodes — so
//! scaling past the seed topologies requires *synthesizing* each pair on
//! demand instead of storing it. [`RttSource`] abstracts the lookup;
//! [`RttStore`] is the closed enum [`crate::Network`] actually holds (an
//! enum rather than a trait object so `Network` keeps its `Clone`/
//! `PartialEq`/serde derives).
//!
//! Determinism contract: a source's `base_rtt(a, b)` must be a pure
//! function of the source's construction inputs and `(min(a,b),
//! max(a,b))` — no interior mutability that affects values, no
//! wall-clock, no global state. `ices-audit` enforces the no-wall-clock
//! half statically (DET02 covers this crate), and [`SynthRtt`] derives
//! every pair from the order-normalized hash stream
//! `stream_rng2(seed, lo, hi)`.

use crate::kinggen::{KingConfig, Placement};
use crate::topology::RttMatrix;
use ices_stats::rng::stream_rng;
use ices_stats::streams;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// A source of pairwise base RTTs.
///
/// Implementations must be pure: the value for `(a, b)` depends only on
/// construction inputs and the unordered pair, never on call order,
/// wall-clock time, or prior queries.
pub trait RttSource {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Nominal (fluctuation-free) RTT between two distinct nodes, ms.
    /// Symmetric; returns 0 for `a == b`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    fn base_rtt(&self, a: usize, b: usize) -> f64;
}

impl RttSource for RttMatrix {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn base_rtt(&self, a: usize, b: usize) -> f64 {
        self.get(a, b)
    }
}

/// Streamed King-model RTTs: O(n) memory, each pair recomputed on demand.
///
/// Holds only the ground-truth [`Placement`] (positions, heights,
/// regions — three `Vec`s) plus the generator config and seed. Every
/// pair value comes from [`KingConfig::pair_rtt`], which draws the
/// route-distortion factor from the order-normalized per-pair stream
/// `stream_rng2(seed, min(a,b), max(a,b))` — so a `SynthRtt` is
/// **bit-identical** to the dense matrix `KingConfig::generate` would
/// materialize for the same `(config, seed)`, at any scale the dense
/// form could never reach.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthRtt {
    config: KingConfig,
    seed: u64,
    placement: Placement,
}

impl SynthRtt {
    /// Place nodes for `config` under `seed`; no pairwise state is built.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`KingConfig::place`]).
    pub fn new(config: KingConfig, seed: u64) -> Self {
        let placement = config.place(seed);
        Self {
            config,
            seed,
            placement,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &KingConfig {
        &self.config
    }

    /// The topology seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ground-truth placement (latent positions, heights, regions).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Deterministic estimate of the median pairwise base RTT from
    /// `samples` streamed pair draws (pure function of the seed; mirrors
    /// [`RttMatrix::median`]'s `total_cmp`-sort-and-middle convention).
    ///
    /// Degenerate shapes short-circuit instead of sampling: with fewer
    /// than two nodes there are no pairs and the median is 0 (matching
    /// [`RttMatrix::median`] on an empty triangle, and avoiding the
    /// modulo-by-zero / draw-forever loop rejection sampling would hit);
    /// with no more pairs than requested samples the full upper triangle
    /// is enumerated and the median is **exact** — rejection-sampling a
    /// population the size of the sample budget would just be a noisy,
    /// slower spelling of the same set.
    ///
    /// # Panics
    /// Panics if `samples` is 0.
    pub fn sampled_median(&self, samples: usize) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let n = self.placement.len();
        if n < 2 {
            return 0.0;
        }
        let pairs = n * (n - 1) / 2;
        if pairs <= samples {
            let mut all = Vec::with_capacity(pairs);
            for a in 0..n {
                for b in (a + 1)..n {
                    all.push(self.base_rtt(a, b));
                }
            }
            all.sort_by(f64::total_cmp);
            return all[all.len() / 2];
        }
        let n = n as u64;
        let mut rng = stream_rng(self.seed, streams::MEDI); // "MEDI"
        let mut drawn = Vec::with_capacity(samples);
        while drawn.len() < samples {
            let a = (rng.random::<u64>() % n) as usize;
            let b = (rng.random::<u64>() % n) as usize;
            if a == b {
                continue;
            }
            drawn.push(self.base_rtt(a, b));
        }
        drawn.sort_by(f64::total_cmp);
        drawn[drawn.len() / 2]
    }
}

impl RttSource for SynthRtt {
    fn node_count(&self) -> usize {
        self.placement.len()
    }

    fn base_rtt(&self, a: usize, b: usize) -> f64 {
        let n = self.placement.len();
        assert!(a < n && b < n, "node index out of range ({a}, {b}) for {n}");
        if a == b {
            return 0.0;
        }
        self.config.pair_rtt(self.seed, &self.placement, a, b)
    }
}

/// Pair-draw count for [`RttStore::median_base_rtt`] on streamed
/// sources: odd so the middle element is a true sample, large enough
/// that the estimate is stable to well under the factor-of-2 slack the
/// experiment thresholds carry.
const MEDIAN_SAMPLES: usize = 4095;

/// The base-RTT storage of a [`crate::Network`]: one closed enum over
/// the supported [`RttSource`] implementations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RttStore {
    /// A materialized pairwise matrix (O(n²) memory, exact queries).
    Dense(RttMatrix),
    /// A streamed King-model generator (O(n) memory, recompute-on-read).
    Synth(SynthRtt),
}

impl RttStore {
    /// The dense matrix, when this store has one. Streamed stores return
    /// `None` — callers needing whole-population statistics should use
    /// [`RttStore::median_base_rtt`] or iterate pairs via `base_rtt`.
    pub fn matrix(&self) -> Option<&RttMatrix> {
        match self {
            RttStore::Dense(m) => Some(m),
            RttStore::Synth(_) => None,
        }
    }

    /// Row `i` of the upper triangle, the base RTTs of `(i, i+1..n)` in
    /// column order: borrowed from a dense store, computed into `buf`
    /// for a streamed one.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn upper_row<'a>(&'a self, i: usize, buf: &'a mut Vec<f64>) -> &'a [f64] {
        match self {
            RttStore::Dense(m) => m.upper_row(i),
            RttStore::Synth(s) => {
                let n = s.node_count();
                assert!(i < n, "node index out of range");
                buf.clear();
                buf.extend((i + 1..n).map(|j| s.base_rtt(i, j)));
                buf
            }
        }
    }

    /// Median pairwise base RTT: exact (the packed-triangle median) for
    /// dense stores, a deterministic streamed-sample estimate for
    /// synthesized ones. Both follow the same `total_cmp` ordering
    /// convention, and both are pure functions of the store.
    pub fn median_base_rtt(&self) -> f64 {
        match self {
            RttStore::Dense(m) => m.median(),
            RttStore::Synth(s) => s.sampled_median(MEDIAN_SAMPLES),
        }
    }
}

impl RttSource for RttStore {
    fn node_count(&self) -> usize {
        match self {
            RttStore::Dense(m) => m.node_count(),
            RttStore::Synth(s) => s.node_count(),
        }
    }

    fn base_rtt(&self, a: usize, b: usize) -> f64 {
        match self {
            RttStore::Dense(m) => m.base_rtt(a, b),
            RttStore::Synth(s) => s.base_rtt(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_bit_identical_to_dense_generation() {
        let config = KingConfig::small(80);
        let seed = 1234;
        let topo = config.clone().generate(seed);
        let synth = SynthRtt::new(config, seed);
        assert_eq!(synth.placement().positions, topo.positions);
        assert_eq!(synth.placement().heights, topo.heights);
        assert_eq!(synth.placement().regions, topo.regions);
        for i in 0..80 {
            for j in (i + 1)..80 {
                assert_eq!(
                    synth.base_rtt(i, j).to_bits(),
                    topo.matrix.get(i, j).to_bits(),
                    "pair ({i}, {j}) diverged from the dense matrix"
                );
            }
        }
    }

    #[test]
    fn synth_matches_dense_generation_without_distortion() {
        // Undistorted configs skip the pair streams on both paths; a
        // bias with no spread keeps the streams but a zero σ.
        for (sigma, bias) in [(0.0, 0.0), (0.0, 0.08)] {
            let config = KingConfig {
                distortion_sigma: sigma,
                distortion_bias: bias,
                ..KingConfig::small(50)
            };
            let topo = config.clone().generate(77);
            let synth = SynthRtt::new(config, 77);
            for i in 0..50 {
                for j in (i + 1)..50 {
                    assert_eq!(
                        synth.base_rtt(i, j).to_bits(),
                        topo.matrix.get(i, j).to_bits(),
                        "σ {sigma}, bias {bias}: pair ({i}, {j}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_rows_agree_between_dense_and_streamed_stores() {
        let config = KingConfig::small(70);
        let dense = RttStore::Dense(config.clone().generate(5).matrix);
        let synth = RttStore::Synth(SynthRtt::new(config, 5));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..70 {
            let (da, sb) = (dense.upper_row(i, &mut a), synth.upper_row(i, &mut b));
            assert_eq!(da.len(), 70 - i - 1);
            for (k, (x, y)) in da.iter().zip(sb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}, column {}", i + 1 + k);
                assert_eq!(x.to_bits(), dense.base_rtt(i, i + 1 + k).to_bits());
            }
        }
    }

    #[test]
    fn synth_pairs_are_symmetric_positive_finite_and_seed_stable() {
        let synth = SynthRtt::new(KingConfig::small(64), 7);
        let again = SynthRtt::new(KingConfig::small(64), 7);
        let other = SynthRtt::new(KingConfig::small(64), 8);
        let mut differs = false;
        for a in 0..64 {
            assert_eq!(synth.base_rtt(a, a), 0.0);
            for b in 0..64 {
                if a == b {
                    continue;
                }
                let rtt = synth.base_rtt(a, b);
                assert!(rtt.is_finite() && rtt > 0.0, "({a},{b}) gave {rtt}");
                assert_eq!(rtt.to_bits(), synth.base_rtt(b, a).to_bits(), "asymmetric");
                assert_eq!(
                    rtt.to_bits(),
                    again.base_rtt(a, b).to_bits(),
                    "seed-unstable"
                );
                if rtt.to_bits() != other.base_rtt(a, b).to_bits() {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must give a different topology");
    }

    #[test]
    fn query_order_does_not_matter() {
        let synth = SynthRtt::new(KingConfig::small(32), 3);
        let forward: Vec<u64> = (0..32)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| synth.base_rtt(a, b).to_bits())
            .collect();
        let fresh = SynthRtt::new(KingConfig::small(32), 3);
        let backward: Vec<u64> = (0..32)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .rev()
            .map(|(a, b)| fresh.base_rtt(a, b).to_bits())
            .collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn sampled_median_tracks_exact_median() {
        let config = KingConfig::small(120);
        let topo = config.clone().generate(21);
        let synth = SynthRtt::new(config, 21);
        let exact = topo.matrix.median();
        let estimate = synth.sampled_median(MEDIAN_SAMPLES);
        assert_eq!(
            estimate,
            synth.sampled_median(MEDIAN_SAMPLES),
            "not deterministic"
        );
        assert!(
            (estimate - exact).abs() / exact < 0.25,
            "estimate {estimate} vs exact {exact}"
        );
    }

    /// Below the sample budget the estimate must *be* the exact dense
    /// median — the degenerate-network guard enumerates the triangle
    /// instead of rejection-sampling it.
    #[test]
    fn tiny_networks_get_the_exact_median() {
        for nodes in [2usize, 3, 8, 40] {
            let config = KingConfig::small(nodes);
            let topo = config.clone().generate(13);
            let synth = SynthRtt::new(config, 13);
            let pairs = nodes * (nodes - 1) / 2;
            assert!(pairs <= MEDIAN_SAMPLES, "test premise broken for n={nodes}");
            assert_eq!(
                synth.sampled_median(MEDIAN_SAMPLES).to_bits(),
                topo.matrix.median().to_bits(),
                "n={nodes} did not take the exact path"
            );
        }
    }

    /// The two-node network is the smallest constructible topology: one
    /// pair, whose RTT is its own median — and the old rejection loop's
    /// worst case (a 50% per-draw rejection rate; n=1 would never
    /// terminate at all).
    #[test]
    fn two_node_median_is_the_single_pair() {
        let synth = SynthRtt::new(KingConfig::small(2), 9);
        assert_eq!(
            synth.sampled_median(MEDIAN_SAMPLES).to_bits(),
            synth.base_rtt(0, 1).to_bits()
        );
        // Any sample budget gives the same exact answer down at this size.
        assert_eq!(
            synth.sampled_median(1).to_bits(),
            synth.base_rtt(0, 1).to_bits()
        );
    }

    /// Networks with more pairs than the budget keep using the MEDI
    /// sampling stream, byte-for-byte as before the guard.
    #[test]
    fn large_networks_still_sample() {
        let config = KingConfig::small(120); // 7140 pairs > 4095 samples
        let topo = config.clone().generate(21);
        let synth = SynthRtt::new(config, 21);
        let estimate = synth.sampled_median(MEDIAN_SAMPLES);
        assert_ne!(
            estimate.to_bits(),
            topo.matrix.median().to_bits(),
            "sampling path expected to differ from the exact median at n=120"
        );
    }

    #[test]
    fn store_dispatch_matches_underlying_sources() {
        let config = KingConfig::small(40);
        let topo = config.clone().generate(5);
        let dense = RttStore::Dense(topo.matrix.clone());
        let synth = RttStore::Synth(SynthRtt::new(config, 5));
        assert_eq!(dense.node_count(), 40);
        assert_eq!(synth.node_count(), 40);
        assert!(dense.matrix().is_some());
        assert!(synth.matrix().is_none());
        for a in 0..40 {
            for b in 0..40 {
                assert_eq!(
                    dense.base_rtt(a, b).to_bits(),
                    synth.base_rtt(a, b).to_bits()
                );
            }
        }
        assert_eq!(dense.median_base_rtt(), topo.matrix.median());
    }

    #[test]
    fn synth_store_survives_serde() {
        let store = RttStore::Synth(SynthRtt::new(KingConfig::small(16), 2));
        let json = serde_json::to_string(&store).expect("serialize");
        let back: RttStore = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(store, back);
    }
}
