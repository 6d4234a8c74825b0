//! Synthetic King-like topology generation.
//!
//! The King dataset the paper simulates on is a 1740×1740 RTT matrix
//! between Internet DNS servers. We reproduce its *structure* rather than
//! its numbers, because the detection model depends on the dynamics that
//! structure induces in the embedding:
//!
//! 1. **Regional clustering** — hosts group into continents; intra-region
//!    RTTs are tens of ms, inter-region RTTs are set by the region
//!    centers' separation in a latent plane (≈ real inter-continent RTTs).
//! 2. **Access-link heights** — every host pays a last-mile delay on each
//!    probe regardless of destination; drawn lognormal so a minority of
//!    hosts have large heights. This is the component Vivaldi's height
//!    vector exists to capture.
//! 3. **Route distortion** — real Internet routing is not shortest-path,
//!    producing triangle-inequality violations. A multiplicative
//!    lognormal factor per pair reproduces TIVs at King-like rates
//!    (roughly 5–10% of triples).

use crate::topology::RttMatrix;
use ices_stats::rng::{derive, derive2, stream_rng};
use ices_stats::sample::{self, PolarPoint, StdDev};
use ices_stats::streams;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Placement of regions in the latent delay plane.
///
/// Coordinates are in milliseconds: the planar distance between two
/// region centers is the nominal inter-region path delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionLayout {
    /// `(x_ms, y_ms, weight)` per region; weights set the share of nodes.
    pub regions: Vec<(f64, f64, f64)>,
}

impl RegionLayout {
    /// Five regions with separations approximating observed
    /// inter-continental RTTs (NA-East, NA-West, Europe, East Asia,
    /// South America).
    pub fn continental() -> Self {
        Self {
            regions: vec![
                (0.0, 0.0, 0.30),    // North America East
                (35.0, 25.0, 0.20),  // North America West
                (45.0, -75.0, 0.28), // Europe
                (150.0, 60.0, 0.15), // East Asia
                (65.0, 95.0, 0.07),  // South America
            ],
        }
    }

    /// Total of the region weights.
    pub fn total_weight(&self) -> f64 {
        self.regions.iter().map(|r| r.2).sum()
    }
}

/// Configuration of the synthetic King-like generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KingConfig {
    /// Number of nodes (the real King dataset has 1740).
    pub nodes: usize,
    /// Region placement.
    pub layout: RegionLayout,
    /// σ (ms) of the gaussian scatter of hosts around their region center.
    pub scatter_ms: f64,
    /// μ of the lognormal access-link height (ln-ms).
    pub height_mu: f64,
    /// σ of the lognormal access-link height.
    pub height_sigma: f64,
    /// σ of the multiplicative lognormal route distortion; 0 disables it
    /// (yielding a near-perfectly embeddable metric).
    pub distortion_sigma: f64,
    /// Characteristic magnitude of per-pair route distortion, in
    /// log-space. Each pair's distortion is `exp(±(bias + N(0, σ)))`
    /// with a random sign: real Internet paths always deviate from the
    /// metric optimum by *some* detour (routing-policy inflation), so
    /// residual unembeddability has a typical magnitude rather than
    /// piling up at zero. This is what gives the embedding's converged
    /// per-neighbor relative errors the bell shape (away from zero)
    /// observed in deployments.
    pub distortion_bias: f64,
    /// Minimum base RTT between distinct nodes, in ms.
    pub min_rtt_ms: f64,
}

impl Default for KingConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl KingConfig {
    /// The paper's simulation scale: 1740 nodes.
    pub fn paper_scale() -> Self {
        Self {
            nodes: 1740,
            layout: RegionLayout::continental(),
            scatter_ms: 18.0,
            height_mu: 1.0,    // median height e^1 ≈ 2.7 ms
            height_sigma: 0.8, // a tail of hosts with 15–40 ms access links
            distortion_sigma: 0.03,
            distortion_bias: 0.08,
            min_rtt_ms: 5.0,
        }
    }

    /// A smaller topology with identical structure, for tests and quick
    /// experiments.
    pub fn small(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::paper_scale()
        }
    }

    /// Draw the ground-truth node placement — latent positions, heights,
    /// regions — without materializing any pairwise state. O(n) memory.
    ///
    /// Deterministic in `seed`; bit-identical to the placement half of
    /// [`KingConfig::generate`] (it *is* that half, factored out so a
    /// streamed [`crate::SynthRtt`] source reproduces the same world).
    ///
    /// # Panics
    /// Panics if fewer than 2 nodes are requested or the layout is empty.
    pub fn place(&self, seed: u64) -> Placement {
        assert!(self.nodes >= 2, "need at least 2 nodes");
        assert!(
            !self.layout.regions.is_empty(),
            "layout needs at least one region"
        );
        let total_w = self.layout.total_weight();
        assert!(total_w > 0.0, "region weights must be positive");

        let mut place_rng = stream_rng(seed, streams::PLAC); // "PLAC"
        let mut regions = Vec::with_capacity(self.nodes);
        let mut positions = Vec::with_capacity(self.nodes);
        let mut heights = Vec::with_capacity(self.nodes);
        for _ in 0..self.nodes {
            // Weighted region choice.
            let mut target = sample::uniform(&mut place_rng, 0.0, total_w);
            let mut chosen = self.layout.regions.len() - 1;
            for (r, &(_, _, w)) in self.layout.regions.iter().enumerate() {
                if target < w {
                    chosen = r;
                    break;
                }
                target -= w;
            }
            let (cx, cy, _) = self.layout.regions[chosen];
            let x = sample::normal(&mut place_rng, cx, self.scatter_ms);
            let y = sample::normal(&mut place_rng, cy, self.scatter_ms);
            let h = sample::lognormal(&mut place_rng, self.height_mu, self.height_sigma);
            regions.push(chosen);
            positions.push((x, y));
            heights.push(h);
        }
        Placement {
            positions,
            heights,
            regions,
        }
    }

    /// Whether pairs carry a route-distortion factor at all; without
    /// one no pair stream is drawn.
    fn distorted(&self) -> bool {
        self.distortion_sigma > 0.0 || self.distortion_bias > 0.0
    }

    /// The draw half of [`KingConfig::pair_rtt`]: seeds the pair stream
    /// from `pair_seed` (`derive2(seed, lo, hi)`), then draws the
    /// detour's sign and the polar point of its magnitude. No libm call
    /// happens here, so a row of pairs can make all of its draws before
    /// any `pair_transform`. Undistorted configs draw nothing.
    #[inline]
    fn pair_draw(&self, pair_seed: u64) -> PairDraw {
        if !self.distorted() {
            return PairDraw::default();
        }
        let (mut pair_rng, mut draw) = Self::pair_attempt(pair_seed);
        if !draw.point.accepted() {
            draw.point = sample::polar_draw(&mut pair_rng);
        }
        draw
    }

    /// [`KingConfig::pair_draw`] up to its first polar attempt, which
    /// may be rejected, and the pair stream to go on from. Branch-free,
    /// so a row makes every pair's attempt in one pass and goes back
    /// only for the rejected ones.
    #[inline]
    fn pair_attempt(pair_seed: u64) -> (StdRng, PairDraw) {
        // Per-pair deterministic stream so the value does not depend
        // on evaluation order.
        let mut pair_rng = StdRng::seed_from_u64(pair_seed);
        let sign = if pair_rng.random::<f64>() < 0.5 {
            -1.0
        } else {
            1.0
        };
        let point = sample::polar_attempt(&mut pair_rng);
        (pair_rng, PairDraw { sign, point })
    }

    /// The transform half of [`KingConfig::pair_rtt`]: the route
    /// distortion `exp(±(bias + N(0, σ)))` from `draw`, the planar
    /// distance, the endpoint heights and the floor. It runs in four
    /// steps — `ln s`, the detour exponent, `exp`, then the routed RTT
    /// — which [`KingConfig::generate`] takes one pass at a time.
    ///
    /// # Panics
    /// Panics if `lo` or `hi` is out of the placement.
    #[inline]
    fn pair_transform(&self, placement: &Placement, lo: usize, hi: usize, draw: PairDraw) -> f64 {
        let distortion = if self.distorted() {
            let sigma = StdDev::new(self.distortion_sigma);
            draw.detour_exponent(draw.point.s.ln(), self.distortion_bias, sigma)
                .exp()
        } else {
            1.0
        };
        routed_rtt(
            (placement.positions[lo], placement.heights[lo]),
            (placement.positions[hi], placement.heights[hi]),
            distortion,
            self.min_rtt_ms,
        )
    }

    /// The base RTT between distinct nodes `a` and `b` under `placement`:
    /// the transform half of the pair's draws (`pair_transform` of
    /// `pair_draw`), the halves [`KingConfig::generate`] runs as
    /// separate passes over each row.
    ///
    /// A pure function of `(seed, min(a,b), max(a,b))` and the endpoint
    /// ground truth: the route-distortion draw comes from the
    /// order-normalized pair stream `stream_rng2(seed, lo, hi)`, so any
    /// evaluation order — dense matrix fill, on-demand streaming, either
    /// argument order — produces bit-identical values.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of the placement.
    pub fn pair_rtt(&self, seed: u64, placement: &Placement, a: usize, b: usize) -> f64 {
        assert_ne!(a, b, "pair_rtt needs two distinct nodes");
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(hi < placement.positions.len(), "node {hi} out of placement");
        let draw = self.pair_draw(derive2(seed, lo as u64, hi as u64));
        self.pair_transform(placement, lo, hi, draw)
    }

    /// Generate the node placements and the dense base-RTT matrix.
    ///
    /// Deterministic in `seed`. Returns the full [`Topology`] including
    /// ground-truth latent positions (useful for evaluating embeddings
    /// against truth, and for the k-means Surveyor placement which the
    /// paper runs on coordinates). O(n²) memory — for large n, stream
    /// pairs through [`crate::SynthRtt`] instead; both derive every pair
    /// through the draw and transform halves of
    /// [`KingConfig::pair_rtt`] and agree bit-for-bit.
    ///
    /// Each row of the upper triangle is filled in three passes: the
    /// pair seeds (the row key hoisted out), every pair's draws, then
    /// every pair's transform. The passes keep the integer hashing, the
    /// polar method's rejections and the `ln`/`exp` calls apart, so
    /// each runs as a tight loop of independent work: the draw pass
    /// makes every pair's first polar attempt without a branch and
    /// redraws only the rejected pairs, and the transform pass takes
    /// its steps one at a time over the row.
    ///
    /// # Panics
    /// Panics if fewer than 2 nodes are requested or the layout is empty.
    pub fn generate(&self, seed: u64) -> Topology {
        let placement = self.place(seed);
        let (positions, heights) = (&placement.positions, &placement.heights);
        // By value, so the passes below see loop constants.
        let (bias, floor) = (self.distortion_bias, self.min_rtt_ms);
        let mut seeds = Vec::with_capacity(self.nodes);
        let mut draws = Vec::with_capacity(self.nodes);
        let mut retry = Vec::with_capacity(self.nodes);
        let mut stretch = Vec::with_capacity(self.nodes);
        let matrix = RttMatrix::from_rows(self.nodes, |lo, upper| {
            // `derive2(seed, lo, hi)` with the row's half hoisted out.
            let row_key = derive(seed, lo as u64);
            seeds.clear();
            seeds.extend((lo + 1..self.nodes).map(|hi| derive(row_key, hi as u64)));
            stretch.clear();
            if self.distorted() {
                let sigma = StdDev::new(self.distortion_sigma);
                // Every pair's first polar attempt, then the rejected
                // ones (about a fifth) listed without a branch and drawn
                // again in full.
                draws.clear();
                draws.extend(seeds.iter().map(|&s| Self::pair_attempt(s).1));
                retry.resize(draws.len(), 0);
                let mut retries = 0;
                for (k, draw) in draws.iter().enumerate() {
                    retry[retries] = k;
                    retries += usize::from(!draw.point.accepted());
                }
                for &k in &retry[..retries] {
                    draws[k] = self.pair_draw(seeds[k]);
                }
                // The transform, one step per pass: every `ln`, then the
                // exponents, then every `exp`, then the routed RTTs.
                stretch.extend(draws.iter().map(|d| d.point.s.ln()));
                for (x, &draw) in stretch.iter_mut().zip(&draws) {
                    *x = draw.detour_exponent(*x, bias, sigma);
                }
                for x in &mut stretch {
                    *x = x.exp();
                }
            } else {
                stretch.resize(seeds.len(), 1.0);
            }
            let near = (positions[lo], heights[lo]);
            let later = positions[lo + 1..]
                .iter()
                .copied()
                .zip(heights[lo + 1..].iter().copied());
            upper.extend(
                later
                    .zip(&stretch)
                    .map(|(far, &distortion)| routed_rtt(near, far, distortion, floor)),
            );
        });
        Topology {
            matrix,
            positions: placement.positions,
            heights: placement.heights,
            regions: placement.regions,
        }
    }
}

/// The base RTT between two endpoints, each given as its latent position
/// and access height, whose planar path is stretched by `distortion`,
/// floored at `floor_ms`: the last step of `KingConfig::pair_transform`.
#[inline]
fn routed_rtt(
    ((xi, yi), h_lo): ((f64, f64), f64),
    ((xj, yj), h_hi): ((f64, f64), f64),
    distortion: f64,
    floor_ms: f64,
) -> f64 {
    let planar = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
    // Distortion models transit-path inflation, so it applies to the
    // planar (routed) component only; the access links are physical
    // constants of each endpoint.
    (planar * distortion + h_lo + h_hi).max(floor_ms)
}

/// The RNG draws of one pair's route distortion (`pair_draw`), kept
/// apart from the arithmetic that turns them into a base RTT
/// (`pair_transform`). Undistorted configs leave it at its default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PairDraw {
    /// The detour's direction: `-1.0` (a shortcut) or `1.0`.
    sign: f64,
    /// The accepted polar point of the detour magnitude's normal.
    point: PolarPoint,
}

impl PairDraw {
    /// The exponent `±(bias + N(0, σ))` of the pair's route distortion,
    /// given `ln s` of its polar point.
    #[inline]
    fn detour_exponent(self, ln_s: f64, bias: f64, sigma: StdDev) -> f64 {
        self.sign * (bias + sample::normal_from_ln(self.point, ln_s, 0.0, sigma))
    }
}

/// Ground-truth node placement without any pairwise state: the O(n) half
/// of a generated topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Latent planar positions (ms), per node.
    pub positions: Vec<(f64, f64)>,
    /// Access-link heights (ms), per node.
    pub heights: Vec<f64>,
    /// Region index, per node.
    pub regions: Vec<usize>,
}

impl Placement {
    /// Node count.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// A generated topology: the base-RTT matrix plus ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Pairwise base RTTs.
    pub matrix: RttMatrix,
    /// Latent planar positions (ms), per node.
    pub positions: Vec<(f64, f64)>,
    /// Access-link heights (ms), per node.
    pub heights: Vec<f64>,
    /// Region index, per node.
    pub regions: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::OnlineStats;

    fn small_topology() -> Topology {
        KingConfig::small(120).generate(42)
    }

    #[test]
    fn generates_requested_size() {
        let t = small_topology();
        assert_eq!(t.matrix.len(), 120);
        assert_eq!(t.positions.len(), 120);
        assert_eq!(t.heights.len(), 120);
        assert_eq!(t.regions.len(), 120);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = KingConfig::small(60).generate(7);
        let b = KingConfig::small(60).generate(7);
        assert_eq!(a, b);
        let c = KingConfig::small(60).generate(8);
        assert_ne!(a.matrix, c.matrix);
    }

    #[test]
    fn intra_region_shorter_than_inter_region() {
        let t = small_topology();
        let mut intra = OnlineStats::new();
        let mut inter = OnlineStats::new();
        for i in 0..t.matrix.len() {
            for j in (i + 1)..t.matrix.len() {
                if t.regions[i] == t.regions[j] {
                    intra.push(t.matrix.get(i, j));
                } else {
                    inter.push(t.matrix.get(i, j));
                }
            }
        }
        assert!(intra.count() > 0 && inter.count() > 0);
        assert!(
            intra.mean() * 2.0 < inter.mean(),
            "intra {} vs inter {}",
            intra.mean(),
            inter.mean()
        );
    }

    #[test]
    fn rtts_in_realistic_range() {
        let t = small_topology();
        let mut s = OnlineStats::new();
        for i in 0..t.matrix.len() {
            for j in (i + 1)..t.matrix.len() {
                s.push(t.matrix.get(i, j));
            }
        }
        assert!(s.min() >= 1.0, "min RTT {}", s.min());
        assert!(s.max() < 1000.0, "max RTT {}", s.max());
        // Median should be tens-to-hundreds of ms like real King data.
        assert!(s.mean() > 20.0 && s.mean() < 400.0, "mean {}", s.mean());
    }

    #[test]
    fn distortion_produces_king_like_tivs() {
        let t = small_topology();
        let f = t.matrix.tiv_fraction(0.0, 30_000);
        assert!(
            f > 0.01 && f < 0.25,
            "TIV fraction {f} out of the King-like band"
        );
    }

    #[test]
    fn no_distortion_means_almost_no_tivs() {
        let mut cfg = KingConfig::small(100);
        cfg.distortion_sigma = 0.0;
        cfg.distortion_bias = 0.0;
        let t = cfg.generate(11);
        let f = t.matrix.tiv_fraction(0.0, 30_000);
        // Heights only ever help the triangle inequality; the metric is
        // embeddable by construction.
        assert_eq!(f, 0.0, "TIV fraction {f}");
    }

    #[test]
    fn heights_are_positive_with_a_tail() {
        let t = small_topology();
        let mut s = OnlineStats::new();
        for &h in &t.heights {
            assert!(h > 0.0);
            s.push(h);
        }
        assert!(
            s.mean() > 1.0 && s.mean() < 15.0,
            "mean height {}",
            s.mean()
        );
        assert!(s.max() > 3.0 * s.mean(), "height tail missing");
    }

    #[test]
    fn paper_scale_config_is_1740_nodes() {
        assert_eq!(KingConfig::paper_scale().nodes, 1740);
    }
}
