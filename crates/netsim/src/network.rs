//! The measurable network: topology + stationary noise, seeded.
//!
//! A [`Network`] answers the single question every embedding protocol
//! asks: *what RTT do I measure to that node right now?* A probe takes
//! three operations:
//!
//! * **key** the pair once ([`Network::probe_key`]): base RTT, noise
//!   stream and link-fault stream, as plain values a driver caches;
//! * **gate** each logical probe through the attached fault plan
//!   ([`Network::link_fate`]; endpoint liveness is [`Network::node_up`]);
//! * **measure** it: the median of three noisy probes, one at a time
//!   ([`Network::smoothed`]) or a whole tick's at once
//!   ([`Network::smoothed_batch`]), bit-identical either way.
//!
//! Measurements are pure functions of `(seed, a, b, nonce)`: repeating a
//! probe with the same nonce reproduces the same value, and experiment
//! results never depend on the order in which nodes happen to probe.

use crate::faults::{link_key, FaultPlan, ProbeFate};
use crate::fluctuation::{FluctuationModel, NoiseDraw, NoiseProfile};
use crate::kinggen::{KingConfig, Topology};
use crate::planetlab::PlanetLab;
use crate::rtt::{RttSource, RttStore, SynthRtt};
use crate::topology::RttMatrix;
use ices_stats::rng::{derive, stream_rng};
use ices_stats::streams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A simulated network that serves noisy RTT measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    rtt: RttStore,
    profiles: Vec<NoiseProfile>,
    noise: FluctuationModel,
    seed: u64,
    faults: FaultPlan,
    cache: ProfileCache,
}

/// Pairwise combined-profile table, deduplicated by profile bit pattern.
///
/// Topologies assign nodes a handful of *distinct* profiles (clean vs
/// pathological), so instead of materializing `n²` pairs the table maps
/// each node to its profile equivalence class and precombines the
/// `k × k` class pairs. `pair(a, b)` is then two index lookups on the
/// hot probe path instead of a three-field `combine` per measurement.
#[derive(Debug, Default)]
struct ProfileTable {
    /// Node → index of its distinct profile.
    class: Vec<u32>,
    /// `combine` of every ordered class pair, row-major `k × k`.
    combined: Vec<NoiseProfile>,
    /// Number of distinct profiles (`k`).
    classes: usize,
}

/// Exact-bits profile identity: equivalence classes must never merge
/// profiles whose `combine` output could differ in any bit.
fn same_bits(a: &NoiseProfile, b: &NoiseProfile) -> bool {
    a.congestion_mult.to_bits() == b.congestion_mult.to_bits()
        && a.jitter_mult.to_bits() == b.jitter_mult.to_bits()
        && a.spike_mult.to_bits() == b.spike_mult.to_bits()
}

impl ProfileTable {
    fn build(profiles: &[NoiseProfile]) -> Self {
        let mut unique: Vec<NoiseProfile> = Vec::new();
        let mut class = Vec::with_capacity(profiles.len());
        for p in profiles {
            // Linear scan keeps determinism-critical code HashMap-free;
            // the distinct-profile count is tiny (2 in every generator).
            let idx = match unique.iter().position(|u| same_bits(u, p)) {
                Some(i) => i,
                None => {
                    unique.push(*p);
                    unique.len() - 1
                }
            };
            class.push(idx as u32);
        }
        let classes = unique.len();
        let mut combined = Vec::with_capacity(classes * classes);
        for a in &unique {
            for b in &unique {
                combined.push(a.combine(b));
            }
        }
        Self {
            class,
            combined,
            classes,
        }
    }

    /// The precombined profile for the ordered node pair `(a, b)` —
    /// bit-identical to `profiles[a].combine(&profiles[b])` because the
    /// class representatives carry the nodes' exact bit patterns.
    fn pair(&self, a: usize, b: usize) -> &NoiseProfile {
        &self.combined[self.class[a] as usize * self.classes + self.class[b] as usize]
    }
}

/// Lazily built [`ProfileTable`], wrapped so `Network` keeps its derived
/// semantics: the cache is a pure function of `profiles`, so it compares
/// equal to everything, clones cold, serializes as `null`, and
/// deserializes cold.
#[derive(Debug, Default)]
struct ProfileCache(OnceLock<ProfileTable>);

impl Clone for ProfileCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ProfileCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Serialize for ProfileCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for ProfileCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
}

impl Network {
    /// Build a network from explicit parts over a dense matrix.
    ///
    /// # Panics
    /// Panics if the profile count does not match the matrix size or the
    /// noise model is invalid.
    pub fn new(
        matrix: RttMatrix,
        profiles: Vec<NoiseProfile>,
        noise: FluctuationModel,
        seed: u64,
    ) -> Self {
        Self::with_source(RttStore::Dense(matrix), profiles, noise, seed)
    }

    /// Build a network from explicit parts over any base-RTT store.
    ///
    /// # Panics
    /// Panics if the profile count does not match the node count or the
    /// noise model is invalid.
    pub fn with_source(
        rtt: RttStore,
        profiles: Vec<NoiseProfile>,
        noise: FluctuationModel,
        seed: u64,
    ) -> Self {
        assert_eq!(
            profiles.len(),
            rtt.node_count(),
            "one noise profile per node required"
        );
        noise.validate();
        Self {
            rtt,
            profiles,
            noise,
            seed,
            faults: FaultPlan::default(),
            cache: ProfileCache::default(),
        }
    }

    /// Attach a fault plan. The default plan is empty (no faults): every
    /// node is up and every link gate lets its probe through.
    ///
    /// # Panics
    /// Panics if the plan is invalid (see [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        plan.validate();
        self.faults = plan;
    }

    /// The attached fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether `node` is up at driver time `tick` under the attached
    /// churn schedule. Always true with an empty plan.
    pub fn node_up(&self, node: usize, tick: u64) -> bool {
        self.faults.node_up(self.seed, node, tick)
    }

    /// A network over a materialized King-like topology with uniform
    /// clean profiles and King-grade measurement noise.
    ///
    /// The resulting network is **dense**: it takes the topology by
    /// value and moves (never copies) the packed RTT triangle — ~n²/2
    /// floats, 1.5M+ f64 at paper scale — so [`Network::matrix`] returns
    /// `Some`. For populations where O(n²) storage is impractical, use
    /// [`Network::from_king_streamed`], which serves bit-identical base
    /// RTTs from O(n) state.
    pub fn from_king(topology: Topology, seed: u64) -> Self {
        let n = topology.matrix.len();
        Self::new(
            topology.matrix,
            vec![NoiseProfile::clean(); n],
            FluctuationModel::king_default(),
            seed,
        )
    }

    /// A network over a **streamed** King-like topology: no matrix is
    /// materialized (so [`Network::matrix`] returns `None`); every pair's
    /// base RTT is recomputed on demand from the `(topology seed,
    /// min(a,b), max(a,b))` hash stream and is bit-identical to what
    /// [`Network::from_king`] would serve for the same config and seed.
    /// Memory is O(n), making million-node populations constructible.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`KingConfig::place`]).
    pub fn from_king_streamed(config: KingConfig, seed: u64) -> Self {
        Self::from_synth(SynthRtt::new(config, seed), seed)
    }

    /// A network over an already-placed streamed source (uniform clean
    /// profiles, King-grade noise). Use when the caller also needs the
    /// ground-truth placement — build the [`SynthRtt`] once, read its
    /// placement, then hand it over.
    pub fn from_synth(synth: SynthRtt, seed: u64) -> Self {
        let n = synth.node_count();
        Self::with_source(
            RttStore::Synth(synth),
            vec![NoiseProfile::clean(); n],
            FluctuationModel::king_default(),
            seed,
        )
    }

    /// A network over a generated PlanetLab deployment (per-node
    /// profiles, PlanetLab-grade noise). Always dense — the deployment
    /// generator's pathological-host draws are sequential, so there is no
    /// streamed equivalent — and takes the deployment by value so the
    /// O(n²) matrix is moved, not copied.
    pub fn from_planetlab(pl: PlanetLab, seed: u64) -> Self {
        Self::new(pl.topology.matrix, pl.profiles, pl.noise, seed)
    }

    /// A noiseless network over an arbitrary matrix (tests, baselines).
    pub fn noiseless(matrix: RttMatrix, seed: u64) -> Self {
        let n = matrix.len();
        Self::new(
            matrix,
            vec![NoiseProfile::clean(); n],
            FluctuationModel::noiseless(),
            seed,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rtt.node_count()
    }

    /// Always false (sources hold ≥ 2 nodes).
    pub fn is_empty(&self) -> bool {
        self.rtt.node_count() == 0
    }

    /// Nominal (fluctuation-free) RTT between two nodes, ms.
    pub fn base_rtt(&self, a: usize, b: usize) -> f64 {
        self.rtt.base_rtt(a, b)
    }

    /// The dense base matrix, when this network has one. Streamed
    /// networks (built via [`Network::from_king_streamed`]) return
    /// `None`: there is no O(n²) matrix to hand out. Code that only
    /// needs a population-scale statistic should use
    /// [`Network::median_base_rtt`], which works for every source.
    pub fn matrix(&self) -> Option<&RttMatrix> {
        self.rtt.matrix()
    }

    /// The base-RTT store.
    pub fn rtt_store(&self) -> &RttStore {
        &self.rtt
    }

    /// Median pairwise base RTT: exact for dense networks, a
    /// deterministic streamed-sample estimate for generator-backed ones.
    /// This is the source-agnostic replacement for
    /// `network.matrix().median()`.
    pub fn median_base_rtt(&self) -> f64 {
        self.rtt.median_base_rtt()
    }

    /// The setup of the probe pair `(a, b)` as plain values: base RTT,
    /// noise stream key and link-fault key. A simulation driver keeps
    /// one beside each neighbour id, so a step's probe skips the
    /// base-RTT store read and the key hashes. The key is symmetric in
    /// direction and depends on the seed, the topology and the pair
    /// only; attaching a fault plan never makes it stale.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn probe_key(&self, a: usize, b: usize) -> ProbeKey {
        assert!(a != b, "a node cannot probe itself");
        self.probe_key_with_base(a, b, self.rtt.base_rtt(a, b))
    }

    /// [`Network::probe_key`] with a base RTT the caller already holds
    /// (neighbour selection has every candidate's). `base` must be
    /// exactly [`Network::base_rtt`]`(a, b)`; debug builds check it.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn probe_key_with_base(&self, a: usize, b: usize, base: f64) -> ProbeKey {
        assert!(a != b, "a node cannot probe itself");
        debug_assert_eq!(
            base.to_bits(),
            self.rtt.base_rtt(a, b).to_bits(),
            "base RTT of ({a}, {b}) is stale"
        );
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let pair_key = derive((lo as u64) << 32 | hi as u64, streams::PROB); // "PROB"
        ProbeKey {
            base,
            noise_key: derive(self.seed, pair_key),
            link_key: link_key(self.seed, lo, hi),
        }
    }

    /// Fill `up` with every node's liveness at simulation tick `tick` — one
    /// churn draw per node, so a tick's probes test liveness by index
    /// instead of re-hashing both endpoints per probe.
    pub fn fill_up_mask(&self, tick: u64, up: &mut Vec<bool>) {
        up.clear();
        up.extend((0..self.len()).map(|node| self.node_up(node, tick)));
    }

    /// The combined noise profile of a probe between `a` and `b`, from
    /// the lazily built pairwise table. Bit-identical to computing
    /// `profiles[a].combine(&profiles[b])` on every probe.
    fn combined_profile(&self, a: usize, b: usize) -> &NoiseProfile {
        self.cache
            .0
            .get_or_init(|| ProfileTable::build(&self.profiles))
            .pair(a, b)
    }

    /// The node's noise profile.
    pub fn profile(&self, node: usize) -> &NoiseProfile {
        &self.profiles[node]
    }

    /// The link-fault gate of the logical probe at `nonce` over the pair
    /// keyed by `key`: `None` when it gets through, else `Lost` or
    /// `TimedOut`. The plan's loss/timeout draw is a pure function of the
    /// key and the nonce, on a stream disjoint from measurement noise,
    /// so a caller settles a probe's fate before measuring it and faults
    /// never perturb the measurements that do get through. Endpoint
    /// liveness is the caller's to check ([`Network::node_up`],
    /// [`Network::fill_up_mask`]). Always `None` on an empty plan.
    pub fn link_fate(&self, key: &ProbeKey, nonce: u64) -> Option<ProbeFate> {
        self.faults.link_fate(key.link_key, nonce)
    }

    /// Measure the RTT from `a` to `b`, keyed by `key`, as deployed
    /// coordinate systems do: the **median of three back-to-back
    /// probes**. Probe smoothing is universal in practice (the King
    /// method takes the best of repeated queries; Vivaldi implementations
    /// filter per-neighbor RTTs), and it is what keeps a single
    /// OS-scheduling spike from polluting an embedding step.
    ///
    /// The nonce makes repeated probes between the same pair independent;
    /// the same `(a, b, nonce)`, in either direction, always reproduces
    /// the same value. The exchange consumes nonces `3·nonce .. 3·nonce+3`
    /// of the pair's noise stream and is gated as one logical probe by
    /// [`Network::link_fate`] at `nonce`. Debug builds check `key`
    /// against a fresh [`Network::probe_key`].
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn smoothed(&self, a: usize, b: usize, key: &ProbeKey, nonce: u64) -> f64 {
        assert!(a != b, "a node cannot probe itself");
        debug_assert_eq!(
            *key,
            self.probe_key(a, b),
            "cached probe key of ({a}, {b}) is stale"
        );
        let profile = self.combined_profile(a, b);
        let [p0, p1, p2] = smoothed_nonces(nonce).map(|nonce| {
            let mut rng = stream_rng(key.noise_key, nonce);
            self.noise.measure(key.base, profile, &mut rng)
        });
        median3(p0, p1, p2)
    }

    /// Every request's smoothed probe, into `out` (cleared first):
    /// `out[i]` is bit for bit `self.smoothed(r.a, r.b, &r.key, r.nonce)`
    /// for `r = requests[i]`.
    ///
    /// The batch runs in three flat passes over `buffers`: seed all
    /// `3 · len` noise streams, make every stream's draws
    /// ([`FluctuationModel::draw`]), then transform them and take each
    /// median of three ([`FluctuationModel::transform`]). Each pass is a
    /// loop of independent iterations, so the hashes, the draws' data
    /// dependencies and the libm calls of different probes overlap
    /// instead of running back to back per probe. Debug builds check
    /// every key against a fresh [`Network::probe_key`].
    ///
    /// # Panics
    /// Panics if a request probes a node from itself or an index is out
    /// of range.
    pub fn smoothed_batch(
        &self,
        requests: &[ProbeRequest],
        buffers: &mut ProbeBatch,
        out: &mut Vec<f64>,
    ) {
        let ProbeBatch {
            rngs,
            profiles,
            draws,
        } = buffers;
        rngs.clear();
        profiles.clear();
        for r in requests {
            assert!(r.a != r.b, "a node cannot probe itself");
            debug_assert_eq!(
                r.key,
                self.probe_key(r.a, r.b),
                "cached probe key of ({}, {}) is stale",
                r.a,
                r.b
            );
            profiles.push(*self.combined_profile(r.a, r.b));
            rngs.extend(
                smoothed_nonces(r.nonce)
                    .map(|nonce| StdRng::seed_from_u64(derive(r.key.noise_key, nonce))),
            );
        }
        draws.clear();
        for (profile, triple) in profiles.iter().zip(rngs.as_chunks_mut::<3>().0) {
            draws.extend(triple.iter_mut().map(|rng| self.noise.draw(profile, rng)));
        }
        out.clear();
        out.extend(
            requests
                .iter()
                .zip(profiles.iter())
                .zip(draws.as_chunks::<3>().0)
                .map(|((r, profile), [d0, d1, d2])| {
                    let probe = |draw| self.noise.transform(r.key.base, profile, draw);
                    median3(probe(d0), probe(d1), probe(d2))
                }),
        );
    }
}

/// The per-pair setup of a probe, as plain `Copy` values (see
/// [`Network::probe_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeKey {
    base: f64,
    /// `derive(seed, pair_key)`: the pair's measurement-noise stream.
    noise_key: u64,
    /// The pair's link-fault stream, computed whatever the fault plan.
    link_key: u64,
}

/// One request of [`Network::smoothed_batch`]: the smoothed probe of
/// `(a, b)` at `nonce`, from the pair's cached [`ProbeKey`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRequest {
    /// The probing node.
    pub a: usize,
    /// The probed node.
    pub b: usize,
    /// The pair's [`Network::probe_key`].
    pub key: ProbeKey,
    /// The logical probe's nonce (see [`Network::smoothed`]).
    pub nonce: u64,
}

/// The caller-owned buffers of [`Network::smoothed_batch`], one per
/// pass, kept across calls so a steady-state batch allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    /// Three seeded noise streams per request.
    rngs: Vec<StdRng>,
    /// Each request's combined endpoint profile.
    profiles: Vec<NoiseProfile>,
    /// Each stream's draws.
    draws: Vec<NoiseDraw>,
}

/// The probe-stream nonces `3·nonce .. 3·nonce+3` of the smoothed probe
/// at `nonce`.
fn smoothed_nonces(nonce: u64) -> [u64; 3] {
    let first = nonce.wrapping_mul(3);
    [first, first.wrapping_add(1), first.wrapping_add(2)]
}

/// The median of three values under [`f64::total_cmp`] — the middle
/// element of the three sorted, bit for bit.
fn median3(a: f64, b: f64, c: f64) -> f64 {
    let (lo, hi) = if a.total_cmp(&b).is_le() {
        (a, b)
    } else {
        (b, a)
    };
    if c.total_cmp(&hi).is_ge() {
        hi
    } else if c.total_cmp(&lo).is_le() {
        lo
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ChurnModel;
    use crate::kinggen::KingConfig;
    use crate::planetlab::PlanetLabConfig;
    use ices_stats::OnlineStats;

    fn network() -> Network {
        let topo = KingConfig::small(40).generate(9);
        Network::from_king(topo, 9)
    }

    /// The smoothed probe of `(a, b)` at `nonce` under a fresh key.
    fn probe(net: &Network, a: usize, b: usize, nonce: u64) -> f64 {
        net.smoothed(a, b, &net.probe_key(a, b), nonce)
    }

    #[test]
    fn measurement_is_deterministic_per_nonce() {
        let net = network();
        assert_eq!(probe(&net, 3, 17, 5), probe(&net, 3, 17, 5));
        assert_ne!(probe(&net, 3, 17, 5), probe(&net, 3, 17, 6));
    }

    #[test]
    fn measurement_symmetric_in_direction() {
        let net = network();
        assert_eq!(net.probe_key(3, 17), net.probe_key(17, 3));
        assert_eq!(probe(&net, 3, 17, 5), probe(&net, 17, 3, 5));
    }

    #[test]
    fn measurements_track_base_rtt() {
        let net = network();
        let base = net.base_rtt(1, 2);
        let mut s = OnlineStats::new();
        for nonce in 0..5000 {
            s.push(probe(&net, 1, 2, nonce));
        }
        assert!(
            (s.mean() - base).abs() / base < 0.05,
            "mean {} vs base {base}",
            s.mean()
        );
    }

    #[test]
    fn noiseless_network_returns_base() {
        let topo = KingConfig::small(10).generate(4);
        let net = Network::noiseless(topo.matrix.clone(), 4);
        for nonce in 0..10 {
            assert_eq!(probe(&net, 0, 5, nonce), net.base_rtt(0, 5));
        }
    }

    #[test]
    fn planetlab_network_uses_profiles() {
        let pl = PlanetLabConfig::small(50).generate(2);
        let net = Network::from_planetlab(pl.clone(), 2);
        let p = pl.pathological[0];
        let normal = (0..50)
            .find(|&i| !pl.pathological.contains(&i))
            .expect("normal node");
        let partner = (0..50)
            .find(|&i| i != p && i != normal && !pl.pathological.contains(&i))
            .expect("partner");

        let mut s_path = OnlineStats::new();
        let mut s_norm = OnlineStats::new();
        for nonce in 0..4000 {
            let b = net.base_rtt(p, partner);
            s_path.push((probe(&net, p, partner, nonce) - b) / b);
            let b = net.base_rtt(normal, partner);
            s_norm.push((probe(&net, normal, partner, nonce) - b) / b);
        }
        assert!(
            s_path.variance() > 2.0 * s_norm.variance(),
            "pathological rel-var {} vs normal {}",
            s_path.variance(),
            s_norm.variance()
        );
    }

    #[test]
    fn smoothed_probe_suppresses_spikes() {
        // With a spiky model, the median-of-3 variance must be well below
        // the single-probe variance.
        let pl = PlanetLabConfig::small(40).generate(8);
        let mut noisy = pl.noise;
        noisy.spike_probability = 0.05;
        let net = Network::new(
            pl.topology.matrix.clone(),
            vec![crate::fluctuation::NoiseProfile::clean(); 40],
            noisy,
            8,
        );
        let mut raw = OnlineStats::new();
        let mut smoothed = OnlineStats::new();
        for nonce in 0..4000 {
            raw.push(reference_probe(&net, 0, 1, nonce + 100_000));
            smoothed.push(probe(&net, 0, 1, nonce));
        }
        assert!(
            smoothed.variance() < raw.variance() / 2.0,
            "smoothed var {} vs raw var {}",
            smoothed.variance(),
            raw.variance()
        );
    }

    /// Test-local reference for one probe, from the primitives alone:
    /// the pair's `PROB` stream keyed by `(seed, pair, nonce)` and the
    /// directly combined endpoint profiles.
    fn reference_probe(net: &Network, a: usize, b: usize, nonce: u64) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let pair_key = derive((lo as u64) << 32 | hi as u64, streams::PROB);
        let mut rng = ices_stats::rng::stream_rng2(net.seed, pair_key, nonce);
        let profile = net.profiles[a].combine(&net.profiles[b]);
        net.noise.measure(net.base_rtt(a, b), &profile, &mut rng)
    }

    /// Test-local reference for the smoothed probe: three reference
    /// probes, sorted, the middle one taken.
    fn reference_smoothed(net: &Network, a: usize, b: usize, nonce: u64) -> f64 {
        let first = nonce.wrapping_mul(3);
        let mut probes = [
            reference_probe(net, a, b, first),
            reference_probe(net, a, b, first.wrapping_add(1)),
            reference_probe(net, a, b, first.wrapping_add(2)),
        ];
        probes.sort_by(f64::total_cmp);
        probes[1]
    }

    /// Test-local reference for the faulty smoothed probe: a down
    /// endpoint fails it, then one `FALT` draw keyed by `(seed, pair,
    /// nonce)` decides loss or timeout.
    fn reference_try_smoothed(
        net: &Network,
        a: usize,
        b: usize,
        nonce: u64,
        tick: u64,
    ) -> Result<u64, ProbeFate> {
        if !net.node_up(a, tick) || !net.node_up(b, tick) {
            return Err(ProbeFate::PeerDown);
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let pair_key = derive((lo as u64) << 32 | hi as u64, streams::FALT);
        let h = ices_stats::rng::derive2(derive(net.seed, streams::FALT), pair_key, nonce);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let link = net.fault_plan().link;
        if u < link.loss_probability {
            Err(ProbeFate::Lost)
        } else if u < link.loss_probability + link.timeout_probability {
            Err(ProbeFate::TimedOut)
        } else {
            Ok(reference_smoothed(net, a, b, nonce).to_bits())
        }
    }

    /// A PlanetLab network whose pathological hosts spike on most
    /// probes, so the median-of-3 sees heavy-tailed outliers.
    fn spiky_planetlab(n: usize, seed: u64) -> Network {
        let pl = PlanetLabConfig::small(n).generate(seed);
        assert!(!pl.pathological.is_empty(), "need pathological hosts");
        let mut noise = pl.noise;
        noise.spike_probability = 0.05;
        Network::new(pl.topology.matrix, pl.profiles, noise, seed)
    }

    /// Deterministic spread of `(a, b, nonce)` triples over `n` nodes.
    fn probe_cases(n: usize, count: u64) -> impl Iterator<Item = (usize, usize, u64)> {
        (0..count).filter_map(move |k| {
            let h = derive(k, 0x7E57);
            let a = (h % n as u64) as usize;
            let b = ((h >> 20) % n as u64) as usize;
            (a != b).then_some((a, b, h >> 40))
        })
    }

    /// Keying with a held base RTT gives the fresh key, the smoothed
    /// probe is the reference median of three, and an empty plan lets
    /// every probe through.
    #[test]
    fn probe_path_matches_reference_bitwise() {
        for net in [network(), spiky_planetlab(60, 5)] {
            for (a, b, nonce) in probe_cases(net.len(), 3000) {
                let key = net.probe_key_with_base(a, b, net.base_rtt(a, b));
                assert_eq!(key, net.probe_key(a, b));
                assert_eq!(
                    net.smoothed(a, b, &key, nonce).to_bits(),
                    reference_smoothed(&net, a, b, nonce).to_bits(),
                    "smoothed probe ({a}, {b}, {nonce})"
                );
                assert_eq!(net.link_fate(&key, nonce), None);
            }
        }
    }

    /// The three networks the batched probe is checked on: King noise,
    /// PlanetLab noise with frequent Pareto spikes, and no noise at all
    /// (no draws). Built once: every case reads them.
    fn batch_networks() -> &'static [Network; 3] {
        static NETS: OnceLock<[Network; 3]> = OnceLock::new();
        NETS.get_or_init(|| {
            let topo = KingConfig::small(40).generate(9);
            let noiseless = Network::noiseless(topo.matrix.clone(), 9);
            [
                Network::from_king(topo, 9),
                spiky_planetlab(60, 5),
                noiseless,
            ]
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A batch of random requests — repeats of a whole request and
        /// of a pair under a fresh nonce included — measures bit for bit
        /// what the one-off smoothed probe of each request does, on
        /// every noise model, with one set of buffers reused throughout.
        #[test]
        fn smoothed_batch_matches_one_off_probes(
            picks in proptest::collection::vec((0usize..1 << 20, 0u64..u64::MAX, 0u8..8), 0..48),
        ) {
            let mut buffers = ProbeBatch::default();
            let mut out = vec![f64::NAN; 3];
            for net in batch_networks() {
                let n = net.len();
                let mut requests: Vec<ProbeRequest> = Vec::new();
                for &(pair, nonce, shape) in &picks {
                    let request = match (shape, requests.last()) {
                        (0, Some(&last)) => last,
                        (1, Some(&last)) => ProbeRequest { nonce, ..last },
                        _ => {
                            let a = pair % n;
                            let b = (a + 1 + (pair >> 10) % (n - 1)) % n;
                            ProbeRequest { a, b, key: net.probe_key(a, b), nonce }
                        }
                    };
                    requests.push(request);
                }
                net.smoothed_batch(&requests, &mut buffers, &mut out);
                proptest::prop_assert_eq!(out.len(), requests.len());
                for (r, &rtt) in requests.iter().zip(&out) {
                    proptest::prop_assert_eq!(
                        rtt.to_bits(),
                        net.smoothed(r.a, r.b, &r.key, r.nonce).to_bits(),
                        "request {:?}",
                        r
                    );
                }
            }
        }
    }

    #[test]
    fn smoothed_batch_of_nothing_is_empty() {
        let mut buffers = ProbeBatch::default();
        let mut out = vec![1.0, 2.0];
        for net in batch_networks() {
            net.smoothed_batch(&[], &mut buffers, &mut out);
            assert!(out.is_empty());
        }
    }

    /// The simulation drivers' shape — liveness from the tick's mask,
    /// then the link gate on the cached key, then the smoothed probe —
    /// decides and measures every probe as the reference does.
    #[test]
    fn faulty_probe_path_matches_reference_bitwise() {
        let plan = FaultPlan::lossy(0.1, 0.025)
            .with_churn(ChurnModel::new(16, 0.05))
            .with_node_churn(3, ChurnModel::new(8, 0.5));
        let (mut ok, mut lost, mut timed_out, mut down) = (0, 0, 0, 0);
        for mut net in [network(), spiky_planetlab(60, 5)] {
            net.set_fault_plan(plan.clone());
            let mut up = Vec::new();
            for (a, b, nonce) in probe_cases(net.len(), 3000) {
                let tick = nonce % 97;
                let expected = reference_try_smoothed(&net, a, b, nonce, tick);
                match expected {
                    Ok(_) => ok += 1,
                    Err(ProbeFate::Lost) => lost += 1,
                    Err(ProbeFate::TimedOut) => timed_out += 1,
                    Err(ProbeFate::PeerDown) => down += 1,
                }
                net.fill_up_mask(tick, &mut up);
                let key = net.probe_key(a, b);
                let driven = if !(up[a] && up[b]) {
                    Err(ProbeFate::PeerDown)
                } else if let Some(fate) = net.link_fate(&key, nonce) {
                    Err(fate)
                } else {
                    Ok(net.smoothed(a, b, &key, nonce).to_bits())
                };
                assert_eq!(
                    driven, expected,
                    "mask + link gate ({a}, {b}, {nonce}, {tick})"
                );
            }
        }
        assert!(
            ok > 1000 && lost > 100 && timed_out > 50 && down > 100,
            "{ok} ok, {lost} lost, {timed_out} timed out, {down} down"
        );
    }

    /// A cached key stays valid whatever plan is attached, before or
    /// after the key was taken: it never encodes the plan.
    #[test]
    fn probe_keys_do_not_depend_on_the_fault_plan() {
        let plan = FaultPlan::lossy(0.1, 0.025).with_churn(ChurnModel::new(16, 0.05));
        let mut net = network();
        let cases: Vec<_> = probe_cases(net.len(), 500).collect();
        let keys: Vec<ProbeKey> = cases.iter().map(|&(a, b, _)| net.probe_key(a, b)).collect();
        net.set_fault_plan(plan.clone());
        let mut planned_first = network();
        planned_first.set_fault_plan(plan);
        for (&(a, b, nonce), &key) in cases.iter().zip(&keys) {
            assert_eq!(
                key,
                net.probe_key(a, b),
                "plan set after the key ({a}, {b})"
            );
            assert_eq!(
                key,
                planned_first.probe_key(a, b),
                "plan set first ({a}, {b})"
            );
            assert_eq!(
                net.link_fate(&key, nonce),
                planned_first.link_fate(&key, nonce)
            );
        }
    }

    #[test]
    fn up_mask_matches_node_up() {
        let mut net = network();
        net.set_fault_plan(FaultPlan::none().with_churn(ChurnModel::new(4, 0.3)));
        let mut up = Vec::new();
        for tick in 0..40 {
            net.fill_up_mask(tick, &mut up);
            assert_eq!(up.len(), net.len());
            for (node, &is_up) in up.iter().enumerate() {
                assert_eq!(is_up, net.node_up(node, tick));
            }
        }
    }

    #[test]
    fn median3_is_the_sorted_middle() {
        let values = [1.0, 2.0, 2.0, 3.0, f64::INFINITY, 0.5];
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    let mut sorted = [a, b, c];
                    sorted.sort_by(f64::total_cmp);
                    assert_eq!(
                        median3(a, b, c).to_bits(),
                        sorted[1].to_bits(),
                        "{a} {b} {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn completed_faulty_probes_match_clean_measurements() {
        let mut net = network();
        net.set_fault_plan(FaultPlan::lossy(0.3, 0.1));
        let clean = network();
        let key = net.probe_key(2, 9);
        let mut completed = 0;
        for nonce in 0..200 {
            if net.link_fate(&key, nonce).is_none() {
                assert_eq!(net.smoothed(2, 9, &key, nonce), probe(&clean, 2, 9, nonce));
                completed += 1;
            }
        }
        assert!(
            completed > 80,
            "~60% of probes should complete: {completed}"
        );
    }

    #[test]
    fn combined_profile_table_matches_direct_combine() {
        let pl = PlanetLabConfig::small(50).generate(2);
        let net = Network::from_planetlab(pl, 2);
        for a in 0..net.len() {
            for b in 0..net.len() {
                if a == b {
                    continue;
                }
                let direct = net.profiles[a].combine(&net.profiles[b]);
                let cached = net.combined_profile(a, b);
                assert!(
                    same_bits(&direct, cached),
                    "pair ({a}, {b}): {direct:?} vs {cached:?}"
                );
            }
        }
    }

    #[test]
    fn profile_cache_is_invisible_to_clone_and_eq() {
        let net = network();
        // Warm the cache on one side only; equality and measurements
        // must not notice.
        let warm = net.clone();
        probe(&warm, 3, 17, 5);
        assert_eq!(net, warm);
        assert_eq!(probe(&net, 3, 17, 5), probe(&warm, 3, 17, 5));
    }

    #[test]
    fn fault_plan_survives_serde() {
        let mut net = network();
        net.set_fault_plan(FaultPlan::lossy(0.1, 0.0));
        let json = serde_json::to_string(&net).expect("serialize");
        let back: Network = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(net, back);
    }

    #[test]
    fn streamed_network_matches_dense_king_bitwise() {
        let config = KingConfig::small(40);
        let dense = Network::from_king(config.clone().generate(9), 9);
        let streamed = Network::from_king_streamed(config, 9);
        assert!(dense.matrix().is_some());
        assert!(
            streamed.matrix().is_none(),
            "no O(n²) state in a streamed net"
        );
        assert_eq!(streamed.len(), 40);
        for nonce in 0..16 {
            assert_eq!(
                probe(&dense, 17, 3, nonce).to_bits(),
                probe(&streamed, 17, 3, nonce).to_bits(),
                "noisy measurements must agree bit-for-bit"
            );
        }
        for a in 0..40 {
            for b in 0..40 {
                if a != b {
                    assert_eq!(
                        dense.base_rtt(a, b).to_bits(),
                        streamed.base_rtt(a, b).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_network_faults_and_serde_work_without_a_matrix() {
        let mut net = Network::from_king_streamed(KingConfig::small(30), 4);
        net.set_fault_plan(FaultPlan::lossy(0.2, 0.05));
        let key = net.probe_key(1, 2);
        let completed = (0..100)
            .filter(|&nonce| net.link_fate(&key, nonce).is_none())
            .count();
        assert!(
            completed > 40 && completed < 100,
            "faults gate probes: {completed}"
        );
        let json = serde_json::to_string(&net).expect("serialize");
        let back: Network = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(net, back);
        assert_eq!(probe(&net, 1, 2, 7), probe(&back, 1, 2, 7));
    }

    #[test]
    fn median_base_rtt_is_exact_on_dense_networks() {
        let topo = KingConfig::small(40).generate(9);
        let expected = topo.matrix.median();
        let net = Network::from_king(topo, 9);
        assert_eq!(net.median_base_rtt(), expected);
    }

    #[test]
    fn streamed_median_estimate_tracks_dense_median() {
        let config = KingConfig::small(120);
        let dense = Network::from_king(config.clone().generate(6), 6);
        let streamed = Network::from_king_streamed(config, 6);
        let exact = dense.median_base_rtt();
        let estimate = streamed.median_base_rtt();
        assert!(
            (estimate - exact).abs() / exact < 0.25,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot probe itself")]
    fn rejects_self_probe() {
        let net = network();
        net.smoothed(4, 4, &net.probe_key(4, 5), 0);
    }

    #[test]
    #[should_panic(expected = "one noise profile per node")]
    fn rejects_profile_count_mismatch() {
        let topo = KingConfig::small(10).generate(1);
        Network::new(
            topo.matrix,
            vec![NoiseProfile::clean(); 9],
            FluctuationModel::king_default(),
            1,
        );
    }
}
