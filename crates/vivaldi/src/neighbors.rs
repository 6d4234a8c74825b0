//! Neighbor-set selection.
//!
//! The paper's Vivaldi experiments give each node 64 neighbors, 32 of
//! which are chosen to be closer than 50 ms (Dabek et al. showed that
//! mixing close and far neighbors avoids the "folded" configurations
//! pure-random or pure-close sets produce).

use crate::config::VivaldiConfig;
use ices_stats::sample::sample_indices;
use rand::Rng;

/// Choose a node's neighbor set from candidate RTTs.
///
/// `rtts` holds `(peer id, base RTT ms)` for every candidate peer (self
/// excluded by the caller). Up to `config.close_neighbors` are drawn at
/// random from the peers under `config.close_threshold_ms`; the rest of
/// the budget is drawn at random from the remaining peers. If there are
/// not enough close peers the budget shifts to far ones (and vice versa),
/// matching how a deployment behaves in sparse regions.
///
/// Returns peer ids, deduplicated; fewer than `config.neighbors` when the
/// candidate set itself is smaller.
pub fn select_neighbors<R: Rng + ?Sized>(
    rtts: &[(usize, f64)],
    config: &VivaldiConfig,
    rng: &mut R,
) -> Vec<usize> {
    let mut close = Vec::with_capacity(rtts.len());
    let mut far = Vec::with_capacity(rtts.len());
    for &(id, rtt) in rtts {
        if rtt < config.close_threshold_ms {
            close.push(id);
        } else if rtt >= config.close_threshold_ms {
            far.push(id);
        }
    }
    select_from_pools(&close, &far, config, rng)
}

/// [`select_neighbors`] over candidates already split into close and
/// far pools, each in the order the candidates came in.
fn select_from_pools<R: Rng + ?Sized>(
    close: &[usize],
    far: &[usize],
    config: &VivaldiConfig,
    rng: &mut R,
) -> Vec<usize> {
    let total_budget = config.neighbors.min(close.len() + far.len());
    let close_take = config.close_neighbors.min(close.len());
    // Whatever the close pool could not supply shifts to the far pool.
    let far_take = (total_budget - close_take).min(far.len());
    // And if the far pool is short too, backfill from the close pool.
    let close_take = (total_budget - far_take).min(close.len());

    let mut chosen = Vec::with_capacity(close_take + far_take);
    for i in sample_indices(rng, close.len(), close_take) {
        chosen.push(close[i]);
    }
    for i in sample_indices(rng, far.len(), far_take) {
        chosen.push(far[i]);
    }
    chosen
}

/// Every node's close peers (base RTT under the close threshold) over a
/// whole population, as one bitmap row per node.
///
/// Filled from the upper triangle of the base-RTT matrix one row at a
/// time, in row-major order, so the store is read once and in order.
/// Node `i`'s bitmap is complete once rows `0..=i` are in: row `i`
/// holds its pairs with later nodes, and each earlier row sets its bit
/// in node `i`'s bitmap. A node's close pool is the set bits of its
/// bitmap and its far pool the clear bits other than itself, both in
/// ascending id order: the pools [`select_neighbors`] splits from a
/// full candidate scan.
#[derive(Debug, Clone)]
pub struct ClosePeers {
    nodes: usize,
    words: usize,
    bits: Vec<u64>,
}

impl ClosePeers {
    /// An empty population of `nodes` nodes: no pair is close yet.
    pub fn new(nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        Self {
            nodes,
            words,
            bits: vec![0; nodes * words],
        }
    }

    /// Record row `i` of the upper triangle: `rtts[k]` is the base RTT
    /// of the pair `(i, i + 1 + k)`.
    ///
    /// # Panics
    /// Panics if the row runs past the population.
    pub fn add_row(&mut self, i: usize, rtts: &[f64], threshold_ms: f64) {
        assert!(
            i + rtts.len() < self.nodes,
            "row {i} runs past the population"
        );
        let words = self.words;
        let (word_i, bit_i) = (i / 64, 1u64 << (i % 64));
        // One bitmap word of row `i` per chunk: the chunks end on word
        // boundaries, so each word is built in a register.
        let mut j = i + 1;
        let mut rest = rtts;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at((64 - j % 64).min(rest.len()));
            let mut close = 0u64;
            for (b, &rtt) in chunk.iter().enumerate() {
                close |= u64::from(rtt < threshold_ms) << b;
            }
            let close = close << (j % 64);
            self.bits[i * words + j / 64] |= close;
            // The same pairs from the other end: node `i` is close to
            // each set bit's node.
            let mut set = close;
            while set != 0 {
                let peer = j / 64 * 64 + set.trailing_zeros() as usize;
                self.bits[peer * words + word_i] |= bit_i;
                set &= set - 1;
            }
            j += chunk.len();
            rest = tail;
        }
    }

    /// `node`'s close and far pools, in ascending id order.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    fn pools(&self, node: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(node < self.nodes, "node {node} out of range");
        let mut close = Vec::with_capacity(self.nodes);
        let mut far = Vec::with_capacity(self.nodes);
        let row = &self.bits[node * self.words..(node + 1) * self.words];
        for (w, &bits) in row.iter().enumerate() {
            let mut others = !0u64;
            if node / 64 == w {
                others &= !(1 << (node % 64));
            }
            if (w + 1) * 64 > self.nodes {
                others &= (1 << (self.nodes % 64)) - 1;
            }
            push_set_bits(bits, w * 64, &mut close);
            push_set_bits(!bits & others, w * 64, &mut far);
        }
        (close, far)
    }

    /// Choose `node`'s neighbour set from its close and far pools:
    /// [`select_neighbors`] over every other node of the population,
    /// draw for draw.
    pub fn select<R: Rng + ?Sized>(
        &self,
        node: usize,
        config: &VivaldiConfig,
        rng: &mut R,
    ) -> Vec<usize> {
        let (close, far) = self.pools(node);
        select_from_pools(&close, &far, config, rng)
    }
}

/// Append `base + b` for every set bit `b` of `bits`, in ascending order.
fn push_set_bits(mut bits: u64, base: usize, out: &mut Vec<usize>) {
    while bits != 0 {
        out.push(base + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::stream_rng;

    fn cfg(neighbors: usize, close: usize) -> VivaldiConfig {
        VivaldiConfig {
            neighbors,
            close_neighbors: close,
            ..VivaldiConfig::paper_default()
        }
    }

    fn mixed_candidates(n_close: usize, n_far: usize) -> Vec<(usize, f64)> {
        let mut v = Vec::new();
        for i in 0..n_close {
            v.push((i, 10.0)); // close
        }
        for i in 0..n_far {
            v.push((n_close + i, 200.0)); // far
        }
        v
    }

    #[test]
    fn respects_close_far_split() {
        let mut rng = stream_rng(1, 0);
        let cands = mixed_candidates(100, 100);
        let chosen = select_neighbors(&cands, &cfg(64, 32), &mut rng);
        assert_eq!(chosen.len(), 64);
        let close_chosen = chosen.iter().filter(|&&id| id < 100).count();
        assert_eq!(close_chosen, 32);
    }

    #[test]
    fn shifts_budget_when_close_pool_small() {
        let mut rng = stream_rng(2, 0);
        let cands = mixed_candidates(5, 100);
        let chosen = select_neighbors(&cands, &cfg(64, 32), &mut rng);
        assert_eq!(chosen.len(), 64);
        let close_chosen = chosen.iter().filter(|&&id| id < 5).count();
        assert_eq!(close_chosen, 5, "all available close peers taken");
    }

    #[test]
    fn shifts_budget_when_far_pool_small() {
        let mut rng = stream_rng(3, 0);
        let cands = mixed_candidates(100, 5);
        let chosen = select_neighbors(&cands, &cfg(64, 32), &mut rng);
        assert_eq!(chosen.len(), 64);
        let far_chosen = chosen.iter().filter(|&&id| id >= 100).count();
        assert_eq!(far_chosen, 5);
    }

    #[test]
    fn small_candidate_set_returns_everything() {
        let mut rng = stream_rng(4, 0);
        let cands = mixed_candidates(3, 4);
        let mut chosen = select_neighbors(&cands, &cfg(64, 32), &mut rng);
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn no_duplicates() {
        let mut rng = stream_rng(5, 0);
        let cands = mixed_candidates(50, 50);
        let chosen = select_neighbors(&cands, &cfg(64, 32), &mut rng);
        let mut sorted = chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chosen.len());
    }

    #[test]
    fn close_peers_select_matches_the_full_scan() {
        // Populations on and off a word boundary; each node draws right
        // after its own row goes in, as `VivaldiSimulation::new` does.
        for nodes in [2, 64, 150, 193] {
            let topo = ices_netsim::KingConfig::small(nodes).generate(nodes as u64);
            let config = cfg(24, 12);
            let mut pools = ClosePeers::new(nodes);
            let mut fast = stream_rng(9, nodes as u64);
            let mut scan = fast.clone();
            for node in 0..nodes {
                pools.add_row(node, topo.matrix.upper_row(node), config.close_threshold_ms);
                let candidates = topo.matrix.row(node);
                assert_eq!(
                    pools.select(node, &config, &mut fast),
                    select_neighbors(&candidates, &config, &mut scan),
                    "{nodes} nodes, node {node}"
                );
                assert_eq!(fast, scan, "{nodes} nodes, node {node}: draws diverged");
            }
        }
    }

    #[test]
    fn close_peers_pools_are_ascending_and_split_by_threshold() {
        let topo = ices_netsim::KingConfig::small(130).generate(3);
        let threshold = 50.0;
        let mut pools = ClosePeers::new(130);
        for i in 0..130 {
            pools.add_row(i, topo.matrix.upper_row(i), threshold);
        }
        for node in 0..130 {
            let (close, far) = pools.pools(node);
            let want_close: Vec<usize> = (0..130)
                .filter(|&p| p != node && topo.matrix.get(node, p) < threshold)
                .collect();
            let want_far: Vec<usize> = (0..130)
                .filter(|&p| p != node && topo.matrix.get(node, p) >= threshold)
                .collect();
            assert_eq!(close, want_close, "node {node}");
            assert_eq!(far, want_far, "node {node}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cands = mixed_candidates(80, 80);
        let a = select_neighbors(&cands, &cfg(64, 32), &mut stream_rng(6, 1));
        let b = select_neighbors(&cands, &cfg(64, 32), &mut stream_rng(6, 1));
        assert_eq!(a, b);
    }
}
