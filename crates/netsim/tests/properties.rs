//! Property-based tests of the network substrate: matrix invariants,
//! generator structure, and measurement determinism over randomized
//! configurations.

use ices_netsim::{KingConfig, Network, PlanetLabConfig, RttMatrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_matrices_are_symmetric_and_positive(
        nodes in 10usize..60,
        seed in 0u64..500,
    ) {
        let topo = KingConfig::small(nodes).generate(seed);
        for i in 0..nodes {
            prop_assert_eq!(topo.matrix.get(i, i), 0.0);
            for j in (i + 1)..nodes {
                let rtt = topo.matrix.get(i, j);
                prop_assert!(rtt > 0.0 && rtt.is_finite());
                prop_assert_eq!(rtt, topo.matrix.get(j, i));
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_config_and_seed(
        nodes in 10usize..40,
        seed in 0u64..500,
    ) {
        let a = KingConfig::small(nodes).generate(seed);
        let b = KingConfig::small(nodes).generate(seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn heights_lower_bound_every_rtt(
        nodes in 10usize..40,
        seed in 0u64..500,
    ) {
        // rtt = planar·distortion + h_i + h_j ≥ h_i + h_j (planar ≥ 0),
        // modulo the configured floor.
        let cfg = KingConfig::small(nodes);
        let topo = cfg.generate(seed);
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                let floor = (topo.heights[i] + topo.heights[j]).max(cfg.min_rtt_ms);
                prop_assert!(
                    topo.matrix.get(i, j) >= floor - 1e-9,
                    "rtt {} below height floor {floor}",
                    topo.matrix.get(i, j)
                );
            }
        }
    }

    #[test]
    fn measurements_are_deterministic_and_positive(
        nodes in 10usize..40,
        seed in 0u64..300,
        nonce in 0u64..10_000,
    ) {
        let pl = PlanetLabConfig::small(nodes).generate(seed);
        let net = Network::from_planetlab(pl, seed);
        let key = net.probe_key(0, 1);
        prop_assert_eq!(key, net.probe_key(1, 0), "key symmetric in direction");
        let s = net.smoothed(0, 1, &key, nonce);
        prop_assert_eq!(s.to_bits(), net.smoothed(0, 1, &key, nonce).to_bits());
        prop_assert_eq!(s.to_bits(), net.smoothed(1, 0, &key, nonce).to_bits(), "probe symmetric in direction");
        prop_assert!(s > 0.0 && s.is_finite());
    }

    #[test]
    fn matrix_set_get_roundtrip(
        n in 2usize..20,
        a in 0usize..20,
        b in 0usize..20,
        rtt in 0.1f64..1e5,
    ) {
        prop_assume!(a < n && b < n && a != b);
        let mut m = RttMatrix::from_fn(n, |_, _| 1.0);
        m.set(a, b, rtt);
        prop_assert_eq!(m.get(a, b), rtt);
        prop_assert_eq!(m.get(b, a), rtt);
        // All other entries untouched.
        for i in 0..n {
            for j in (i + 1)..n {
                if (i, j) != (a.min(b), a.max(b)) {
                    prop_assert_eq!(m.get(i, j), 1.0);
                }
            }
        }
    }

    #[test]
    fn pathological_nodes_never_exceed_population(
        nodes in 10usize..80,
        seed in 0u64..200,
    ) {
        let pl = PlanetLabConfig::small(nodes).generate(seed);
        prop_assert!(pl.pathological.len() < nodes);
        for &p in &pl.pathological {
            prop_assert!(p < nodes);
        }
        prop_assert_eq!(pl.profiles.len(), nodes);
    }
}

/// A million-node streamed King network is O(n) to build and answers
/// base-RTT queries between arbitrary pairs. The pairs come from a Weyl
/// sequence: deterministic and free of any RNG stream. About 0.15 s to
/// build optimised; far longer in a debug build.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn million_node_streamed_network_answers_a_probe_storm() {
    const NODES: usize = 1_000_000;
    const PROBES: usize = 200_000;
    let network = Network::from_king_streamed(KingConfig::small(NODES), 2007);
    assert_eq!(network.len(), NODES);
    let mut acc = 0usize;
    let mut checksum = 0.0f64;
    for i in 0..PROBES {
        acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15usize);
        let a = acc % NODES;
        let b = (acc >> 20).wrapping_add(i) % NODES;
        if a != b {
            checksum += network.base_rtt(a, b);
        }
    }
    assert!(
        checksum.is_finite() && checksum > 0.0,
        "checksum {checksum}"
    );
}
