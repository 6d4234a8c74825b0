//! Regression lock on the VICT/NPSV stream-tag collision.
//!
//! Both attacks derive per-victim randomness as
//! `SimRng::from_stream(seed, index, TAG)` — the Vivaldi isolation
//! attack with `streams::VICT` (`vivaldi_isolation.rs`, the coordinated
//! lie direction) and the NPS collusion attack with `streams::NPSV`
//! (`nps_collusion.rs`, the per-layer victim draw). Until the audit's
//! STREAM01 registry pass caught it, both tags were the literal
//! `0x5649_4354` ("VICT"), so a scenario running both attacks off one
//! master seed handed them *identical* victim streams: the NPS layer-k
//! victim selection replayed the Vivaldi victim-k lie angles. These
//! tests mirror the two call sites exactly and pin the streams apart.

use ices_stats::rng::SimRng;
use ices_stats::streams;
use rand::RngExt;

/// The exact derivation each attack performs for index `i` under
/// `seed` (argument order matches both call sites).
fn vivaldi_victim_rng(seed: u64, i: u64) -> SimRng {
    SimRng::from_stream(seed, i, streams::VICT)
}

fn nps_victim_rng(seed: u64, i: u64) -> SimRng {
    SimRng::from_stream(seed, i, streams::NPSV)
}

#[test]
fn vivaldi_and_nps_attacks_draw_from_distinct_victim_streams() {
    for seed in [2007, 0xDEAD_BEEF, u64::MAX] {
        for i in 0..8 {
            let viv: Vec<u64> = {
                let mut rng = vivaldi_victim_rng(seed, i);
                (0..16).map(|_| rng.random::<u64>()).collect()
            };
            let nps: Vec<u64> = {
                let mut rng = nps_victim_rng(seed, i);
                (0..16).map(|_| rng.random::<u64>()).collect()
            };
            assert_ne!(
                viv, nps,
                "seed {seed:#x}, index {i}: the Vivaldi lie stream and the \
                 NPS victim-selection stream must never coincide"
            );
        }
    }
}

#[test]
fn each_attack_stream_is_still_deterministic_per_tag() {
    let mut a = vivaldi_victim_rng(7, 3);
    let mut b = vivaldi_victim_rng(7, 3);
    for _ in 0..32 {
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }
    let mut a = nps_victim_rng(7, 3);
    let mut b = nps_victim_rng(7, 3);
    for _ in 0..32 {
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }
}
