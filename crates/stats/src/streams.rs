//! The workspace-wide RNG stream-tag registry.
//!
//! Every independent random stream in the workspace is derived from the
//! master seed and a 4-byte ASCII tag (`0x4641_4C54` spells `"FALT"`).
//! Two different subsystems accidentally minting the *same* tag silently
//! correlate draws that the determinism argument assumes independent —
//! exactly what happened when both `VivaldiIsolationAttack` and
//! `NpsCollusionAttack` minted `"VICT"` on their own. This module is the
//! fix: **the one place a 4-byte stream tag may be declared**. Use sites
//! refer to `streams::FALT` etc.; `ices-audit` rule STREAM01 fails the
//! build on any bare tag literal outside this file, on duplicate values
//! here, and on registered tags no code uses.
//!
//! The declarations below are deliberately plain `pub const NAME: u64`
//! items (no macro indirection): the audit's cross-crate analyzer reads
//! this file lexically and extracts every declaration from exactly that
//! token pattern, so the registry the compiler sees and the registry the
//! analyzer sees are the same text.
//!
//! The registry is self-checking: a unit test decodes each constant's
//! four bytes and asserts they spell the constant's own name, so a tag
//! can neither collide nor drift from its mnemonic. (The one wider tag
//! in the workspace, `kmeans`'s 6-byte `0x6B6D_6561_6E73`, predates the
//! 4-byte convention and stays local to `kmeans.rs`; STREAM01 scopes to
//! 4-byte tags.)

/// Per-probe link-fault fate draws (`netsim::faults`).
pub const FALT: u64 = 0x4641_4C54;
/// Per-epoch churn fate draws (`netsim::faults`).
pub const CHRN: u64 = 0x4348_524E;
/// Synthetic-topology median-RTT estimation samples (`netsim::rtt`).
pub const MEDI: u64 = 0x4D45_4449;
/// Per-link probe noise streams (`netsim::Network::probe_key`'s noise key).
pub const PROB: u64 = 0x5052_4F42;
/// PlanetLab topology path synthesis (`netsim::planetlab`).
pub const PATH: u64 = 0x5041_5448;
/// King-topology node placement (`netsim::kinggen`).
pub const PLAC: u64 = 0x504C_4143;
/// Eclipse neighbor-slot steering draws (`netsim::eclipse`).
pub const ECLN: u64 = 0x4543_4C4E;
/// Eclipse replacement steering draws (`netsim::eclipse`).
pub const ECLR: u64 = 0x4543_4C52;
/// Eclipse per-victim frame-translation directions (`attack::eclipse`).
pub const ECLP: u64 = 0x4543_4C50;
/// Sybil swarm shared anchor draw (`attack::sybil_swarm`).
pub const SYBA: u64 = 0x5359_4241;
/// Per-sybil jitter around the swarm anchor (`attack::sybil_swarm`).
pub const SYBJ: u64 = 0x5359_424A;
/// Cross-verification witness quorum draws (`attack::defense`).
pub const WTNS: u64 = 0x5754_4E53;
/// Frog-boiling per-victim drift directions (`attack::slow_drift`).
pub const DRFT: u64 = 0x4452_4654;
/// Vivaldi-isolation victim selection (`attack::vivaldi_isolation`).
/// Historically shared with the NPS conspiracy's victim draw — the
/// silent correlation STREAM01 exists to prevent; the NPS side now
/// draws from [`NPSV`].
pub const VICT: u64 = 0x5649_4354;
/// NPS-collusion per-layer victim selection (`attack::nps_collusion`).
/// Renamed from `"VICT"` to break the cross-attack stream collision.
pub const NPSV: u64 = 0x4E50_5356;
/// NPS-collusion per-victim push directions (`attack::nps_collusion`).
pub const PSHD: u64 = 0x5053_4844;
/// Vivaldi-isolation fake cluster coordinates (`attack::vivaldi_isolation`).
pub const LIES: u64 = 0x4C49_4553;
/// Coordinate-certificate MAC key schedule (`core::certify`).
pub const CERT: u64 = 0x4345_5254;
/// Per-node Vivaldi embedding jitter (`vivaldi::node`).
pub const VIVA: u64 = 0x5649_5641;
/// Vivaldi driver scenario assembly draws (`sim::vivaldi_driver`).
pub const VIVD: u64 = 0x5649_5644;
/// Vivaldi embedding-step probe nonces (`sim::vivaldi_driver`).
pub const STEP: u64 = 0x5354_4550;
/// Vivaldi §4.2 join-probe nonces (`sim::vivaldi_driver`).
pub const JOIN: u64 = 0x4A4F_494E;
/// Vivaldi probe-retry nonces; attempt 0 reuses the primary nonce
/// (`sim::vivaldi_driver`).
pub const RTRY: u64 = 0x5254_5259;
/// Per-node neighbor-candidate sampling above the scan cap
/// (`sim::vivaldi_driver`).
pub const NCND: u64 = 0x4E43_4E44;
/// Cross-verification witness probe nonces (`sim::vivaldi_driver`).
pub const XPRB: u64 = 0x5850_5242;
/// NPS hierarchy assembly draws (`nps::hierarchy`).
pub const NPSH: u64 = 0x4E50_5348;
/// Per-node NPS positioning jitter (`nps::node`).
pub const NPSN: u64 = 0x4E50_534E;
/// NPS driver scenario assembly draws (`sim::nps_driver`).
pub const NPSD: u64 = 0x4E50_5344;
/// NPS positioning-round probe nonces (`sim::nps_driver`).
pub const NPSP: u64 = 0x4E50_5350;
/// NPS §4.2 join-probe nonces (`sim::nps_driver`).
pub const NPSJ: u64 = 0x4E50_534A;
/// NPS probe-retry nonces; attempt 0 reuses the primary nonce
/// (`sim::nps_driver`).
pub const NPSR: u64 = 0x4E50_5352;
/// Load-generator simulated-client claim draws (`svc::client`).
pub const LGEN: u64 = 0x4C47_454E;

/// Every registered tag, in declaration order, for inventory tests and
/// the audit's cross-crate table.
pub const ALL: &[(&str, u64)] = &[
    ("FALT", FALT),
    ("CHRN", CHRN),
    ("MEDI", MEDI),
    ("PROB", PROB),
    ("PATH", PATH),
    ("PLAC", PLAC),
    ("ECLN", ECLN),
    ("ECLR", ECLR),
    ("ECLP", ECLP),
    ("SYBA", SYBA),
    ("SYBJ", SYBJ),
    ("WTNS", WTNS),
    ("DRFT", DRFT),
    ("VICT", VICT),
    ("NPSV", NPSV),
    ("PSHD", PSHD),
    ("LIES", LIES),
    ("CERT", CERT),
    ("VIVA", VIVA),
    ("VIVD", VIVD),
    ("STEP", STEP),
    ("JOIN", JOIN),
    ("RTRY", RTRY),
    ("NCND", NCND),
    ("XPRB", XPRB),
    ("NPSH", NPSH),
    ("NPSN", NPSN),
    ("NPSD", NPSD),
    ("NPSP", NPSP),
    ("NPSJ", NPSJ),
    ("NPSR", NPSR),
    ("LGEN", LGEN),
];

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    /// Every tag's four bytes must spell its own constant name — the
    /// registry cannot drift from its mnemonics.
    #[test]
    fn tags_spell_their_names() {
        for &(name, value) in ALL {
            assert!(value <= u64::from(u32::MAX), "{name} wider than 4 bytes");
            let bytes = (value as u32).to_be_bytes();
            let spelled: String = bytes.iter().map(|&b| b as char).collect();
            assert_eq!(spelled, name, "tag 0x{value:08X} does not spell {name}");
        }
    }

    /// No two registered streams may share a tag value (the `"VICT"`
    /// collision class) or a name.
    #[test]
    fn tags_are_unique() {
        let values: BTreeSet<u64> = ALL.iter().map(|&(_, v)| v).collect();
        assert_eq!(values.len(), ALL.len(), "duplicate tag value in registry");
        let names: BTreeSet<&str> = ALL.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), ALL.len(), "duplicate tag name in registry");
    }

    /// The two attacks' victim-selection streams are distinct — the
    /// regression the registry exists to prevent.
    #[test]
    fn vivaldi_and_nps_victim_streams_are_distinct() {
        assert_ne!(super::VICT, super::NPSV);
    }
}
