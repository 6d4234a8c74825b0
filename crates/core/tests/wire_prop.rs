//! Property tests for the service wire codec (`ices_core::wire`):
//! encode→decode identity across every message type, plus a
//! malformed-datagram suite — truncations, corruptions, oversize,
//! wrong-version and pure garbage — asserting the decoder answers with
//! a typed [`WireError`] (or a harmless reinterpretation) and never
//! panics. The daemon feeds every received datagram through `decode`,
//! so this suite is the fuzz harness for its attack surface.

use ices_coord::Coordinate;
use ices_core::wire::{
    decode, encode, Disposition, Message, WireError, MAX_DATAGRAM, WIRE_VERSION,
};
use ices_core::{CoordinateCertificate, StateSpaceParams};
use proptest::prelude::*;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tiny deterministic draw chain so one `(seed, selector)` pair maps to
/// one fully-elaborated message of the selected type.
struct Draw {
    state: u64,
}

impl Draw {
    fn new(seed: u64) -> Self {
        Draw {
            state: splitmix64(seed),
        }
    }

    fn u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// A finite float in roughly [-1000, 1000].
    fn f64(&mut self) -> f64 {
        (self.u64() % 2_000_001) as f64 / 1000.0 - 1000.0
    }

    /// A finite non-negative float in [0, 1000].
    fn pos_f64(&mut self) -> f64 {
        (self.u64() % 1_000_001) as f64 / 1000.0
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    fn coordinate(&mut self) -> Coordinate {
        let dims = (self.u64() % 16 + 1) as usize;
        let position: Vec<f64> = (0..dims).map(|_| self.f64()).collect();
        Coordinate::new(position, self.pos_f64())
    }

    fn params(&mut self) -> StateSpaceParams {
        StateSpaceParams {
            beta: self.f64(),
            v_w: self.f64(),
            v_u: self.f64(),
            w_bar: self.f64(),
            w0: self.f64(),
            p0: self.f64(),
        }
    }

    fn certificate(&mut self) -> CoordinateCertificate {
        CoordinateCertificate {
            node: (self.u64() % (u32::MAX as u64)) as usize,
            coordinate: self.coordinate(),
            issuer: (self.u64() % (u32::MAX as u64)) as usize,
            issued_at: self.u64(),
            ttl: self.u64(),
            tag: self.u64(),
        }
    }

    fn opt_certificate(&mut self) -> Option<CoordinateCertificate> {
        if self.bool() {
            Some(self.certificate())
        } else {
            None
        }
    }

    fn disposition(&mut self) -> Disposition {
        match self.u64() % 5 {
            0 => Disposition::Accepted,
            1 => Disposition::Reprieved,
            2 => Disposition::Rejected,
            3 => Disposition::BadCertificate,
            _ => Disposition::NotReady,
        }
    }

    /// A counter list within the wire caps, in the `ices-obs`
    /// `crate.name` naming style.
    fn counters(&mut self) -> Vec<(String, u64)> {
        let n = (self.u64() % 48) as usize;
        (0..n)
            .map(|i| (format!("svc.counter_{i}"), self.u64()))
            .collect()
    }
}

/// One message of each wire type, elaborated from the draw chain. The
/// selector covers every `Message` variant; extending the enum without
/// extending this constructor fails the exhaustiveness count test below.
fn build_message(seed: u64, selector: u8) -> Message {
    let mut d = Draw::new(seed);
    match selector {
        0 => Message::ProbeRequest { nonce: d.u64() },
        1 => Message::ProbeReply {
            nonce: d.u64(),
            coordinate: d.coordinate(),
            local_error: d.pos_f64(),
            certificate: d.opt_certificate(),
        },
        2 => Message::CalibrationRequest {
            node: d.u64(),
            coordinate: if d.bool() { Some(d.coordinate()) } else { None },
        },
        3 => Message::CalibrationReply {
            surveyor: d.u64(),
            params: d.params(),
            issued_at: d.u64(),
        },
        4 => Message::SurveyorRegister {
            surveyor: d.u64(),
            coordinate: d.coordinate(),
            params: d.params(),
        },
        5 => Message::RegisterAck {
            surveyor: d.u64(),
            registered: d.bool(),
        },
        6 => Message::UpdateClaim {
            client: d.u64(),
            nonce: d.u64(),
            coordinate: d.coordinate(),
            peer_error: d.pos_f64(),
            rtt_ms: d.pos_f64() + 0.001,
            certificate: d.opt_certificate(),
        },
        7 => Message::UpdateVerdict {
            nonce: d.u64(),
            disposition: d.disposition(),
            innovation: d.f64(),
            threshold: d.f64(),
        },
        8 => Message::StatsRequest,
        9 => Message::StatsReply {
            counters: d.counters(),
        },
        10 => Message::Shutdown { token: d.u64() },
        _ => Message::Error {
            code: (d.u64() % 256) as u8,
        },
    }
}

/// Number of distinct selector values `build_message` elaborates.
const SELECTORS: u8 = 12;

#[test]
fn selector_space_covers_every_variant() {
    use std::collections::BTreeSet;
    let names: BTreeSet<&'static str> = (0..SELECTORS)
        .map(|s| match build_message(7, s) {
            Message::ProbeRequest { .. } => "ProbeRequest",
            Message::ProbeReply { .. } => "ProbeReply",
            Message::CalibrationRequest { .. } => "CalibrationRequest",
            Message::CalibrationReply { .. } => "CalibrationReply",
            Message::SurveyorRegister { .. } => "SurveyorRegister",
            Message::RegisterAck { .. } => "RegisterAck",
            Message::UpdateClaim { .. } => "UpdateClaim",
            Message::UpdateVerdict { .. } => "UpdateVerdict",
            Message::StatsRequest => "StatsRequest",
            Message::StatsReply { .. } => "StatsReply",
            Message::Shutdown { .. } => "Shutdown",
            Message::Error { .. } => "Error",
        })
        .collect();
    assert_eq!(
        names.len(),
        12,
        "a Message variant is unreachable: {names:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode→decode is the identity for every message type.
    #[test]
    fn encode_decode_round_trips(seed in 0u64..u64::MAX, selector in 0u8..SELECTORS) {
        let msg = build_message(seed, selector);
        let bytes = encode(&msg).unwrap_or_else(|e| panic!("encode failed: {e} for {msg:?}"));
        prop_assert!(bytes.len() <= MAX_DATAGRAM);
        prop_assert!(bytes.first() == Some(&WIRE_VERSION));
        let back = decode(&bytes);
        prop_assert_eq!(back, Ok(msg));
    }

    /// Every strict prefix of a valid datagram fails with a typed
    /// error — the decoder never reads past the buffer and never
    /// accepts an incomplete payload.
    #[test]
    fn every_truncation_is_rejected(seed in 0u64..u64::MAX, selector in 0u8..SELECTORS) {
        let msg = build_message(seed, selector);
        let bytes = encode(&msg).unwrap_or_else(|e| panic!("encode failed: {e}"));
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            prop_assert!(r.is_err(), "prefix of {} bytes decoded to {:?}", cut, r);
        }
    }

    /// Corrupting any single byte of a valid datagram never panics the
    /// decoder; whatever it yields is a typed error or a (different)
    /// well-formed message.
    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..u64::MAX,
        selector in 0u8..SELECTORS,
        at_raw in 0usize..4096,
        xor in 1u8..255,
    ) {
        let msg = build_message(seed, selector);
        let mut bytes = encode(&msg).unwrap_or_else(|e| panic!("encode failed: {e}"));
        let at = at_raw % bytes.len();
        bytes[at] ^= xor;
        let _ = decode(&bytes); // must return, not panic
    }

    /// Pure garbage of any length up to the datagram cap decodes to a
    /// typed result without panicking; a flipped version byte is
    /// always refused outright.
    #[test]
    fn garbage_never_panics(raw in proptest::collection::vec(0u8..255, 0..300)) {
        let _ = decode(&raw);
        let mut wrong_version = raw.clone();
        match wrong_version.first().copied() {
            Some(v) if v != WIRE_VERSION => {
                prop_assert_eq!(decode(&wrong_version), Err(WireError::BadVersion(v)));
            }
            Some(_) => {
                wrong_version[0] = WIRE_VERSION.wrapping_add(1);
                prop_assert_eq!(
                    decode(&wrong_version),
                    Err(WireError::BadVersion(WIRE_VERSION.wrapping_add(1)))
                );
            }
            None => prop_assert_eq!(decode(&wrong_version), Err(WireError::Truncated)),
        }
    }
}

#[test]
fn oversized_datagrams_are_refused_before_parsing() {
    // Even a datagram that starts like a valid message is refused once
    // it exceeds the cap — the daemon's receive buffer is sized to
    // MAX_DATAGRAM + 1 so oversize is detectable, not silently split.
    let mut huge = vec![0u8; MAX_DATAGRAM + 1];
    huge[0] = WIRE_VERSION;
    huge[1] = 1; // ProbeRequest tag
    assert_eq!(decode(&huge), Err(WireError::Oversized));
}
