//! Compact binary wire codec for the service daemon (`crates/svc`).
//!
//! One datagram carries one [`Message`]: a fixed two-byte header
//! (`version`, `tag`) followed by a tag-specific little-endian payload.
//! The codec is pure — no sockets, no clocks — so it lives here in
//! `ices-core` next to the types it serializes, stays under the full
//! audit regime, and is testable without any network plumbing.
//!
//! Safety posture: `decode` is the daemon's attack surface. Every
//! multi-byte read is bounds-checked, every length field is capped
//! *before* allocation, and every float is validated against the
//! invariants the in-memory types enforce by panicking
//! ([`Coordinate::new`] asserts finiteness; `relative_error` asserts a
//! positive RTT) — a malformed datagram yields a typed [`WireError`],
//! never a panic. Trailing bytes after a well-formed payload are
//! rejected too, so a datagram has exactly one valid reading.
//!
//! Layout conventions:
//!
//! * integers: fixed-width little-endian (`u64` = 8 bytes);
//! * floats: `f64::to_bits` little-endian, finiteness checked on decode;
//! * coordinate: `u8` dimension count (1..=[`MAX_DIMS`]), that many
//!   position components, then the height (finite, non-negative);
//! * `Option<T>`: presence byte `0`/`1`, then `T` when present;
//! * strings: `u8` byte length (≤ [`MAX_NAME_BYTES`]), UTF-8 checked;
//! * counter lists: `u8` entry count (≤ [`MAX_COUNTERS`]).

use crate::certify::CoordinateCertificate;
use crate::model::StateSpaceParams;
use ices_coord::Coordinate;
use std::fmt;

/// Wire protocol version stamped as the first byte of every datagram.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on an encoded datagram (fits a loopback or Ethernet MTU;
/// well under the UDP maximum).
pub const MAX_DATAGRAM: usize = 2048;

/// Most embedding dimensions a wire coordinate may carry (the paper's
/// spaces use 2–8 plus a height).
pub const MAX_DIMS: usize = 16;

/// Longest counter name, in bytes, a [`Message::StatsReply`] may carry.
pub const MAX_NAME_BYTES: usize = 32;

/// Most counters a [`Message::StatsReply`] may carry.
pub const MAX_COUNTERS: usize = 48;

/// Typed decode/encode failure. Every variant maps to a stable wire
/// code ([`WireError::code`]) so the daemon can answer malformed
/// datagrams with [`Message::Error`] instead of dropping silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The datagram ended before its payload did.
    Truncated,
    /// The datagram exceeds [`MAX_DATAGRAM`].
    Oversized,
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The tag byte names no known message type.
    BadTag(u8),
    /// A length/count field exceeds its cap.
    BadLength,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A float field violates its invariant (non-finite component,
    /// negative height, non-positive RTT, ...). Carries the field name.
    BadValue(&'static str),
    /// Bytes remain after a complete payload.
    TrailingBytes,
}

impl WireError {
    /// Stable one-byte error code carried by [`Message::Error`].
    pub fn code(self) -> u8 {
        match self {
            WireError::Truncated => 1,
            WireError::Oversized => 2,
            WireError::BadVersion(_) => 3,
            WireError::BadTag(_) => 4,
            WireError::BadLength => 5,
            WireError::BadUtf8 => 6,
            WireError::BadValue(_) => 7,
            WireError::TrailingBytes => 8,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram truncated"),
            WireError::Oversized => write!(f, "datagram exceeds {MAX_DATAGRAM} bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength => write!(f, "length field exceeds its cap"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue(what) => write!(f, "invalid value for field `{what}`"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// How the daemon disposed of an [`Message::UpdateClaim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The claim passed the innovation test and updated the filter.
    Accepted,
    /// Suspicious, but the first-time-peer reprieve applied.
    Reprieved,
    /// Suspicious and rejected; the claimant should be replaced.
    Rejected,
    /// The attached coordinate certificate failed verification.
    BadCertificate,
    /// No Surveyor has registered yet, so no filter is armed.
    NotReady,
}

impl Disposition {
    fn to_byte(self) -> u8 {
        match self {
            Disposition::Accepted => 0,
            Disposition::Reprieved => 1,
            Disposition::Rejected => 2,
            Disposition::BadCertificate => 3,
            Disposition::NotReady => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Disposition::Accepted),
            1 => Ok(Disposition::Reprieved),
            2 => Ok(Disposition::Rejected),
            3 => Ok(Disposition::BadCertificate),
            4 => Ok(Disposition::NotReady),
            _ => Err(WireError::BadValue("disposition")),
        }
    }
}

/// One service-protocol datagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client asks the daemon for its coordinate (and a certificate).
    ProbeRequest {
        /// Caller-chosen correlation nonce, echoed in the reply.
        nonce: u64,
    },
    /// The daemon's coordinate claim, certified when a certifier is
    /// armed.
    ProbeReply {
        /// Echo of the request nonce.
        nonce: u64,
        /// The daemon's current coordinate.
        coordinate: Coordinate,
        /// The daemon's local error estimate `e_l`.
        local_error: f64,
        /// Surveyor-issued certificate over `coordinate`, when armed.
        certificate: Option<CoordinateCertificate>,
    },
    /// Client asks for calibration parameters, optionally disclosing
    /// its coordinate so the daemon can pick the closest Surveyor.
    CalibrationRequest {
        /// The requesting node's id.
        node: u64,
        /// The requester's coordinate, for closest-Surveyor selection.
        coordinate: Option<Coordinate>,
    },
    /// Calibration parameters from the selected Surveyor.
    CalibrationReply {
        /// The Surveyor whose parameters these are.
        surveyor: u64,
        /// The calibrated state-space parameters.
        params: StateSpaceParams,
        /// Daemon time at which the reply was issued.
        issued_at: u64,
    },
    /// A Surveyor registers (or refreshes) itself with the daemon.
    SurveyorRegister {
        /// The Surveyor's id.
        surveyor: u64,
        /// The Surveyor's coordinate.
        coordinate: Coordinate,
        /// Its calibrated parameters.
        params: StateSpaceParams,
    },
    /// Acknowledges a [`Message::SurveyorRegister`].
    RegisterAck {
        /// Echo of the Surveyor id.
        surveyor: u64,
        /// Whether the registration was accepted (invalid parameters
        /// are refused).
        registered: bool,
    },
    /// A coordinate-update claim submitted for vetting.
    UpdateClaim {
        /// The claiming client's id.
        client: u64,
        /// Caller-chosen correlation nonce, echoed in the verdict.
        nonce: u64,
        /// The coordinate the client claims.
        coordinate: Coordinate,
        /// The confidence the client claims (`e_j`).
        peer_error: f64,
        /// The RTT the client reports having measured, milliseconds.
        rtt_ms: f64,
        /// Optional certificate over the claimed coordinate.
        certificate: Option<CoordinateCertificate>,
    },
    /// The vetted outcome of an [`Message::UpdateClaim`].
    UpdateVerdict {
        /// Echo of the claim nonce.
        nonce: u64,
        /// What the detection protocol decided.
        disposition: Disposition,
        /// The innovation the test evaluated (0 when no test ran).
        innovation: f64,
        /// The threshold the innovation was compared against (0 when
        /// no test ran).
        threshold: f64,
    },
    /// Ask the daemon for its counter values.
    StatsRequest,
    /// Counter names and values, registration order.
    StatsReply {
        /// `(name, value)` pairs; at most [`MAX_COUNTERS`].
        counters: Vec<(String, u64)>,
    },
    /// Ask the daemon to shut down (token must match its config).
    Shutdown {
        /// Shared shutdown secret.
        token: u64,
    },
    /// Typed error reply (a [`WireError::code`] or a service code).
    Error {
        /// The error code.
        code: u8,
    },
}

/// Service-level error codes carried by [`Message::Error`] beyond the
/// [`WireError::code`] range.
pub mod service_code {
    /// No Surveyor registered; calibration cannot be served.
    pub const NO_SURVEYOR: u8 = 16;
    /// Shutdown token mismatch.
    pub const BAD_TOKEN: u8 = 17;
    /// A reply-typed message arrived where a request was expected.
    pub const UNEXPECTED: u8 = 18;
}

const TAG_PROBE_REQUEST: u8 = 1;
const TAG_PROBE_REPLY: u8 = 2;
const TAG_CALIBRATION_REQUEST: u8 = 3;
const TAG_CALIBRATION_REPLY: u8 = 4;
const TAG_SURVEYOR_REGISTER: u8 = 5;
const TAG_REGISTER_ACK: u8 = 6;
const TAG_UPDATE_CLAIM: u8 = 7;
const TAG_UPDATE_VERDICT: u8 = 8;
const TAG_STATS_REQUEST: u8 = 9;
const TAG_STATS_REPLY: u8 = 10;
const TAG_SHUTDOWN: u8 = 11;
const TAG_ERROR: u8 = 12;

// ---- Encoding ----

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_coordinate(out: &mut Vec<u8>, c: &Coordinate) -> Result<(), WireError> {
    let dims = c.position().len();
    if dims == 0 || dims > MAX_DIMS {
        return Err(WireError::BadLength);
    }
    out.push(dims as u8);
    for &x in c.position() {
        put_f64(out, x);
    }
    put_f64(out, c.height());
    Ok(())
}

fn put_params(out: &mut Vec<u8>, p: &StateSpaceParams) {
    for v in [p.beta, p.v_w, p.v_u, p.w_bar, p.w0, p.p0] {
        put_f64(out, v);
    }
}

fn put_certificate(out: &mut Vec<u8>, c: &CoordinateCertificate) -> Result<(), WireError> {
    put_u64(out, c.node as u64);
    put_coordinate(out, &c.coordinate)?;
    put_u64(out, c.issuer as u64);
    put_u64(out, c.issued_at);
    put_u64(out, c.ttl);
    put_u64(out, c.tag);
    Ok(())
}

fn put_opt_certificate(
    out: &mut Vec<u8>,
    c: &Option<CoordinateCertificate>,
) -> Result<(), WireError> {
    match c {
        None => out.push(0),
        Some(cert) => {
            out.push(1);
            put_certificate(out, cert)?;
        }
    }
    Ok(())
}

/// Encode a message into a fresh datagram.
///
/// Fails (with the same typed errors decoding uses) when a field
/// exceeds a wire cap — an over-wide coordinate, too many counters, an
/// over-long counter name — or when the encoding would exceed
/// [`MAX_DATAGRAM`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    out.push(WIRE_VERSION);
    match msg {
        Message::ProbeRequest { nonce } => {
            out.push(TAG_PROBE_REQUEST);
            put_u64(&mut out, *nonce);
        }
        Message::ProbeReply {
            nonce,
            coordinate,
            local_error,
            certificate,
        } => {
            out.push(TAG_PROBE_REPLY);
            put_u64(&mut out, *nonce);
            put_coordinate(&mut out, coordinate)?;
            put_f64(&mut out, *local_error);
            put_opt_certificate(&mut out, certificate)?;
        }
        Message::CalibrationRequest { node, coordinate } => {
            out.push(TAG_CALIBRATION_REQUEST);
            put_u64(&mut out, *node);
            match coordinate {
                None => out.push(0),
                Some(c) => {
                    out.push(1);
                    put_coordinate(&mut out, c)?;
                }
            }
        }
        Message::CalibrationReply {
            surveyor,
            params,
            issued_at,
        } => {
            out.push(TAG_CALIBRATION_REPLY);
            put_u64(&mut out, *surveyor);
            put_params(&mut out, params);
            put_u64(&mut out, *issued_at);
        }
        Message::SurveyorRegister {
            surveyor,
            coordinate,
            params,
        } => {
            out.push(TAG_SURVEYOR_REGISTER);
            put_u64(&mut out, *surveyor);
            put_coordinate(&mut out, coordinate)?;
            put_params(&mut out, params);
        }
        Message::RegisterAck {
            surveyor,
            registered,
        } => {
            out.push(TAG_REGISTER_ACK);
            put_u64(&mut out, *surveyor);
            put_bool(&mut out, *registered);
        }
        Message::UpdateClaim {
            client,
            nonce,
            coordinate,
            peer_error,
            rtt_ms,
            certificate,
        } => {
            out.push(TAG_UPDATE_CLAIM);
            put_u64(&mut out, *client);
            put_u64(&mut out, *nonce);
            put_coordinate(&mut out, coordinate)?;
            put_f64(&mut out, *peer_error);
            put_f64(&mut out, *rtt_ms);
            put_opt_certificate(&mut out, certificate)?;
        }
        Message::UpdateVerdict {
            nonce,
            disposition,
            innovation,
            threshold,
        } => {
            out.push(TAG_UPDATE_VERDICT);
            put_u64(&mut out, *nonce);
            out.push(disposition.to_byte());
            put_f64(&mut out, *innovation);
            put_f64(&mut out, *threshold);
        }
        Message::StatsRequest => out.push(TAG_STATS_REQUEST),
        Message::StatsReply { counters } => {
            out.push(TAG_STATS_REPLY);
            if counters.len() > MAX_COUNTERS {
                return Err(WireError::BadLength);
            }
            out.push(counters.len() as u8);
            for (name, value) in counters {
                let bytes = name.as_bytes();
                if bytes.is_empty() || bytes.len() > MAX_NAME_BYTES {
                    return Err(WireError::BadLength);
                }
                out.push(bytes.len() as u8);
                out.extend_from_slice(bytes);
                put_u64(&mut out, *value);
            }
        }
        Message::Shutdown { token } => {
            out.push(TAG_SHUTDOWN);
            put_u64(&mut out, *token);
        }
        Message::Error { code } => {
            out.push(TAG_ERROR);
            out.push(*code);
        }
    }
    if out.len() > MAX_DATAGRAM {
        return Err(WireError::Oversized);
    }
    Ok(out)
}

// ---- Decoding ----

/// Bounds-checked byte reader over one datagram.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A float with no further constraint than finiteness.
    fn f64_finite(&mut self, what: &'static str) -> Result<f64, WireError> {
        let v = f64::from_bits(self.u64()?);
        if !v.is_finite() {
            return Err(WireError::BadValue(what));
        }
        Ok(v)
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue(what)),
        }
    }

    /// A coordinate, validated against [`Coordinate::new`]'s invariants
    /// *before* construction so the panicking constructor never fires
    /// on wire input.
    fn coordinate(&mut self) -> Result<Coordinate, WireError> {
        let dims = self.u8()? as usize;
        if dims == 0 || dims > MAX_DIMS {
            return Err(WireError::BadLength);
        }
        let mut position = Vec::with_capacity(dims);
        for _ in 0..dims {
            position.push(self.f64_finite("coordinate component")?);
        }
        let height = self.f64_finite("coordinate height")?;
        if height < 0.0 {
            return Err(WireError::BadValue("coordinate height"));
        }
        Ok(Coordinate::new(position, height))
    }

    /// State-space parameters: finite on the wire; model invariants
    /// (stationarity, positive variances) are the daemon's to check
    /// via [`StateSpaceParams::check`], answering with a refusal
    /// rather than a decode error.
    fn params(&mut self) -> Result<StateSpaceParams, WireError> {
        Ok(StateSpaceParams {
            beta: self.f64_finite("beta")?,
            v_w: self.f64_finite("v_w")?,
            v_u: self.f64_finite("v_u")?,
            w_bar: self.f64_finite("w_bar")?,
            w0: self.f64_finite("w0")?,
            p0: self.f64_finite("p0")?,
        })
    }

    fn certificate(&mut self) -> Result<CoordinateCertificate, WireError> {
        let node = usize::try_from(self.u64()?).map_err(|_| WireError::BadValue("cert node"))?;
        let coordinate = self.coordinate()?;
        let issuer =
            usize::try_from(self.u64()?).map_err(|_| WireError::BadValue("cert issuer"))?;
        let issued_at = self.u64()?;
        let ttl = self.u64()?;
        let tag = self.u64()?;
        Ok(CoordinateCertificate {
            node,
            coordinate,
            issuer,
            issued_at,
            ttl,
            tag,
        })
    }

    fn opt_certificate(&mut self) -> Result<Option<CoordinateCertificate>, WireError> {
        if self.bool("certificate presence")? {
            Ok(Some(self.certificate()?))
        } else {
            Ok(None)
        }
    }

    fn finished(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Decode one datagram. Never panics: any malformed input yields a
/// typed [`WireError`] the daemon can answer with [`Message::Error`].
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    if buf.len() > MAX_DATAGRAM {
        return Err(WireError::Oversized);
    }
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_PROBE_REQUEST => Message::ProbeRequest { nonce: r.u64()? },
        TAG_PROBE_REPLY => {
            let nonce = r.u64()?;
            let coordinate = r.coordinate()?;
            let local_error = r.f64_finite("local_error")?;
            if local_error < 0.0 {
                return Err(WireError::BadValue("local_error"));
            }
            let certificate = r.opt_certificate()?;
            Message::ProbeReply {
                nonce,
                coordinate,
                local_error,
                certificate,
            }
        }
        TAG_CALIBRATION_REQUEST => {
            let node = r.u64()?;
            let coordinate = if r.bool("coordinate presence")? {
                Some(r.coordinate()?)
            } else {
                None
            };
            Message::CalibrationRequest { node, coordinate }
        }
        TAG_CALIBRATION_REPLY => Message::CalibrationReply {
            surveyor: r.u64()?,
            params: r.params()?,
            issued_at: r.u64()?,
        },
        TAG_SURVEYOR_REGISTER => Message::SurveyorRegister {
            surveyor: r.u64()?,
            coordinate: r.coordinate()?,
            params: r.params()?,
        },
        TAG_REGISTER_ACK => Message::RegisterAck {
            surveyor: r.u64()?,
            registered: r.bool("registered")?,
        },
        TAG_UPDATE_CLAIM => {
            let client = r.u64()?;
            let nonce = r.u64()?;
            let coordinate = r.coordinate()?;
            let peer_error = r.f64_finite("peer_error")?;
            if peer_error < 0.0 {
                return Err(WireError::BadValue("peer_error"));
            }
            let rtt_ms = r.f64_finite("rtt_ms")?;
            // `relative_error` asserts a strictly positive measured
            // RTT; enforce it at the trust boundary instead.
            if rtt_ms <= 0.0 {
                return Err(WireError::BadValue("rtt_ms"));
            }
            let certificate = r.opt_certificate()?;
            Message::UpdateClaim {
                client,
                nonce,
                coordinate,
                peer_error,
                rtt_ms,
                certificate,
            }
        }
        TAG_UPDATE_VERDICT => {
            let nonce = r.u64()?;
            let disposition = Disposition::from_byte(r.u8()?)?;
            let innovation = r.f64_finite("innovation")?;
            let threshold = r.f64_finite("threshold")?;
            Message::UpdateVerdict {
                nonce,
                disposition,
                innovation,
                threshold,
            }
        }
        TAG_STATS_REQUEST => Message::StatsRequest,
        TAG_STATS_REPLY => {
            let count = r.u8()? as usize;
            if count > MAX_COUNTERS {
                return Err(WireError::BadLength);
            }
            let mut counters = Vec::with_capacity(count);
            for _ in 0..count {
                let len = r.u8()? as usize;
                if len == 0 || len > MAX_NAME_BYTES {
                    return Err(WireError::BadLength);
                }
                let name = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| WireError::BadUtf8)?
                    .to_string();
                let value = r.u64()?;
                counters.push((name, value));
            }
            Message::StatsReply { counters }
        }
        TAG_SHUTDOWN => Message::Shutdown { token: r.u64()? },
        TAG_ERROR => Message::Error { code: r.u8()? },
        other => return Err(WireError::BadTag(other)),
    };
    r.finished()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord() -> Coordinate {
        Coordinate::new(vec![3.0, -4.0], 1.5)
    }

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.8,
            v_w: 0.001,
            v_u: 0.002,
            w_bar: 0.02,
            w0: 0.1,
            p0: 0.01,
        }
    }

    fn cert() -> CoordinateCertificate {
        CoordinateCertificate {
            node: 42,
            coordinate: coord(),
            issuer: 7,
            issued_at: 1000,
            ttl: 60,
            tag: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = vec![
            Message::ProbeRequest { nonce: 9 },
            Message::ProbeReply {
                nonce: 9,
                coordinate: coord(),
                local_error: 0.25,
                certificate: Some(cert()),
            },
            Message::ProbeReply {
                nonce: 10,
                coordinate: coord(),
                local_error: 0.0,
                certificate: None,
            },
            Message::CalibrationRequest {
                node: 3,
                coordinate: Some(coord()),
            },
            Message::CalibrationRequest {
                node: 4,
                coordinate: None,
            },
            Message::CalibrationReply {
                surveyor: 1,
                params: params(),
                issued_at: 77,
            },
            Message::SurveyorRegister {
                surveyor: 1,
                coordinate: coord(),
                params: params(),
            },
            Message::RegisterAck {
                surveyor: 1,
                registered: true,
            },
            Message::UpdateClaim {
                client: 12,
                nonce: 5,
                coordinate: coord(),
                peer_error: 0.2,
                rtt_ms: 48.5,
                certificate: Some(cert()),
            },
            Message::UpdateVerdict {
                nonce: 5,
                disposition: Disposition::Rejected,
                innovation: 3.5,
                threshold: 0.4,
            },
            Message::StatsRequest,
            Message::StatsReply {
                counters: vec![("svc.rx_datagrams".into(), 10), ("svc.claims".into(), 3)],
            },
            Message::Shutdown { token: 0xFEED },
            Message::Error { code: 4 },
        ];
        for msg in msgs {
            let bytes = encode(&msg).unwrap_or_else(|e| panic!("encode {msg:?}: {e}"));
            assert!(bytes.len() <= MAX_DATAGRAM);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("decode {msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let bytes = encode(&Message::UpdateClaim {
            client: 12,
            nonce: 5,
            coordinate: coord(),
            peer_error: 0.2,
            rtt_ms: 48.5,
            certificate: Some(cert()),
        })
        .unwrap_or_else(|e| panic!("{e}"));
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
    }

    #[test]
    fn version_tag_and_size_are_policed() {
        assert_eq!(decode(&[]), Err(WireError::Truncated));
        assert_eq!(
            decode(&[9, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadVersion(9))
        );
        assert_eq!(decode(&[WIRE_VERSION, 200]), Err(WireError::BadTag(200)));
        let huge = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(decode(&huge), Err(WireError::Oversized));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes =
            encode(&Message::ProbeRequest { nonce: 1 }).unwrap_or_else(|e| panic!("{e}"));
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn non_finite_and_invalid_floats_are_rejected() {
        // A hand-built ProbeReply whose height is NaN.
        let mut bytes = vec![WIRE_VERSION, TAG_PROBE_REPLY];
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.push(1); // dims
        bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        bytes.extend_from_slice(&0.1f64.to_bits().to_le_bytes());
        bytes.push(0);
        assert_eq!(
            decode(&bytes),
            Err(WireError::BadValue("coordinate height"))
        );
        // An UpdateClaim with rtt_ms = 0 must be refused before the
        // relative_error assertion could ever see it.
        let claim = encode(&Message::UpdateClaim {
            client: 1,
            nonce: 1,
            coordinate: coord(),
            peer_error: 0.1,
            rtt_ms: 1.0,
            certificate: None,
        })
        .unwrap_or_else(|e| panic!("{e}"));
        let mut zeroed = claim.clone();
        // rtt_ms is the 8 bytes right before the trailing presence byte.
        let at = zeroed.len() - 9;
        zeroed[at..at + 8].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert_eq!(decode(&zeroed), Err(WireError::BadValue("rtt_ms")));
    }

    #[test]
    fn coordinate_caps_are_enforced_on_encode_and_decode() {
        let wide = Coordinate::new(vec![0.5; MAX_DIMS + 1], 0.0);
        assert_eq!(
            encode(&Message::ProbeRequest { nonce: 0 }).map(|_| ()),
            Ok(())
        );
        assert_eq!(
            encode(&Message::ProbeReply {
                nonce: 0,
                coordinate: wide,
                local_error: 0.0,
                certificate: None,
            }),
            Err(WireError::BadLength)
        );
        let mut bytes = vec![WIRE_VERSION, TAG_PROBE_REPLY];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(0); // zero dims
        assert_eq!(decode(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn stats_reply_caps_are_enforced() {
        let too_many = Message::StatsReply {
            counters: (0..MAX_COUNTERS + 1)
                .map(|i| (format!("c{i}"), 0))
                .collect(),
        };
        assert_eq!(encode(&too_many), Err(WireError::BadLength));
        let long_name = Message::StatsReply {
            counters: vec![("x".repeat(MAX_NAME_BYTES + 1), 0)],
        };
        assert_eq!(encode(&long_name), Err(WireError::BadLength));
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let all = [
            WireError::Truncated,
            WireError::Oversized,
            WireError::BadVersion(0),
            WireError::BadTag(0),
            WireError::BadLength,
            WireError::BadUtf8,
            WireError::BadValue("x"),
            WireError::TrailingBytes,
        ];
        let codes: std::collections::BTreeSet<u8> = all.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), all.len());
        assert!(codes.iter().all(|&c| c < super::service_code::NO_SURVEYOR));
    }
}
