//! Certified coordinates for the *usage* phase — the extension the
//! paper's §6 sketches and leaves as future work.
//!
//! Securing the embedding phase does not stop a malicious node from
//! blatantly lying about its coordinate when another node asks for it at
//! distance-estimation time. The paper suggests countering this "perhaps
//! through the use of validity periods for certified coordinates": a
//! trusted party (a Surveyor, which already vouches for clean system
//! behavior) attests that a node's coordinate was consistent with
//! reality at issue time, and consumers reject stale or forged claims.
//!
//! This module implements that sketch:
//!
//! * a [`Certifier`] (Surveyor-side) **verifies before vouching** — it
//!   measures the RTT to the node and only signs a coordinate whose
//!   implied distance matches the measurement within a tolerance;
//! * a [`CoordinateCertificate`] carries the coordinate, the issue time,
//!   a validity period (bounding how far the coordinate can drift before
//!   the holder must renew), and an authentication tag;
//! * consumers check the tag and freshness with
//!   [`Certifier::verify`] / [`CoordinateCertificate::is_fresh`].
//!
//! The authentication tag is a keyed hash built on SplitMix64 mixing.
//! **It is NOT a cryptographic MAC** — the simulation needs unforgeability
//! only against its modeled adversaries, not against cryptanalysis; a
//! deployment would swap in HMAC-SHA256 behind the same interface.

use ices_coord::Coordinate;
use ices_stats::rng::splitmix64;
use ices_stats::streams;
use serde::{Deserialize, Serialize};

/// A time-bounded, authenticated coordinate claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinateCertificate {
    /// The node whose coordinate is certified.
    pub node: usize,
    /// The certified coordinate.
    pub coordinate: Coordinate,
    /// Surveyor that issued the certificate.
    pub issuer: usize,
    /// Issue timestamp, in the system's logical time units.
    pub issued_at: u64,
    /// Validity period: the certificate expires at `issued_at + ttl`.
    pub ttl: u64,
    /// Authentication tag over all of the above.
    pub tag: u64,
}

impl CoordinateCertificate {
    /// Whether the certificate is still within its validity period at
    /// logical time `now` (expiry is exclusive).
    pub fn is_fresh(&self, now: u64) -> bool {
        now >= self.issued_at && now < self.issued_at.saturating_add(self.ttl)
    }
}

/// Reasons a certificate is rejected — or a [`Certifier`] refused to be
/// built at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CertificateError {
    /// The authentication tag does not verify.
    BadTag,
    /// The validity period has lapsed (or the certificate is post-dated).
    Expired,
    /// The claimed coordinate disagrees with the issuer's measurement.
    InconsistentCoordinate,
    /// A certifier with `ttl = 0` would issue certificates that are
    /// never fresh.
    ZeroTtl,
    /// The certifier's consistency tolerance must be positive.
    NonPositiveTolerance(f64),
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::BadTag => write!(f, "authentication tag does not verify"),
            CertificateError::Expired => write!(f, "certificate outside its validity period"),
            CertificateError::InconsistentCoordinate => {
                write!(f, "claimed coordinate inconsistent with measured RTT")
            }
            CertificateError::ZeroTtl => {
                write!(f, "a zero-ttl certificate can never be fresh")
            }
            CertificateError::NonPositiveTolerance(t) => {
                write!(f, "tolerance must be positive, got {t}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// A Surveyor-side certificate issuer/verifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Certifier {
    /// The issuing Surveyor's id.
    issuer: usize,
    /// Shared authentication key (in a deployment: per-issuer keypair).
    key: u64,
    /// Validity period granted to new certificates.
    ttl: u64,
    /// Largest tolerated relative disagreement between the claimed
    /// coordinate's implied distance and the measured RTT.
    tolerance: f64,
}

impl Certifier {
    /// Create a certifier for Surveyor `issuer` with authentication key
    /// `key`, granting certificates valid for `ttl` logical time units
    /// and vouching only for coordinates within `tolerance` relative
    /// error of its own measurement. Rejects a zero `ttl` or a
    /// non-positive `tolerance` with a typed error.
    pub fn new(
        issuer: usize,
        key: u64,
        ttl: u64,
        tolerance: f64,
    ) -> Result<Self, CertificateError> {
        if ttl == 0 {
            return Err(CertificateError::ZeroTtl);
        }
        // NaN must fail this check too, hence no `tolerance <= 0.0`.
        if tolerance.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CertificateError::NonPositiveTolerance(tolerance));
        }
        Ok(Self {
            issuer,
            key,
            ttl,
            tolerance,
        })
    }

    /// Issue a certificate for `node`'s claimed coordinate — but only
    /// after checking the claim against ground truth: `measured_rtt_ms`
    /// is the RTT the issuer just measured to the node, and
    /// `issuer_coordinate` is the issuer's own position. A claim whose
    /// implied distance deviates more than the tolerance is refused,
    /// so a liar cannot get a lie certified.
    pub fn issue(
        &self,
        node: usize,
        claimed: &Coordinate,
        issuer_coordinate: &Coordinate,
        measured_rtt_ms: f64,
        now: u64,
    ) -> Result<CoordinateCertificate, CertificateError> {
        let implied = issuer_coordinate.distance(claimed);
        let disagreement = (implied - measured_rtt_ms).abs() / measured_rtt_ms;
        if disagreement > self.tolerance {
            return Err(CertificateError::InconsistentCoordinate);
        }
        let mut cert = CoordinateCertificate {
            node,
            coordinate: claimed.clone(),
            issuer: self.issuer,
            issued_at: now,
            ttl: self.ttl,
            tag: 0,
        };
        cert.tag = self.tag_of(&cert);
        Ok(cert)
    }

    /// Verify a certificate's tag and freshness.
    pub fn verify(&self, cert: &CoordinateCertificate, now: u64) -> Result<(), CertificateError> {
        if cert.tag != self.tag_of(cert) || cert.issuer != self.issuer {
            return Err(CertificateError::BadTag);
        }
        if !cert.is_fresh(now) {
            return Err(CertificateError::Expired);
        }
        Ok(())
    }

    /// Keyed tag over the certificate's authenticated fields (a
    /// SplitMix64 compression chain — see the module docs for why this
    /// placeholder is acceptable here).
    fn tag_of(&self, cert: &CoordinateCertificate) -> u64 {
        let mut acc = splitmix64(self.key ^ streams::CERT); // "CERT"
        let mut absorb = |v: u64| {
            acc = splitmix64(acc ^ v);
        };
        absorb(cert.node as u64);
        absorb(cert.issuer as u64);
        absorb(cert.issued_at);
        absorb(cert.ttl);
        absorb(cert.coordinate.height().to_bits());
        for &x in cert.coordinate.position() {
            absorb(x.to_bits());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;

    fn setup() -> (Certifier, Coordinate, Coordinate) {
        let certifier = Certifier::new(7, 0xBEEF, 100, 0.3).expect("valid certifier");
        let issuer_coord = Coordinate::new(vec![0.0, 0.0], 2.0);
        let node_coord = Coordinate::new(vec![30.0, 40.0], 3.0);
        (certifier, issuer_coord, node_coord)
    }

    #[test]
    fn issues_and_verifies_consistent_claims() {
        let (certifier, issuer_coord, node_coord) = setup();
        // Implied distance = 50 + 2 + 3 = 55; measured close to it.
        let cert = certifier
            .issue(42, &node_coord, &issuer_coord, 57.0, 1000)
            .expect("consistent claim certifies");
        assert_eq!(cert.node, 42);
        assert_eq!(cert.issuer, 7);
        certifier.verify(&cert, 1000).expect("fresh and authentic");
        certifier.verify(&cert, 1099).expect("still within ttl");
    }

    #[test]
    fn refuses_to_certify_a_lie() {
        let (certifier, issuer_coord, _) = setup();
        let lie = Coordinate::new(vec![5000.0, 0.0], 0.0);
        let err = certifier
            .issue(42, &lie, &issuer_coord, 57.0, 1000)
            .expect_err("a wild claim must be refused");
        assert_eq!(err, CertificateError::InconsistentCoordinate);
    }

    #[test]
    fn expires_after_the_validity_period() {
        let (certifier, issuer_coord, node_coord) = setup();
        let cert = certifier
            .issue(42, &node_coord, &issuer_coord, 55.0, 1000)
            .expect("certifies");
        assert_eq!(
            certifier.verify(&cert, 1100),
            Err(CertificateError::Expired)
        );
        assert_eq!(
            certifier.verify(&cert, 999),
            Err(CertificateError::Expired),
            "post-dated use must fail too"
        );
    }

    #[test]
    fn tampering_breaks_the_tag() {
        let (certifier, issuer_coord, node_coord) = setup();
        let cert = certifier
            .issue(42, &node_coord, &issuer_coord, 55.0, 1000)
            .expect("certifies");

        let mut forged = cert.clone();
        forged.coordinate = Coordinate::new(vec![999.0, 0.0], 0.0);
        assert_eq!(
            certifier.verify(&forged, 1000),
            Err(CertificateError::BadTag)
        );

        let mut extended = cert.clone();
        extended.ttl = u64::MAX; // try to never expire
        assert_eq!(
            certifier.verify(&extended, 1000),
            Err(CertificateError::BadTag)
        );

        let mut reassigned = cert;
        reassigned.node = 43; // replay someone else's coordinate
        assert_eq!(
            certifier.verify(&reassigned, 1000),
            Err(CertificateError::BadTag)
        );
    }

    #[test]
    fn different_keys_do_not_cross_verify() {
        let (certifier, issuer_coord, node_coord) = setup();
        let other = Certifier::new(7, 0xDEAD, 100, 0.3).expect("valid certifier");
        let cert = certifier
            .issue(42, &node_coord, &issuer_coord, 55.0, 1000)
            .expect("certifies");
        assert_eq!(other.verify(&cert, 1000), Err(CertificateError::BadTag));
    }

    #[test]
    fn freshness_window_is_half_open() {
        let cert = CoordinateCertificate {
            node: 1,
            coordinate: Coordinate::origin(Space::with_height(2)),
            issuer: 2,
            issued_at: 100,
            ttl: 10,
            tag: 0,
        };
        assert!(cert.is_fresh(100));
        assert!(cert.is_fresh(109));
        assert!(!cert.is_fresh(110));
        assert!(!cert.is_fresh(99));
    }

    #[test]
    fn new_reports_typed_errors() {
        assert_eq!(
            Certifier::new(7, 0xBEEF, 0, 0.3).err(),
            Some(CertificateError::ZeroTtl)
        );
        assert_eq!(
            Certifier::new(7, 0xBEEF, 100, 0.0).err(),
            Some(CertificateError::NonPositiveTolerance(0.0))
        );
        assert!(Certifier::new(7, 0xBEEF, 100, 0.3).is_ok());
    }

    #[test]
    fn serde_roundtrip_preserves_verifiability() {
        let (certifier, issuer_coord, node_coord) = setup();
        let cert = certifier
            .issue(42, &node_coord, &issuer_coord, 55.0, 1000)
            .expect("certifies");
        let json = serde_json::to_string(&cert).expect("serialize");
        let back: CoordinateCertificate = serde_json::from_str(&json).expect("deserialize");
        certifier.verify(&back, 1050).expect("still verifies");
    }
}
