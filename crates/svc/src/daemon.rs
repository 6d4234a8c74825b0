//! The service daemon: socket-free protocol core + UDP front end.
//!
//! [`ServiceCore`] is the entire protocol: decode, dispatch, vet,
//! reply. It holds no socket and reads no clock — `process_batch`
//! takes raw datagrams and a `now` timestamp, and returns raw reply
//! datagrams. That keeps every security decision unit-testable (and
//! keeps the OS surface down in [`Daemon`], which is nothing but a
//! recv/dispatch/send loop).
//!
//! Claim intake is **batched**: all `UpdateClaim`s of one poll cycle
//! are queued and vetted in a single [`vet_sequences`] sweep over the
//! persistent [`DetectorBank`] — the same SoA path the simulations run,
//! so the daemon's accept/reject behavior is the library's, not a
//! reimplementation.
//!
//! Failure policy mirrors the journal's: a malformed datagram can cost
//! at most one typed [`Message::Error`] reply; nothing a client sends
//! can panic the daemon (see `crates/core/tests/wire_prop.rs` and the
//! loopback suite).

use ices_coord::{Coordinate, Embedding, PeerSample, StepOutcome};
use ices_core::wire::{self, decode, encode, Disposition, Message};
use ices_core::{
    vet_sequences, Certifier, CoordinateCertificate, DetectorBank, SecureNode, SecureStep,
    SecurityConfig, SurveyorInfo, SurveyorRegistry, VetEvent,
};
use ices_obs::{names, Clock, CounterId, Journal, Registry, Snapshot};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// Tuning and security knobs of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Embedding dimensionality of the daemon's own coordinate.
    pub dims: usize,
    /// Shared certificate-authentication key (stand-in for per-issuer
    /// keypairs, same caveat as `ices_core::certify`).
    pub auth_key: u64,
    /// Certificate validity period, in clock units (ms under
    /// [`crate::ServiceClock`]).
    pub cert_ttl: u64,
    /// Largest tolerated relative disagreement when issuing
    /// certificates.
    pub cert_tolerance: f64,
    /// Detection-protocol knobs for the secured-update intake.
    pub security: SecurityConfig,
    /// Shared secret required by [`Message::Shutdown`].
    pub shutdown_token: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            dims: 2,
            auth_key: 0x1CE5_C0DE,
            cert_ttl: 60_000,
            cert_tolerance: 0.5,
            security: SecurityConfig::paper_default(),
            shutdown_token: 0,
        }
    }
}

/// The daemon's own embedding state, as seen by the detection
/// protocol. The service coordinate is fixed (the daemon is
/// infrastructure, not a peer adjusting its position), so `apply_step`
/// only tracks the EWMA local error the reprieve test consumes.
#[derive(Debug, Clone)]
struct ServiceEmbedding {
    coordinate: Coordinate,
    local_error: f64,
}

impl Embedding for ServiceEmbedding {
    fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    fn local_error(&self) -> f64 {
        self.local_error
    }

    fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome {
        let d = ices_coord::relative_error(&self.coordinate, &sample.peer_coord, sample.rtt_ms);
        // Vivaldi-style confidence blend, with the coordinate pinned.
        self.local_error = 0.9 * self.local_error + 0.1 * d.min(1.0);
        StepOutcome {
            relative_error: d,
            local_error: self.local_error,
            moved: false,
        }
    }
}

/// Service counter handles, registered once at construction so the hot
/// path is all `Vec` index increments.
#[derive(Debug, Clone, Copy)]
struct Counters {
    rx: CounterId,
    tx: CounterId,
    decode_errors: CounterId,
    probes: CounterId,
    calibrations: CounterId,
    registrations: CounterId,
    claims: CounterId,
    accepted: CounterId,
    reprieved: CounterId,
    rejected: CounterId,
    certs_issued: CounterId,
    bad_certs: CounterId,
    not_ready: CounterId,
}

impl Counters {
    fn register(reg: &mut Registry) -> Self {
        Self {
            rx: reg.counter(names::SVC_RX),
            tx: reg.counter(names::SVC_TX),
            decode_errors: reg.counter(names::SVC_DECODE_ERRORS),
            probes: reg.counter(names::SVC_PROBES),
            calibrations: reg.counter(names::SVC_CALIBRATIONS),
            registrations: reg.counter(names::SVC_REGISTRATIONS),
            claims: reg.counter(names::SVC_CLAIMS),
            accepted: reg.counter(names::SVC_CLAIMS_ACCEPTED),
            reprieved: reg.counter(names::SVC_CLAIMS_REPRIEVED),
            rejected: reg.counter(names::SVC_CLAIMS_REJECTED),
            certs_issued: reg.counter(names::SVC_CERTS_ISSUED),
            bad_certs: reg.counter(names::SVC_BAD_CERTS),
            not_ready: reg.counter(names::SVC_NOT_READY),
        }
    }
}

/// One claim queued for the batched vetting sweep.
struct PendingClaim {
    /// Index into the batch's reply slots.
    slot: usize,
    nonce: u64,
    sample: PeerSample,
}

/// The socket-free protocol engine. See the module docs.
pub struct ServiceCore {
    config: ServiceConfig,
    /// The daemon's own coordinate. Height 1.0 (not 0): the implied
    /// self-distance `2·height` must be a positive RTT so the daemon
    /// can self-certify through the same `Certifier::issue` path every
    /// other certificate takes.
    coordinate: Coordinate,
    surveyors: SurveyorRegistry,
    /// Armed by the first successful Surveyor registration.
    certifier: Option<Certifier>,
    /// The secured-update intake: one service-side node whose detector
    /// vets every inbound claim. Armed with the first Surveyor's
    /// calibrated parameters.
    node: Option<SecureNode<ServiceEmbedding>>,
    bank: DetectorBank,
    registry: Registry,
    counters: Counters,
    journal: Option<Journal>,
    /// Counter snapshot at the last journal tick.
    journaled: Snapshot,
    batches: u64,
    shutdown: bool,
}

impl ServiceCore {
    /// Build a core with the given config and no journal.
    pub fn new(config: ServiceConfig) -> Self {
        let mut registry = Registry::new();
        let counters = Counters::register(&mut registry);
        let dims = config.dims.max(1);
        Self {
            coordinate: Coordinate::new(vec![0.0; dims], 1.0),
            config,
            surveyors: SurveyorRegistry::new(),
            certifier: None,
            node: None,
            bank: DetectorBank::new(),
            journaled: registry.snapshot(),
            registry,
            counters,
            journal: None,
            batches: 0,
            shutdown: false,
        }
    }

    /// Attach a journal; `now` stamps the opening `meta` line.
    pub fn with_journal(mut self, mut journal: Journal, now: u64) -> Self {
        journal.meta(now, "svc", 1, self.config.auth_key);
        journal.flush();
        self.journaled = self.registry.snapshot();
        self.journal = Some(journal);
        self
    }

    /// The daemon's own coordinate claim.
    pub fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    /// Whether a valid [`Message::Shutdown`] has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Counter name/value pairs, registration order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.registry
            .counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect()
    }

    /// Process one poll cycle's datagrams: immediate replies for
    /// probes/calibration/registration/stats, one batched vetting
    /// sweep for every claim in the cycle. Returns one optional reply
    /// datagram per input, in order.
    pub fn process_batch(&mut self, datagrams: &[&[u8]], now: u64) -> Vec<Option<Vec<u8>>> {
        let mut replies: Vec<Option<Message>> = vec![None; datagrams.len()];
        let mut claims: Vec<PendingClaim> = Vec::new();

        for (slot, raw) in datagrams.iter().enumerate() {
            self.registry.inc(self.counters.rx);
            match decode(raw) {
                Ok(msg) => {
                    if let Some(reply) = self.dispatch(msg, slot, now, &mut claims) {
                        replies[slot] = Some(reply);
                    }
                }
                Err(e) => {
                    self.registry.inc(self.counters.decode_errors);
                    replies[slot] = Some(Message::Error { code: e.code() });
                }
            }
        }

        self.vet_claims(claims, &mut replies);
        self.journal_tick(now);

        replies
            .into_iter()
            .map(|msg| {
                let msg = msg?;
                match encode(&msg) {
                    Ok(bytes) => {
                        self.registry.inc(self.counters.tx);
                        Some(bytes)
                    }
                    // An unencodable reply is a daemon bug, but the
                    // failure policy still holds: drop, don't panic.
                    Err(_) => None,
                }
            })
            .collect()
    }

    /// Route one well-formed message. Claims are queued, everything
    /// else is answered immediately.
    fn dispatch(
        &mut self,
        msg: Message,
        slot: usize,
        now: u64,
        claims: &mut Vec<PendingClaim>,
    ) -> Option<Message> {
        match msg {
            Message::ProbeRequest { nonce } => {
                self.registry.inc(self.counters.probes);
                let certificate = self.self_certificate(now);
                let local_error = self.node.as_ref().map_or(0.0, |n| n.inner().local_error());
                Some(Message::ProbeReply {
                    nonce,
                    coordinate: self.coordinate.clone(),
                    local_error,
                    certificate,
                })
            }
            Message::CalibrationRequest { coordinate, .. } => {
                self.registry.inc(self.counters.calibrations);
                let chosen = match &coordinate {
                    Some(c) => self.surveyors.closest_by_coordinate(c),
                    None => self.surveyors.all().first(),
                };
                match chosen {
                    Some(info) => Some(Message::CalibrationReply {
                        surveyor: info.id as u64,
                        params: info.params,
                        issued_at: now,
                    }),
                    None => Some(Message::Error {
                        code: wire::service_code::NO_SURVEYOR,
                    }),
                }
            }
            Message::SurveyorRegister {
                surveyor,
                coordinate,
                params,
            } => {
                let id = usize::try_from(surveyor).unwrap_or(usize::MAX);
                let registered = params.check().is_ok() && id != usize::MAX;
                if registered {
                    self.registry.inc(self.counters.registrations);
                    self.surveyors.register(SurveyorInfo {
                        id,
                        coordinate,
                        params,
                    });
                    // First registration arms certification and the
                    // secured-update intake with the calibrated params.
                    if self.certifier.is_none() {
                        self.certifier = Certifier::new(
                            id,
                            self.config.auth_key,
                            self.config.cert_ttl,
                            self.config.cert_tolerance,
                        )
                        .ok();
                    }
                    // An invalid security config leaves the intake
                    // unarmed: every claim is answered `NotReady`.
                    // `Daemon::bind` refuses such a config up front.
                    if self.node.is_none() {
                        self.node = SecureNode::new(
                            ServiceEmbedding {
                                coordinate: self.coordinate.clone(),
                                local_error: 0.1,
                            },
                            params,
                            id,
                            self.config.security,
                        )
                        .ok();
                    }
                    if let Some(j) = self.journal.as_mut() {
                        j.node_event(now, "surveyor_register", id);
                    }
                }
                Some(Message::RegisterAck {
                    surveyor,
                    registered,
                })
            }
            Message::UpdateClaim {
                client,
                nonce,
                coordinate,
                peer_error,
                rtt_ms,
                certificate,
            } => {
                self.registry.inc(self.counters.claims);
                if let Some(cert) = &certificate {
                    if !self.certificate_ok(cert, &coordinate, now) {
                        self.registry.inc(self.counters.bad_certs);
                        return Some(Message::UpdateVerdict {
                            nonce,
                            disposition: Disposition::BadCertificate,
                            innovation: 0.0,
                            threshold: 0.0,
                        });
                    }
                }
                if self.node.is_none() {
                    self.registry.inc(self.counters.not_ready);
                    return Some(Message::UpdateVerdict {
                        nonce,
                        disposition: Disposition::NotReady,
                        innovation: 0.0,
                        threshold: 0.0,
                    });
                }
                claims.push(PendingClaim {
                    slot,
                    nonce,
                    sample: PeerSample {
                        peer: usize::try_from(client).unwrap_or(usize::MAX),
                        peer_coord: coordinate,
                        peer_error,
                        rtt_ms,
                    },
                });
                None // answered by the batched sweep
            }
            Message::StatsRequest => Some(Message::StatsReply {
                counters: self.counters(),
            }),
            Message::Shutdown { token } => {
                if token == self.config.shutdown_token {
                    self.shutdown = true;
                    self.journal_summary(now);
                    Some(Message::StatsReply {
                        counters: self.counters(),
                    })
                } else {
                    Some(Message::Error {
                        code: wire::service_code::BAD_TOKEN,
                    })
                }
            }
            // Reply-typed messages are not requests; answer with the
            // same typed-error channel malformed datagrams use.
            Message::ProbeReply { .. }
            | Message::CalibrationReply { .. }
            | Message::RegisterAck { .. }
            | Message::UpdateVerdict { .. }
            | Message::StatsReply { .. }
            | Message::Error { .. } => Some(Message::Error {
                code: wire::service_code::UNEXPECTED,
            }),
        }
    }

    /// Run the cycle's queued claims through one `vet_sequences` sweep
    /// (a single service-side node; its sequence is the claims in
    /// arrival order) and fill in the verdict replies.
    fn vet_claims(&mut self, claims: Vec<PendingClaim>, replies: &mut [Option<Message>]) {
        if claims.is_empty() {
            return;
        }
        let Some(node) = self.node.as_mut() else {
            return; // dispatch() only queues claims while armed
        };
        // The samples move into the sweep; each claim's reply slot and
        // nonce stay behind, in claim order.
        let (events, routes): (Vec<VetEvent>, Vec<(usize, u64)>) = claims
            .into_iter()
            .map(|c| (VetEvent::Sample(c.sample), (c.slot, c.nonce)))
            .unzip();
        // Every event is a sample, so every claim gets exactly one step.
        let (registry, counters) = (&mut self.registry, &self.counters);
        vet_sequences(&mut self.bank, &mut [node], &[events], |_, k, step| {
            let (disposition, innovation, threshold) = match &step {
                SecureStep::Accepted { verdict, .. } => {
                    registry.inc(counters.accepted);
                    (Disposition::Accepted, verdict.innovation, verdict.threshold)
                }
                SecureStep::Reprieved { verdict, .. } => {
                    registry.inc(counters.reprieved);
                    (
                        Disposition::Reprieved,
                        verdict.innovation,
                        verdict.threshold,
                    )
                }
                SecureStep::Rejected { verdict } => {
                    registry.inc(counters.rejected);
                    (Disposition::Rejected, verdict.innovation, verdict.threshold)
                }
            };
            let (slot, nonce) = routes[k];
            if let Some(out) = replies.get_mut(slot) {
                *out = Some(Message::UpdateVerdict {
                    nonce,
                    disposition,
                    innovation,
                    threshold,
                });
            }
        });
    }

    /// A certificate over the daemon's own coordinate, when armed. The
    /// implied self-distance is `2·height` (> 0 by construction), and
    /// the daemon "measures" exactly that — zero disagreement, so
    /// issuance succeeds whenever the certifier exists.
    fn self_certificate(&mut self, now: u64) -> Option<CoordinateCertificate> {
        let certifier = self.certifier.as_ref()?;
        let implied = self.coordinate.distance(&self.coordinate);
        let cert = certifier
            .issue(0, &self.coordinate, &self.coordinate, implied, now)
            .ok()?;
        self.registry.inc(self.counters.certs_issued);
        Some(cert)
    }

    /// Verify a claim-attached certificate: valid tag and freshness,
    /// and it must actually cover the coordinate being claimed.
    fn certificate_ok(&self, cert: &CoordinateCertificate, claimed: &Coordinate, now: u64) -> bool {
        let Some(certifier) = self.certifier.as_ref() else {
            return false; // nothing to verify against yet
        };
        certifier.verify(cert, now).is_ok() && &cert.coordinate == claimed
    }

    /// Journal a `tick` line of counter deltas every few batches, so a
    /// killed daemon loses at most one flush window (the satellite-1
    /// contract: the flushed prefix is always whole lines).
    fn journal_tick(&mut self, now: u64) {
        self.batches += 1;
        if !self.batches.is_multiple_of(64) {
            return;
        }
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let deltas = self.registry.delta(&self.journaled);
        journal.tick(now, &deltas, &[]);
        journal.flush();
        self.journaled = self.registry.snapshot();
    }

    /// Journal the closing `summary` line and flush — the daemon's
    /// shutdown path.
    fn journal_summary(&mut self, now: u64) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let counters: Vec<(&'static str, u64)> = self.registry.counters().collect();
        journal.summary(now, &counters, &[]);
        journal.flush();
    }
}

/// Most datagrams drained per poll cycle before a vetting sweep runs.
const BATCH_MAX: usize = 64;

/// How long one `recv` waits before the loop re-checks for shutdown.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);

/// The UDP front end: a bound socket, a clock, and a recv/dispatch/send
/// loop around [`ServiceCore::process_batch`].
pub struct Daemon {
    core: ServiceCore,
    socket: UdpSocket,
    clock: ServiceClockBox,
}

/// The daemon's clock, boxed so tests can substitute `TickClock`.
type ServiceClockBox = Box<dyn Clock + Send>;

impl Daemon {
    /// Bind to `addr` (use port 0 for an ephemeral port) with a real
    /// wall clock.
    pub fn bind(addr: impl ToSocketAddrs, config: ServiceConfig) -> io::Result<Self> {
        Self::bind_with_clock(addr, config, Box::new(crate::ServiceClock::new()))
    }

    /// Bind with an explicit clock (tests use `ices_obs::TickClock`).
    ///
    /// # Errors
    /// An invalid security config is refused with
    /// [`io::ErrorKind::InvalidInput`] before any socket is bound.
    pub fn bind_with_clock(
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        clock: ServiceClockBox,
    ) -> io::Result<Self> {
        config
            .security
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(POLL_TIMEOUT))?;
        Ok(Self {
            core: ServiceCore::new(config),
            socket,
            clock,
        })
    }

    /// Attach a journal to the daemon's core.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        let now = self.clock.now();
        self.core = self.core.with_journal(journal, now);
        self
    }

    /// The bound address (clients need the ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Shared access to the protocol core (tests, stats).
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Serve until a valid [`Message::Shutdown`] arrives. Each cycle
    /// drains up to [`BATCH_MAX`] datagrams (blocking at most
    /// [`POLL_TIMEOUT`] for the first), vets, replies.
    pub fn run(&mut self) -> io::Result<()> {
        // One receive buffer, one byte larger than the wire cap so an
        // oversized datagram is *detected* (recv fills > MAX_DATAGRAM
        // bytes -> decode refuses) rather than silently truncated.
        let mut buf = [0u8; wire::MAX_DATAGRAM + 1];
        let mut datagrams: Vec<(Vec<u8>, SocketAddr)> = Vec::with_capacity(BATCH_MAX);
        while !self.core.shutdown_requested() {
            datagrams.clear();
            // Block (briefly) for the first datagram of the cycle...
            match self.socket.recv_from(&mut buf) {
                Ok((len, from)) => datagrams.push((buf[..len].to_vec(), from)),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
            // ...then drain whatever else is already queued without
            // waiting: latency stays at syscall scale while bursts
            // still coalesce into one vetting sweep.
            self.socket.set_nonblocking(true)?;
            while datagrams.len() < BATCH_MAX {
                match self.socket.recv_from(&mut buf) {
                    Ok((len, from)) => datagrams.push((buf[..len].to_vec(), from)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        let _ = self.socket.set_nonblocking(false);
                        return Err(e);
                    }
                }
            }
            self.socket.set_nonblocking(false)?;
            let now = self.clock.now();
            let raw: Vec<&[u8]> = datagrams.iter().map(|(d, _)| d.as_slice()).collect();
            let replies = self.core.process_batch(&raw, now);
            for (reply, (_, from)) in replies.into_iter().zip(datagrams.iter()) {
                if let Some(bytes) = reply {
                    // A vanished client must not stop the loop.
                    let _ = self.socket.send_to(&bytes, from);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_core::StateSpaceParams;

    #[test]
    fn bind_refuses_an_invalid_security_config() {
        let mut config = ServiceConfig::default();
        config.security.alpha = 1.5;
        let err = Daemon::bind("127.0.0.1:0", config)
            .err()
            .expect("invalid alpha");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("alpha"), "message: {err}");
    }

    fn params() -> StateSpaceParams {
        StateSpaceParams {
            beta: 0.8,
            v_w: 0.001,
            v_u: 0.001,
            w_bar: 0.02,
            w0: 0.1,
            p0: 0.01,
        }
    }

    fn one(core: &mut ServiceCore, msg: &Message, now: u64) -> Message {
        let bytes = encode(msg).unwrap_or_else(|e| panic!("{e}"));
        let replies = core.process_batch(&[&bytes], now);
        let reply = replies
            .into_iter()
            .next()
            .flatten()
            .unwrap_or_else(|| panic!("no reply to {msg:?}"));
        decode(&reply).unwrap_or_else(|e| panic!("{e}"))
    }

    fn register_surveyor(core: &mut ServiceCore) {
        let ack = one(
            core,
            &Message::SurveyorRegister {
                surveyor: 7,
                coordinate: Coordinate::new(vec![10.0, 10.0], 0.5),
                params: params(),
            },
            0,
        );
        assert_eq!(
            ack,
            Message::RegisterAck {
                surveyor: 7,
                registered: true
            }
        );
    }

    fn claim(client: u64, nonce: u64, daemon: &Coordinate, delta: f64) -> Message {
        // Claim a coordinate whose implied distance disagrees with the
        // reported RTT by exactly `delta` relative error.
        let coord = Coordinate::new(vec![50.0, 0.0], 0.0);
        let implied = daemon.distance(&coord);
        Message::UpdateClaim {
            client,
            nonce,
            coordinate: coord,
            peer_error: 0.2,
            rtt_ms: implied / (1.0 + delta),
            certificate: None,
        }
    }

    #[test]
    fn probe_has_no_certificate_until_a_surveyor_registers() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let reply = one(&mut core, &Message::ProbeRequest { nonce: 3 }, 0);
        match reply {
            Message::ProbeReply {
                nonce, certificate, ..
            } => {
                assert_eq!(nonce, 3);
                assert!(certificate.is_none());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        register_surveyor(&mut core);
        let reply = one(&mut core, &Message::ProbeRequest { nonce: 4 }, 5);
        match reply {
            Message::ProbeReply { certificate, .. } => {
                let cert = certificate.unwrap_or_else(|| panic!("no certificate after arming"));
                assert_eq!(cert.issued_at, 5);
                assert_eq!(cert.issuer, 7);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn calibration_is_refused_then_served() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let reply = one(
            &mut core,
            &Message::CalibrationRequest {
                node: 1,
                coordinate: None,
            },
            0,
        );
        assert_eq!(
            reply,
            Message::Error {
                code: wire::service_code::NO_SURVEYOR
            }
        );
        register_surveyor(&mut core);
        let reply = one(
            &mut core,
            &Message::CalibrationRequest {
                node: 1,
                coordinate: Some(Coordinate::new(vec![9.0, 9.0], 0.1)),
            },
            1,
        );
        assert_eq!(
            reply,
            Message::CalibrationReply {
                surveyor: 7,
                params: params(),
                issued_at: 1
            }
        );
    }

    #[test]
    fn invalid_surveyor_params_are_refused() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let mut bad = params();
        bad.beta = 1.5; // non-stationary
        let ack = one(
            &mut core,
            &Message::SurveyorRegister {
                surveyor: 7,
                coordinate: Coordinate::new(vec![1.0, 1.0], 0.0),
                params: bad,
            },
            0,
        );
        assert_eq!(
            ack,
            Message::RegisterAck {
                surveyor: 7,
                registered: false
            }
        );
    }

    #[test]
    fn claims_before_arming_get_not_ready() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let msg = claim(1, 11, &core.coordinate().clone(), 0.1);
        let reply = one(&mut core, &msg, 0);
        match reply {
            Message::UpdateVerdict {
                nonce, disposition, ..
            } => {
                assert_eq!(nonce, 11);
                assert_eq!(disposition, Disposition::NotReady);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn honest_claims_accepted_liar_claims_rejected() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        register_surveyor(&mut core);
        // A handful of honest claims near the calibrated error level.
        for i in 0..5u64 {
            let msg = claim(i, 100 + i, &core.coordinate().clone(), 0.1);
            let reply = one(&mut core, &msg, i);
            match reply {
                Message::UpdateVerdict { disposition, .. } => {
                    assert_eq!(disposition, Disposition::Accepted, "claim {i}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        // A liar far off the model: must be rejected, not reprieved.
        let msg = claim(99, 999, &core.coordinate().clone(), 5.0);
        let reply = one(&mut core, &msg, 9);
        match reply {
            Message::UpdateVerdict {
                disposition,
                innovation,
                threshold,
                ..
            } => {
                assert_eq!(disposition, Disposition::Rejected);
                assert!(innovation.abs() > threshold);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let counters = core.counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("svc.claims"), 6);
        assert_eq!(get("svc.claims_accepted"), 5);
        assert_eq!(get("svc.claims_rejected"), 1);
    }

    /// Client id `u64::MAX` is an ordinary wire value: its claims go
    /// through the same vetting — first-time reprieve included — as the
    /// same claims from any other new client.
    #[test]
    fn claims_from_the_largest_client_id_are_vetted_like_any_other() {
        let verdicts = |subject: u64| {
            let mut core = ServiceCore::new(ServiceConfig::default());
            register_surveyor(&mut core);
            let daemon = core.coordinate().clone();
            // A moderate deviation (0.22) earns a first-time client a
            // reprieve and a known one a rejection.
            let script = [
                (0, 0.1),
                (1, 0.1),
                (subject, 0.22),
                (subject, 0.22),
                (2, 0.22),
                (subject, 0.1),
                (subject, 5.0),
                (3, 0.1),
            ];
            script
                .iter()
                .enumerate()
                .map(|(i, &(client, delta))| {
                    match one(
                        &mut core,
                        &claim(client, i as u64, &daemon, delta),
                        i as u64,
                    ) {
                        Message::UpdateVerdict {
                            disposition,
                            innovation,
                            threshold,
                            ..
                        } => (disposition, innovation.to_bits(), threshold.to_bits()),
                        other => panic!("unexpected reply {other:?}"),
                    }
                })
                .collect::<Vec<_>>()
        };
        let largest = verdicts(u64::MAX);
        assert_eq!(largest, verdicts(42));
        let dispositions: Vec<Disposition> = largest.iter().map(|v| v.0).collect();
        assert_eq!(
            dispositions,
            [
                Disposition::Accepted,
                Disposition::Accepted,
                Disposition::Reprieved,
                Disposition::Rejected,
                Disposition::Reprieved,
                Disposition::Accepted,
                Disposition::Rejected,
                Disposition::Accepted,
            ]
        );
    }

    #[test]
    fn forged_certificates_are_flagged() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        register_surveyor(&mut core);
        let coord = Coordinate::new(vec![50.0, 0.0], 0.0);
        let forged = CoordinateCertificate {
            node: 99,
            coordinate: coord.clone(),
            issuer: 7,
            issued_at: 0,
            ttl: 1000,
            tag: 0xBAD, // not the keyed tag
        };
        let implied = core.coordinate().distance(&coord);
        let reply = one(
            &mut core,
            &Message::UpdateClaim {
                client: 99,
                nonce: 1,
                coordinate: coord,
                peer_error: 0.2,
                rtt_ms: implied / 1.1,
                certificate: Some(forged),
            },
            0,
        );
        match reply {
            Message::UpdateVerdict { disposition, .. } => {
                assert_eq!(disposition, Disposition::BadCertificate);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn genuine_probe_certificate_validates_on_a_claim() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        register_surveyor(&mut core);
        // Fetch the daemon's own certified coordinate...
        let reply = one(&mut core, &Message::ProbeRequest { nonce: 1 }, 10);
        let Message::ProbeReply {
            coordinate,
            certificate: Some(cert),
            ..
        } = reply
        else {
            panic!("expected certified probe reply, got {reply:?}");
        };
        // ...and claim exactly that coordinate with its certificate.
        let implied = core.coordinate().distance(&coordinate).max(0.001);
        let reply = one(
            &mut core,
            &Message::UpdateClaim {
                client: 0,
                nonce: 2,
                coordinate,
                peer_error: 0.2,
                rtt_ms: implied / 1.1,
                certificate: Some(cert),
            },
            11,
        );
        match reply {
            Message::UpdateVerdict { disposition, .. } => {
                assert_ne!(disposition, Disposition::BadCertificate);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn shutdown_needs_the_token_and_reports_final_stats() {
        let mut core = ServiceCore::new(ServiceConfig {
            shutdown_token: 0xFEED,
            ..ServiceConfig::default()
        });
        let reply = one(&mut core, &Message::Shutdown { token: 1 }, 0);
        assert_eq!(
            reply,
            Message::Error {
                code: wire::service_code::BAD_TOKEN
            }
        );
        assert!(!core.shutdown_requested());
        let reply = one(&mut core, &Message::Shutdown { token: 0xFEED }, 1);
        assert!(matches!(reply, Message::StatsReply { .. }));
        assert!(core.shutdown_requested());
    }

    #[test]
    fn malformed_datagrams_get_typed_errors_not_panics() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let garbage: &[&[u8]] = &[&[], &[9, 1, 2, 3], &[1, 200], &[1]];
        let replies = core.process_batch(garbage, 0);
        for (raw, reply) in garbage.iter().zip(&replies) {
            let bytes = reply
                .as_ref()
                .unwrap_or_else(|| panic!("no reply to {raw:?}"));
            match decode(bytes) {
                Ok(Message::Error { code }) => assert!(code > 0),
                other => panic!("expected typed error for {raw:?}, got {other:?}"),
            }
        }
        let counters = core.counters();
        let errors = counters
            .iter()
            .find(|(n, _)| n == "svc.decode_errors")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(errors, garbage.len() as u64);
    }

    #[test]
    fn reply_typed_messages_are_answered_with_unexpected() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        let reply = one(&mut core, &Message::StatsReply { counters: vec![] }, 0);
        assert_eq!(
            reply,
            Message::Error {
                code: wire::service_code::UNEXPECTED
            }
        );
    }
}
