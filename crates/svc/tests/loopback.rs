//! Loopback integration tests: a real daemon on a real UDP socket.
//!
//! The adversarial contract under test: nothing a client puts on the
//! wire — garbage bytes, truncated frames, oversized datagrams, forged
//! certificates, wrong shutdown tokens — may panic the daemon or go
//! unanswered without a typed reply. The daemon thread is joined at the
//! end of every test, so a panic anywhere in the serve loop fails the
//! test rather than leaking.

// Test plumbing (not a library): socket setup failures should fail
// loudly with their cause, exactly what expect() is for.
#![allow(clippy::expect_used)]

use ices_coord::Coordinate;
use ices_core::wire::{self, decode, encode, Disposition, Message, MAX_DATAGRAM};
use ices_core::{CoordinateCertificate, StateSpaceParams};
use ices_svc::{client_claim, ClientPlan, Daemon, ServiceConfig};
use std::net::UdpSocket;
use std::time::Duration;

const TOKEN: u64 = 0x5EC_0FF;

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

/// Spawn a daemon on an ephemeral loopback port; return its address and
/// the join handle the test must reap.
fn spawn_daemon() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = ServiceConfig {
        shutdown_token: TOKEN,
        ..ServiceConfig::default()
    };
    let mut daemon = Daemon::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = daemon.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || daemon.run());
    (addr, handle)
}

fn client_socket() -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("client bind");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    sock
}

fn rpc(sock: &UdpSocket, addr: &str, msg: &Message) -> Message {
    send_raw(sock, addr, &encode(msg).expect("encode"))
        .unwrap_or_else(|| panic!("no reply to {msg:?}"))
}

/// Send raw bytes, return the decoded reply (None on timeout).
fn send_raw(sock: &UdpSocket, addr: &str, bytes: &[u8]) -> Option<Message> {
    sock.send_to(bytes, addr).expect("send");
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    let (len, _) = sock.recv_from(&mut buf).ok()?;
    Some(decode(&buf[..len]).expect("reply decodes"))
}

fn shutdown(sock: &UdpSocket, addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = rpc(sock, addr, &Message::Shutdown { token: TOKEN });
    assert!(
        matches!(reply, Message::StatsReply { .. }),
        "shutdown must return final stats, got {reply:?}"
    );
    handle
        .join()
        .expect("daemon must not panic")
        .expect("daemon serve loop must not error");
}

fn register(sock: &UdpSocket, addr: &str) -> Coordinate {
    let ack = rpc(
        sock,
        addr,
        &Message::SurveyorRegister {
            surveyor: 3,
            coordinate: Coordinate::new(vec![5.0, 5.0], 0.2),
            params: params(),
        },
    );
    assert_eq!(
        ack,
        Message::RegisterAck {
            surveyor: 3,
            registered: true
        }
    );
    match rpc(sock, addr, &Message::ProbeRequest { nonce: 1 }) {
        Message::ProbeReply { coordinate, .. } => coordinate,
        other => panic!("unexpected probe reply {other:?}"),
    }
}

#[test]
fn malformed_datagrams_get_typed_errors_and_the_daemon_survives() {
    let (addr, handle) = spawn_daemon();
    let sock = client_socket();

    let cases: &[(&str, Vec<u8>)] = &[
        ("empty", vec![]),
        ("bad version", vec![9, 1, 2, 3]),
        ("bad tag", vec![1, 200]),
        ("truncated probe", vec![1, 1, 7]),
        ("oversized", vec![0xAB; MAX_DATAGRAM + 40]),
        ("garbage", (0..64u8).map(|i| i.wrapping_mul(37)).collect()),
    ];
    for (name, bytes) in cases {
        let reply =
            send_raw(&sock, &addr, bytes).unwrap_or_else(|| panic!("{name}: daemon sent no reply"));
        match reply {
            Message::Error { code } => assert!(code > 0, "{name}: error code must be set"),
            other => panic!("{name}: expected typed error, got {other:?}"),
        }
    }

    // The daemon is still fully functional afterwards.
    let reply = rpc(&sock, &addr, &Message::ProbeRequest { nonce: 42 });
    assert!(matches!(reply, Message::ProbeReply { nonce: 42, .. }));
    shutdown(&sock, &addr, handle);
}

#[test]
fn full_protocol_round_trip_over_loopback() {
    let (addr, handle) = spawn_daemon();
    let sock = client_socket();

    // Calibration is refused before any surveyor exists...
    let reply = rpc(
        &sock,
        &addr,
        &Message::CalibrationRequest {
            node: 1,
            coordinate: None,
        },
    );
    assert_eq!(
        reply,
        Message::Error {
            code: wire::service_code::NO_SURVEYOR
        }
    );

    // ...then served once one registers.
    let daemon_coord = register(&sock, &addr);
    let reply = rpc(
        &sock,
        &addr,
        &Message::CalibrationRequest {
            node: 1,
            coordinate: Some(Coordinate::new(vec![4.0, 4.0], 0.0)),
        },
    );
    match reply {
        Message::CalibrationReply {
            surveyor,
            params: p,
            ..
        } => {
            assert_eq!(surveyor, 3);
            assert_eq!(p, params());
        }
        other => panic!("unexpected calibration reply {other:?}"),
    }

    // Honest claims pass the detector, liars do not.
    let honest = ClientPlan::derive(61, 5, 0, &daemon_coord);
    let reply = rpc(&sock, &addr, &client_claim(&honest, 100));
    match reply {
        Message::UpdateVerdict {
            nonce, disposition, ..
        } => {
            assert_eq!(nonce, 100);
            assert_eq!(disposition, Disposition::Accepted);
        }
        other => panic!("unexpected verdict {other:?}"),
    }
    let liar = ClientPlan::derive(61, 6, 1000, &daemon_coord);
    assert!(liar.liar);
    let reply = rpc(&sock, &addr, &client_claim(&liar, 101));
    match reply {
        Message::UpdateVerdict { disposition, .. } => {
            assert_eq!(disposition, Disposition::Rejected);
        }
        other => panic!("unexpected verdict {other:?}"),
    }

    // A forged certificate is flagged before the detector even runs.
    let coord = Coordinate::new(vec![40.0, 0.0], 0.0);
    let implied = daemon_coord.distance(&coord);
    let reply = rpc(
        &sock,
        &addr,
        &Message::UpdateClaim {
            client: 9,
            nonce: 102,
            coordinate: coord.clone(),
            peer_error: 0.2,
            rtt_ms: implied / 1.1,
            certificate: Some(CoordinateCertificate {
                node: 9,
                coordinate: coord,
                issuer: 3,
                issued_at: 0,
                ttl: 60_000,
                tag: 0xF0F0,
            }),
        },
    );
    match reply {
        Message::UpdateVerdict { disposition, .. } => {
            assert_eq!(disposition, Disposition::BadCertificate);
        }
        other => panic!("unexpected verdict {other:?}"),
    }

    // Stats reflect what happened; a bad shutdown token is refused.
    let reply = rpc(&sock, &addr, &Message::StatsRequest);
    let Message::StatsReply { counters } = reply else {
        panic!("unexpected stats reply");
    };
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("svc.claims"), 3);
    assert_eq!(get("svc.claims_accepted"), 1);
    assert_eq!(get("svc.claims_rejected"), 1);
    assert_eq!(get("svc.bad_certs"), 1);
    assert_eq!(get("svc.registrations"), 1);

    let reply = rpc(&sock, &addr, &Message::Shutdown { token: TOKEN + 1 });
    assert_eq!(
        reply,
        Message::Error {
            code: wire::service_code::BAD_TOKEN
        }
    );
    shutdown(&sock, &addr, handle);
}
