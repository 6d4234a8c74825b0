//! The daemon workload (`svc_loopback`): the `icesd` binary in its own
//! process, driven over loopback UDP by one closed-loop generator.
//!
//! One *cell* spawns a fresh daemon, registers a Surveyor, waits for
//! the first certified probe reply (the set-up), then streams the whole
//! client population through it with a window of [`WINDOW`] requests
//! outstanding, fetches the daemon's counters and shuts it down. Every
//! client sends a certified probe and then a claim; about 10% of the
//! clients lie.
//!
//! A traced run also replays the cell's datagram stream in process,
//! through `wire::{decode, encode}` and `ServiceCore::process_batch`,
//! to split the daemon's per-datagram cost into codec, core and socket
//! loop.

use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ices_coord::Coordinate;
use ices_core::wire::{decode, encode, Disposition, Message, MAX_DATAGRAM};
use ices_core::StateSpaceParams;
use ices_svc::{client_claim, ClientPlan, ServiceConfig, ServiceCore};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::UdpSocket;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests kept outstanding by the generator (at most the daemon's
/// per-cycle drain of 64, so a window's burst is vetted together).
const WINDOW: usize = 16;

/// Per-client probability (‰) of a liar.
const LIAR_PERMILLE: u32 = 100;

/// Shared secret the benchmark's daemons accept for `Shutdown`.
const TOKEN: u64 = 0x0BE4_C4ED;

/// How long the generator waits for any reply before it gives up on a
/// cell.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on recorded per-request spans, so a traced run's span file
/// stays a few megabytes.
const REQUEST_SPANS_MAX: usize = 50_000;

/// Replays of the in-process layer measurements; the median is kept.
const REPLAYS: usize = 5;

/// Clients per cell. Cells are short (about 0.2 s) so a run holds ~100
/// of them, and the per-cell medians ride out the host's slow phases
/// as long as those cover under half of the run.
fn clients(smoke: bool) -> u64 {
    if smoke {
        5_000
    } else {
        20_000
    }
}

/// The calibration the benchmark's Surveyor registers with — the
/// parameters `loadgen` uses.
fn surveyor_params() -> StateSpaceParams {
    StateSpaceParams {
        beta: 0.8,
        v_w: 0.001,
        v_u: 0.001,
        w_bar: 0.02,
        w0: 0.1,
        p0: 0.01,
    }
}

fn register_message() -> Message {
    Message::SurveyorRegister {
        surveyor: 0,
        coordinate: Coordinate::new(vec![0.0, 0.0], 0.5),
        params: surveyor_params(),
    }
}

/// The request stream of one population: probe `2c`, claim `2c + 1`
/// for client `c`, so a datagram's index is its nonce.
struct Stream {
    datagrams: Vec<Vec<u8>>,
    liar: Vec<bool>,
}

impl Stream {
    fn build(seed: u64, clients: u64, daemon: &Coordinate) -> Result<Self, String> {
        let mut datagrams = Vec::with_capacity(2 * clients as usize);
        let mut liar = Vec::with_capacity(clients as usize);
        for id in 0..clients {
            let plan = ClientPlan::derive(seed, id, LIAR_PERMILLE, daemon);
            for msg in [
                Message::ProbeRequest { nonce: 2 * id },
                client_claim(&plan, 2 * id + 1),
            ] {
                datagrams.push(encode(&msg).map_err(|e| format!("encode request: {e}"))?);
            }
            liar.push(plan.liar);
        }
        Ok(Self { datagrams, liar })
    }
}

/// A spawned daemon; dropping it kills and reaps the process.
struct DaemonProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl DaemonProcess {
    fn spawn(args: &Args) -> Result<(Self, String), String> {
        let icesd = args.icesd.display().to_string();
        let token = TOKEN.to_string();
        let daemon_args = ["--addr", "127.0.0.1:0", "--token", &token];
        let mut cmd = match args.daemon_cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(&icesd);
                c
            }
            None => Command::new(&icesd),
        };
        let mut child = cmd
            .args(daemon_args)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {icesd}: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Self {
            child,
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("icesd listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok((daemon, addr))
    }

    /// Wait for a daemon that was told to shut down; kill it if it
    /// does not exit in time.
    fn finish(mut self) -> Result<(), String> {
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon ignored shutdown".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn rpc(sock: &UdpSocket, msg: &Message) -> Result<Message, String> {
    let bytes = encode(msg).map_err(|e| format!("encode: {e}"))?;
    sock.send(&bytes).map_err(|e| format!("send: {e}"))?;
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    let len = sock.recv(&mut buf).map_err(|e| format!("recv: {e}"))?;
    decode(&buf[..len]).map_err(|e| format!("decode: {e}"))
}

/// Spawn a daemon, register the Surveyor and fetch one certified probe
/// reply. Returns the daemon, the connected generator socket and the
/// daemon's coordinate.
fn set_up(args: &Args) -> Result<(DaemonProcess, UdpSocket, Coordinate), String> {
    let (daemon, addr) = DaemonProcess::spawn(args)?;
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    sock.connect(&addr)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    sock.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    match rpc(&sock, &register_message())? {
        Message::RegisterAck {
            registered: true, ..
        } => {}
        other => return Err(format!("surveyor registration refused: {other:?}")),
    }
    match rpc(&sock, &Message::ProbeRequest { nonce: u64::MAX })? {
        Message::ProbeReply {
            coordinate,
            certificate: Some(_),
            ..
        } => Ok((daemon, sock, coordinate)),
        other => Err(format!("no certified probe reply: {other:?}")),
    }
}

/// What one cell measured.
struct Cell {
    traced: bool,
    cell_s: f64,
    lat_ns: Vec<u64>,
    claims: u64,
    liar_claims: u64,
    liar_flagged: u64,
    honest_claims: u64,
    honest_flagged: u64,
    failed: u64,
    counters: Vec<(String, u64)>,
}

/// Check one reply against the request it answers; `Err` names what
/// is wrong.
fn check_reply(msg: &Message, index: u64, liar: bool) -> Result<Option<Disposition>, String> {
    match msg {
        Message::ProbeReply {
            nonce,
            certificate: Some(_),
            ..
        } if index.is_multiple_of(2) && *nonce == index => Ok(None),
        Message::UpdateVerdict {
            nonce, disposition, ..
        } if index % 2 == 1 && *nonce == index => match (liar, disposition) {
            (true, Disposition::Accepted) => Err("liar accepted".into()),
            (false, Disposition::Rejected) => Err("honest client rejected".into()),
            (_, Disposition::BadCertificate | Disposition::NotReady) => {
                Err(format!("unexpected disposition {disposition:?}"))
            }
            _ => Ok(Some(*disposition)),
        },
        other => Err(format!("reply {other:?} does not answer request {index}")),
    }
}

/// Stream the population through the daemon, closed loop.
fn drive(
    sock: &UdpSocket,
    stream: &Stream,
    tracer: &mut Tracer,
    parent: u64,
    span_budget: &mut usize,
) -> Result<Cell, String> {
    let total = stream.datagrams.len();
    let mut cell = Cell {
        traced: tracer.enabled(),
        cell_s: 0.0,
        lat_ns: Vec::with_capacity(total),
        claims: 0,
        liar_claims: 0,
        liar_flagged: 0,
        honest_claims: 0,
        honest_flagged: 0,
        failed: 0,
        counters: Vec::new(),
    };
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    let mut sent = 0;
    let start = Instant::now();
    let mut last = start;
    while sent < total || !outstanding.is_empty() {
        while sent < total && outstanding.len() < WINDOW {
            let t = Instant::now();
            sock.send(&stream.datagrams[sent])
                .map_err(|e| format!("send: {e}"))?;
            outstanding.push_back((sent, t));
            sent += 1;
        }
        let len = match sock.recv(&mut buf) {
            Ok(len) => len,
            Err(e) => {
                // Give up on the cell: everything not answered fails.
                println!("perfbench: CHECK FAILED: recv: {e}");
                cell.failed += (outstanding.len() + total - sent) as u64;
                break;
            }
        };
        let now = Instant::now();
        last = now;
        let msg = match decode(&buf[..len]) {
            Ok(m) => m,
            Err(e) => {
                println!("perfbench: CHECK FAILED: undecodable reply: {e}");
                cell.failed += 1;
                continue;
            }
        };
        let nonce = match &msg {
            Message::ProbeReply { nonce, .. } | Message::UpdateVerdict { nonce, .. } => *nonce,
            _ => u64::MAX,
        };
        let Some(pos) = outstanding.iter().position(|&(i, _)| i as u64 == nonce) else {
            println!("perfbench: CHECK FAILED: reply with unknown nonce: {msg:?}");
            cell.failed += 1;
            continue;
        };
        let Some((index, sent_at)) = outstanding.remove(pos) else {
            continue;
        };
        cell.lat_ns
            .push(u64::try_from((now - sent_at).as_nanos()).unwrap_or(u64::MAX));
        if *span_budget > 0 {
            tracer.record_leaf("svc.request", parent, sent_at, now);
            *span_budget -= usize::from(tracer.enabled());
        }
        let liar = stream.liar[index / 2];
        match check_reply(&msg, index as u64, liar) {
            Ok(None) => {}
            Ok(Some(disposition)) => {
                cell.claims += 1;
                let flagged = disposition != Disposition::Accepted;
                if liar {
                    cell.liar_claims += 1;
                    cell.liar_flagged += u64::from(flagged);
                } else {
                    cell.honest_claims += 1;
                    cell.honest_flagged += u64::from(flagged);
                }
            }
            Err(why) => {
                if cell.failed < 5 {
                    println!("perfbench: CHECK FAILED: {why}");
                }
                cell.failed += 1;
            }
        }
    }
    cell.cell_s = (last - start).as_secs_f64();
    Ok(cell)
}

/// One cell: set-up, stream, counters, shutdown.
fn run_cell(
    args: &Args,
    stream: &Stream,
    tracer: &mut Tracer,
    span_budget: &mut usize,
) -> Result<(f64, Cell), String> {
    let root = tracer.open("cell", 0);
    let ((daemon, sock, coordinate), setup_s) = {
        let open = tracer.open("svc.setup", root.id);
        let up = set_up(args)?;
        (up, tracer.close(open))
    };
    let expected = ServiceCore::new(ServiceConfig::default())
        .coordinate()
        .clone();
    if coordinate != expected {
        return Err(format!(
            "daemon coordinate {coordinate:?}, expected {expected:?}"
        ));
    }
    let open = tracer.open("svc.stream", root.id);
    let mut cell = drive(&sock, stream, tracer, open.id, span_budget)?;
    tracer.close(open);
    let (stats, _) = tracer.time("svc.stats", root.id, || rpc(&sock, &Message::StatsRequest));
    match stats? {
        Message::StatsReply { counters } => cell.counters = counters,
        other => return Err(format!("unexpected stats reply {other:?}")),
    }
    let (bye, _) = tracer.time("svc.shutdown", root.id, || {
        rpc(&sock, &Message::Shutdown { token: TOKEN })
    });
    if !matches!(bye?, Message::StatsReply { .. }) {
        return Err("shutdown not acknowledged".into());
    }
    daemon.finish()?;
    tracer.close(root);
    // Registration, the set-up probe, the stream and the stats request.
    let sent = stream.datagrams.len() as u64 + 3;
    let rx = counter(&cell.counters, "svc.rx_datagrams");
    if rx != sent {
        println!("perfbench: CHECK FAILED: daemon received {rx} datagrams, {sent} sent");
        cell.failed += rx.abs_diff(sent).max(1);
    }
    Ok((setup_s, cell))
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// A fresh in-process core with the benchmark's Surveyor registered.
fn armed_core() -> Result<ServiceCore, String> {
    let mut core = ServiceCore::new(ServiceConfig::default());
    let register = encode(&register_message()).map_err(|e| format!("encode: {e}"))?;
    core.process_batch(&[&register], 0);
    Ok(core)
}

/// Median seconds per datagram of `REPLAYS` window-sized replays of
/// `datagrams` through a fresh core each time. Also returns the
/// replies of the last replay.
fn replay_core(
    tracer: &mut Tracer,
    name: &'static str,
    datagrams: &[&[u8]],
) -> Result<(f64, Vec<Vec<u8>>), String> {
    let mut per_dgram = Vec::with_capacity(REPLAYS);
    let mut replies = Vec::new();
    for _ in 0..REPLAYS {
        let mut core = armed_core()?;
        let (out, secs) = tracer.time(name, 0, || {
            let mut out = Vec::with_capacity(datagrams.len());
            for (batch, chunk) in datagrams.chunks(WINDOW).enumerate() {
                out.extend(core.process_batch(chunk, 1 + batch as u64));
            }
            out
        });
        per_dgram.push(secs / datagrams.len() as f64);
        replies = out.into_iter().flatten().collect();
    }
    Ok((median(&per_dgram), replies))
}

/// Median seconds per item of `REPLAYS` timed passes of `f` over
/// `items`.
fn replay<T>(tracer: &mut Tracer, name: &'static str, items: &[T], f: impl Fn(&T) -> usize) -> f64 {
    let mut per_item = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let (sum, secs) = tracer.time(name, 0, || items.iter().map(&f).sum::<usize>());
        std::hint::black_box(sum);
        per_item.push(secs / items.len() as f64);
    }
    median(&per_item)
}

/// In-process layer split of the daemon's per-datagram cost.
fn layer_replay(stream: &Stream, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let all: Vec<&[u8]> = stream.datagrams.iter().map(Vec::as_slice).collect();
    let probes: Vec<&[u8]> = all.iter().step_by(2).copied().collect();
    let claims: Vec<&[u8]> = all.iter().skip(1).step_by(2).copied().collect();
    let (mixed, replies) = replay_core(tracer, "svc.core.mixed", &all)?;
    let (probe, _) = replay_core(tracer, "svc.core.probes", &probes)?;
    let (claim, _) = replay_core(tracer, "svc.core.claims", &claims)?;

    let mut wire: Vec<&[u8]> = all.clone();
    wire.extend(replies.iter().map(Vec::as_slice));
    let messages = wire
        .iter()
        .map(|d| decode(d))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("decode replayed datagram: {e}"))?;
    let decode_s = replay(tracer, "wire.decode", &wire, |d| {
        usize::from(decode(d).is_ok())
    });
    let encode_s = replay(tracer, "wire.encode", &messages, |m| {
        encode(m).map_or(0, |b| b.len())
    });

    let l = &mut out.per_layer;
    l.insert("svc.core_ns_per_dgram", mixed * 1e9);
    l.insert("svc.core_probe_ns", probe * 1e9);
    l.insert("svc.core_claim_ns", claim * 1e9);
    l.insert("wire.decode_ns", decode_s * 1e9);
    l.insert("wire.encode_ns", encode_s * 1e9);
    let ops = out.end_to_end.get("ops_per_s").copied().unwrap_or(f64::NAN);
    l.insert("svc.socket_ns_per_dgram", 1e9 / ops - mixed * 1e9);
    Ok(())
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let trace_run = tracer.enabled();
    let daemon = ServiceCore::new(ServiceConfig::default())
        .coordinate()
        .clone();
    let stream = Stream::build(args.seed, clients(args.smoke), &daemon)?;
    let began = Instant::now();
    let mut setups = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut span_budget = REQUEST_SPANS_MAX;
    while cells.is_empty() || (trace_run && cells.len() < 2) || began.elapsed() < args.seconds {
        tracer.set_enabled(trace_run && cells.len().is_multiple_of(2));
        let (setup_s, cell) = run_cell(args, &stream, tracer, &mut span_budget)?;
        setups.push(setup_s);
        cells.push(cell);
    }
    tracer.set_enabled(trace_run);

    let failed: u64 = cells.iter().map(|c| c.failed).sum();
    let requests = stream.datagrams.len() as u64;
    let mut out = Outcome {
        attempted: requests * cells.len() as u64,
        failed,
        ..Outcome::default()
    };
    let of = |f: &dyn Fn(&Cell) -> f64| median(&cells.iter().map(f).collect::<Vec<_>>());
    let pct = |c: &Cell, p: f64| {
        let mut v = c.lat_ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, p).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    };
    let liar_claims: u64 = cells.iter().map(|c| c.liar_claims).sum();
    let liar_flagged: u64 = cells.iter().map(|c| c.liar_flagged).sum();
    let honest_claims: u64 = cells.iter().map(|c| c.honest_claims).sum();
    let honest_flagged: u64 = cells.iter().map(|c| c.honest_flagged).sum();
    let e = &mut out.end_to_end;
    e.insert("setup_s", median(&setups));
    e.insert("cell_s", of(&|c| c.cell_s));
    e.insert("secured_steps_per_s", of(&|c| c.claims as f64 / c.cell_s));
    e.insert("ops_per_s", of(&|c| c.lat_ns.len() as f64 / c.cell_s));
    e.insert("lat_p50_us", of(&|c| pct(c, 50.0)));
    e.insert("lat_p90_us", of(&|c| pct(c, 90.0)));
    e.insert("tpr", liar_flagged as f64 / liar_claims as f64);

    let last = &cells[cells.len() - 1];
    let l = &mut out.per_layer;
    l.insert("svc.lat_p99_us", of(&|c| pct(c, 99.0)));
    l.insert("fpr", honest_flagged as f64 / honest_claims as f64);
    for name in [
        "svc.rx_datagrams",
        "svc.tx_datagrams",
        "svc.claims_accepted",
        "svc.claims_rejected",
        "svc.certs_issued",
        "svc.decode_errors",
    ] {
        l.insert(name, counter(&last.counters, name) as f64);
    }
    l.insert("core.vetted_steps", last.claims as f64);
    l.insert(
        "core.rejected_steps",
        counter(&last.counters, "svc.claims_rejected") as f64,
    );
    l.insert(
        "core.reprieves",
        counter(&last.counters, "svc.claims_reprieved") as f64,
    );
    l.insert(
        "core.accept_ratio",
        counter(&last.counters, "svc.claims_accepted") as f64 / last.claims as f64,
    );
    if trace_run {
        layer_replay(&stream, &mut out, tracer)?;
        let traced: Vec<f64> = cells
            .iter()
            .filter(|c| c.traced)
            .map(|c| c.cell_s)
            .collect();
        let untraced: Vec<f64> = cells
            .iter()
            .filter(|c| !c.traced)
            .map(|c| c.cell_s)
            .collect();
        out.per_layer.insert(
            "bench.trace_overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
        );
    }

    // The stream is a pure function of the seed; the verdict counts
    // are not (they may depend on how arrivals batch), so they stay out.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.datagrams.iter().flatten() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
    out.fingerprint = format!(
        "stream={h:016x} liars={}",
        stream.liar.iter().filter(|&&l| l).count()
    );
    let samples: usize = cells.iter().map(|c| c.lat_ns.len()).sum();
    out.notes = vec![
        ("clients_per_cell".into(), clients(args.smoke).to_string()),
        ("window".into(), WINDOW.to_string()),
        ("loop".into(), "closed".into()),
        ("cells".into(), cells.len().to_string()),
        (
            "cell_s_each".into(),
            format!("{:?}", cells.iter().map(|c| c.cell_s).collect::<Vec<_>>()),
        ),
        ("setup_samples".into(), setups.len().to_string()),
        ("lat_samples".into(), samples.to_string()),
        (
            "lat_samples_beyond_p99_per_cell".into(),
            (stream.datagrams.len() / 100).to_string(),
        ),
        (
            "request_spans".into(),
            (REQUEST_SPANS_MAX - span_budget).to_string(),
        ),
    ];
    println!(
        "perfbench: {} cells, {} requests, {:.0} ops/s, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        cells.len(),
        samples,
        out.end_to_end["ops_per_s"],
        out.end_to_end["lat_p50_us"],
        out.end_to_end["lat_p90_us"],
        out.per_layer["svc.lat_p99_us"]
    );
    Ok(out)
}
