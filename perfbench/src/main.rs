//! `perfbench` — the end-to-end and per-layer benchmark of ices.
//!
//! ```text
//! perfbench --workload vivaldi_chaos|nps_attack|svc_loopback --seed N
//!           --seconds S --trace 0|1 [--size full|smoke]
//!           [--icesd PATH] [--daemon-cpu N] [--nproc N] [--placement TEXT]
//!           [--out DIR]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds the programs
//! and pins the processes. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed output check makes the exit code 1.

mod sims;
mod stats;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("secured_steps_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("tpr", "ratio"),
];

/// Per-layer metrics, named after the crate whose layer they measure.
/// A workload that does not run a layer reports 0 for its metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.clean_s", "s"),
    ("sim.clean_ns_per_step", "ns"),
    ("core.calibrate_s", "s"),
    ("core.arm_s", "s"),
    ("sim.attack_s", "s"),
    ("sim.attack_ns_per_step", "ns"),
    ("core.detect_overhead_ns_per_step", "ns"),
    ("sim.accuracy_s", "s"),
    ("core.vetted_steps", "count"),
    ("core.rejected_steps", "count"),
    ("core.reprieves", "count"),
    ("core.replacements", "count"),
    ("core.filter_refreshes", "count"),
    ("core.accept_ratio", "ratio"),
    ("fpr", "ratio"),
    ("rel_err_p50", "ratio"),
    ("netsim.probes_lost", "count"),
    ("netsim.probes_timed_out", "count"),
    ("netsim.probes_retried", "count"),
    ("netsim.retry_ratio", "ratio"),
    ("sim.coasted_steps", "count"),
    ("sim.evictions", "count"),
    ("attack.active_lies", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("svc.core_ns_per_dgram", "ns"),
    ("svc.core_probe_ns", "ns"),
    ("svc.core_claim_ns", "ns"),
    ("svc.socket_ns_per_dgram", "ns"),
    ("svc.lat_p99_us", "us"),
    ("svc.rx_datagrams", "count"),
    ("svc.tx_datagrams", "count"),
    ("svc.claims_accepted", "count"),
    ("svc.claims_rejected", "count"),
    ("svc.certs_issued", "count"),
    ("svc.decode_errors", "count"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (simulation cells, or daemon requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Output-invariant fingerprint of one cell; must repeat exactly on
    /// every run of the same seed and build.
    pub fingerprint: String,
    /// Free-form facts for the result file (sample counts, sizes).
    pub notes: Vec<(String, String)>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    pub icesd: PathBuf,
    pub daemon_cpu: Option<usize>,
    /// CPUs the host allows (the runner itself may be pinned to one).
    pub nproc: usize,
    pub placement: String,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut icesd = PathBuf::from("icesd");
    let mut daemon_cpu = None;
    let mut nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut placement = "unpinned".to_string();
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--size" => match value.as_str() {
                "full" => smoke = false,
                "smoke" => smoke = true,
                other => return Err(format!("--size: unknown size {other}")),
            },
            "--icesd" => icesd = PathBuf::from(value),
            "--daemon-cpu" => daemon_cpu = Some(num(&value)? as usize),
            "--nproc" => nproc = num(&value)? as usize,
            "--placement" => placement = value,
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        smoke,
        icesd,
        daemon_cpu,
        nproc,
        placement,
        out,
    })
}

/// FNV-1a over the running executable, so stored fingerprints are only
/// compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compare this run's fingerprint with the one stored by an earlier run
/// of the same workload, size, seed and build; store it if there is
/// none. Returns `false` on a mismatch.
fn fingerprint_repeats(args: &Args, fingerprint: &str) -> std::io::Result<bool> {
    let dir = args.out.join("fingerprints");
    std::fs::create_dir_all(&dir)?;
    let size = if args.smoke { "smoke" } else { "full" };
    let path = dir.join(format!("{}-{size}-{}.txt", args.workload, args.seed));
    let line = format!("{} {fingerprint}", build_id());
    match std::fs::read_to_string(&path) {
        Ok(stored)
            if stored.split_once(' ').map(|(b, _)| b) == line.split_once(' ').map(|(b, _)| b) =>
        {
            Ok(stored == line)
        }
        _ => {
            std::fs::write(&path, &line)?;
            Ok(true)
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = match values.get(name) {
                Some(v) if v.is_finite() => v.to_string(),
                Some(_) => "null".to_string(),
                None => "0".to_string(),
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn write_result(args: &Args, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!(
        "{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    std::fs::write(&path, body)?;
    Ok(path)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let nproc = args.nproc;
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let run_id = format!(
        "{}-{}-{started}-{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    println!(
        "perfbench: workload {} seed {} size {} trace {} nproc {nproc} placement {}",
        args.workload,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        u8::from(args.trace),
        args.placement
    );

    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "vivaldi_chaos" => sims::run(sims::Kind::Vivaldi, &args, &mut tracer),
        "nps_attack" => sims::run(sims::Kind::Nps, &args, &mut tracer),
        "svc_loopback" => svc::run(&args, &mut tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };

    match fingerprint_repeats(&args, &outcome.fingerprint) {
        Ok(true) => {}
        Ok(false) => {
            println!("perfbench: CHECK FAILED: output differs from an earlier run of this seed");
            outcome.failed += 1;
        }
        Err(e) => return Err(format!("fingerprint store: {e}")),
    }

    let mut span_file = None;
    if args.trace {
        outcome
            .per_layer
            .insert("bench.spans", tracer.spans().len() as f64);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("{}.spans.jsonl", args.workload));
        tracer
            .write_jsonl(&path, &run_id)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        span_file = Some(path);
    }

    let (table, values) = if args.trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    for (name, _) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        let must_be_positive = !args.trace;
        if !v.is_finite() || (must_be_positive && v <= 0.0) {
            println!("perfbench: CHECK FAILED: metric {name} = {v}");
            outcome.failed += 1;
        }
    }
    let mut sanitized = values.clone();
    for v in sanitized.values_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    let correct = outcome.failed == 0;
    let attempted = outcome.attempted.max(1);
    let metrics = metrics_json(table, &sanitized);
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed
    );

    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let record = format!(
        "{{\"run\": {}, \"workload\": {}, \"seed\": {}, \"size\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"placement\": {}, \"spans\": {}, \"notes\": {{{}}}, \
         \"end_to_end\": {}, \"per_layer\": {}, \"result\": {result}}}\n",
        json_string(&run_id),
        json_string(&args.workload),
        args.seed,
        json_string(if args.smoke { "smoke" } else { "full" }),
        args.seconds.as_secs(),
        json_string(&args.placement),
        span_file
            .as_deref()
            .map(|p: &Path| json_string(&p.display().to_string()))
            .unwrap_or_else(|| "null".to_string()),
        notes.join(", "),
        metrics_json(END_TO_END, &outcome.end_to_end),
        metrics_json(PER_LAYER, &outcome.per_layer),
    );
    let path = write_result(&args, &record).map_err(|e| format!("result file: {e}"))?;
    println!("perfbench: result written to {}", path.display());
    if let Some(p) = &span_file {
        println!("perfbench: spans written to {}", p.display());
    }
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
