//! Render an `ices-obs` run journal into the per-tick detector-quality
//! time series (FPR / TPR / coast rate), or validate one against the
//! JSONL schema.
//!
//! ```text
//! obs_report <journal.jsonl>        render the report
//! obs_report --check <journal.jsonl> validate only; exit 1 on violations
//! obs_report --smoke [path]         run a small journaled secured-Vivaldi
//!                                   pipeline (default target/obs_smoke.jsonl),
//!                                   then validate and render it
//! ```
//!
//! The journal is produced by any driver with `enable_journal` set — see
//! DESIGN.md §10 for the schema and the determinism contract (journals
//! are bit-identical across `ICES_THREADS` settings, so a report rendered
//! from a parallel run is the report of the sequential one).

use ices_obs::report::{parse, series, RunJournal};
use ices_sim::experiments::chaos::chaos_cell_journaled;
use ices_sim::experiments::Scale;
use std::process::ExitCode;

/// Max series rows printed before decimation kicks in.
const MAX_ROWS: usize = 48;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: obs_report <journal.jsonl> | --check <journal.jsonl> | --smoke [path]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => match args.get(1) {
            Some(path) => check(path),
            None => usage("--check needs a journal path"),
        },
        Some("--smoke") => {
            if args.len() > 2 {
                return usage("--smoke takes at most one path");
            }
            smoke(args.get(1))
        }
        Some(path) if !path.starts_with("--") && args.len() == 1 => render_file(path),
        Some(other) => usage(&format!("unknown argument: {other}")),
        None => usage("missing journal path"),
    }
}

/// Strict schema validation: print every violation, exit 1 on any.
fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (run, errors) = parse(&text);
    if errors.is_empty() {
        println!(
            "{path}: ok ({} tick rows, {} phases, schema v{})",
            run.ticks.len(),
            run.phases.len(),
            run.meta.map(|m| m.version).unwrap_or(0)
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        eprintln!("{path}: {} schema violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

fn render_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (run, errors) = parse(&text);
    for e in &errors {
        eprintln!("warning: {e}");
    }
    render(&run);
    ExitCode::SUCCESS
}

/// Run a small journaled chaos cell and report on its journal: the
/// end-to-end smoke path tier-2 exercises.
fn smoke(path: Option<&String>) -> ExitCode {
    let default = "target/obs_smoke.jsonl".to_string();
    let path = path.unwrap_or(&default);
    let (_, bytes) = chaos_cell_journaled(&Scale::test(), 0.05, 0.05);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(path, &bytes) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("(journal written to {path})");
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let (run, errors) = parse(&text);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        eprintln!("{path}: smoke journal failed schema validation");
        return ExitCode::FAILURE;
    }
    render(&run);
    ExitCode::SUCCESS
}

fn opt(x: Option<f64>, width: usize) -> String {
    match x {
        Some(v) => format!("{v:>width$.4}"),
        None => format!("{:>width$}", "-"),
    }
}

fn render(run: &RunJournal) {
    if let Some(meta) = &run.meta {
        println!(
            "run: driver={} nodes={} seed={} (schema v{})",
            meta.driver, meta.nodes, meta.seed, meta.version
        );
    }
    if !run.phases.is_empty() {
        println!("phases:");
        for p in &run.phases {
            println!(
                "  {:>12}  ends t={:<8} spans {} ticks",
                p.name, p.t, p.ticks
            );
        }
    }
    if !run.event_counts.is_empty() {
        let evs: Vec<String> = run
            .event_counts
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        println!("events: {}", evs.join(" "));
    }

    let pts = series(run);
    if pts.is_empty() {
        println!("(no tick rows)");
    } else {
        println!();
        println!(
            "{:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
            "tick", "FPR", "TPR", "coast", "cum FPR", "cum TPR"
        );
        let step = (pts.len() / MAX_ROWS).max(1);
        for (i, p) in pts.iter().enumerate() {
            if i % step == 0 || i + 1 == pts.len() {
                println!(
                    "{:>8} {} {} {} {} {}",
                    p.t,
                    opt(p.fpr, 8),
                    opt(p.tpr, 8),
                    opt(p.coast_rate, 8),
                    opt(p.cum_fpr, 9),
                    opt(p.cum_tpr, 9)
                );
            }
        }
    }

    if !run.summary_counters.is_empty() {
        println!();
        println!("final counters:");
        for (name, v) in &run.summary_counters {
            println!("  {name:<28} {v:>10}");
        }
    }
}
