//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it runs the corresponding `ices-sim` experiment, prints the
//! series/rows the paper plots to stdout, and (unless `--no-json`) drops
//! the raw result as JSON under `results/` so EXPERIMENTS.md numbers can
//! be traced back to data.
//!
//! Usage shared by all binaries:
//!
//! ```text
//! figNN [--scale test|harness|paper] [--seed N] [--no-json]
//! ```
//!
//! `harness` (the default) runs a reduced-but-paper-shaped configuration
//! in tens of seconds to minutes; `paper` runs the full 1740-node King
//! matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ices_sim::experiments::Scale;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// The one sanctioned wall-clock [`ices_obs::Clock`]: milliseconds since
/// construction, read from [`std::time::Instant`].
///
/// Simulation code stamps observability with the tick-driven
/// [`ices_obs::TickClock`] so runs stay deterministic (DET02/OBS01); the
/// benchmark harness is the only place real time is allowed to leak in,
/// because its whole job is measuring it.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose epoch is "now".
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

impl ices_obs::Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Parsed command-line options for a reproduction binary.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Human name of the chosen scale.
    pub scale_name: String,
    /// Whether to write the JSON result file.
    pub write_json: bool,
}

impl HarnessOptions {
    /// Parse `std::env::args`, honoring `--scale`, `--seed`, `--no-json`.
    ///
    /// Exits with a usage message on unknown arguments.
    pub fn from_args() -> Self {
        let mut scale_name = "harness".to_string();
        let mut seed: Option<u64> = None;
        let mut write_json = true;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    scale_name = args
                        .next()
                        .unwrap_or_else(|| usage("--scale needs a value"));
                }
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    seed = Some(v.parse().unwrap_or_else(|_| usage("--seed must be a u64")));
                }
                "--no-json" => write_json = false,
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        let mut scale = match scale_name.as_str() {
            "test" => Scale::test(),
            "harness" => Scale::harness_default(),
            "paper" => Scale::paper(),
            other => usage(&format!("unknown scale: {other}")),
        };
        if let Some(s) = seed {
            scale.seed = s;
        }
        Self {
            scale,
            scale_name,
            write_json,
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [--scale test|harness|paper] [--seed N] [--no-json]");
    std::process::exit(2);
}

/// Write an experiment result as JSON under `results/<name>.<scale>.json`.
pub fn write_result<T: Serialize>(options: &HarnessOptions, name: &str, value: &T) {
    if !options.write_json {
        return;
    }
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.{}.json", options.scale_name));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(raw result written to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize result: {e}"),
    }
}

/// Print a labelled CDF curve as aligned `x F(x)` rows, decimated to at
/// most `max_rows` rows for terminal friendliness.
pub fn print_curve(curve: &ices_sim::experiments::Curve, max_rows: usize) {
    println!("## {}", curve.label);
    let step = (curve.points.len() / max_rows.max(1)).max(1);
    for (i, (x, f)) in curve.points.iter().enumerate() {
        if i % step == 0 || i + 1 == curve.points.len() {
            println!("{x:>12.4}  {f:>8.4}");
        }
    }
    println!();
}

/// Print a standard header naming the experiment and scale.
pub fn print_header(options: &HarnessOptions, title: &str) {
    println!("=== {title} ===");
    println!(
        "scale: {} (king={}, planetlab={}, seed={})",
        options.scale_name,
        options.scale.king_nodes,
        options.scale.planetlab_nodes,
        options.scale.seed
    );
    println!();
}

/// Load a previously saved detection sweep from `results/`, or run it
/// and save it. Figs 9–12 (and 14/15) share their sweeps, so the first
/// binary to run pays the simulation cost and the rest reuse the JSON.
pub fn load_or_run_sweep(
    options: &HarnessOptions,
    name: &str,
    run: impl FnOnce() -> ices_sim::experiments::detection::DetectionSweep,
) -> ices_sim::experiments::detection::DetectionSweep {
    let path = PathBuf::from("results").join(format!("{name}.{}.json", options.scale_name));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(sweep) = serde_json::from_str(&text) {
            eprintln!("(reusing cached sweep from {})", path.display());
            return sweep;
        }
        eprintln!("warning: ignoring unparsable cache at {}", path.display());
    }
    let sweep = run();
    write_result(options, name, &sweep);
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_sim::experiments::Curve;

    #[test]
    fn print_curve_handles_small_curves() {
        let c = Curve::from_samples("t", vec![0.1, 0.2, 0.3], 5);
        print_curve(&c, 10); // must not panic or divide by zero
    }

    #[test]
    fn wall_clock_is_monotone() {
        use ices_obs::Clock;
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a, "Instant-backed clock must be monotone");
    }
}
