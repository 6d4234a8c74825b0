//! The `bench_check` comparison engine, as a library.
//!
//! [`compare`] takes two parsed `BENCH_sim.json` reports — the committed
//! baseline and a fresh run — and returns a [`CheckReport`]: perf
//! warnings (budget violations), migration notes (schema fields the
//! baseline predates, silently defaulted before, now said out loud),
//! and the number of configurations actually compared. The binary in
//! `src/bin/bench_check.rs` is a thin shell around this module, so the
//! comparison and its schema-evolution rules are unit-testable against
//! fixture reports.
//!
//! Schema evolution policy: a baseline recorded before a field existed
//! is compared under that field's default (`journal=false`,
//! `adversary="none"` — which is what those rows were), and the report
//! carries one note per defaulted field naming how many rows it
//! touched. Old baselines never error, and the defaulting is never
//! silent. Rows tagged with a `tier` other than `"exact"` come from a
//! numeric tier that no longer exists and are never compared.

use serde::Value;

/// Fractional throughput drop that triggers a warning.
pub const TOLERANCE: f64 = 0.20;

/// Wider budget for scale-sweep rows at or above this population: big
/// streamed runs are single-rep and allocator/page-cache sensitive.
pub const SWEEP_BIG_NODES: u64 = 50_000;
/// Budget applied to scale-sweep rows at or above [`SWEEP_BIG_NODES`].
pub const SWEEP_BIG_TOLERANCE: f64 = 0.30;

/// Budgeted journaling overhead: a journaled run must stay within 5% of
/// the matching unjournaled configuration.
pub const JOURNAL_BUDGET: f64 = 0.05;

/// Budgeted intercept-path overhead: the Sybil-swarm configuration must
/// stay within 10% of its honest-world twin.
pub const ADVERSARY_BUDGET: f64 = 0.10;

/// Outcome of one baseline-vs-current comparison.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Budget violations, one formatted line each.
    pub warnings: Vec<String>,
    /// Schema-migration and comparability notes, one line each.
    pub notes: Vec<String>,
    /// Number of configuration pairs actually compared.
    pub compared: usize,
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// One tick-engine row's identity plus its throughput.
struct Row {
    driver: String,
    threads: u64,
    faults: bool,
    journal: bool,
    adversary: String,
    sps: f64,
}

/// How many of a report's rows were missing each evolvable schema field
/// (and therefore took its default).
#[derive(Debug, Default, PartialEq, Eq)]
struct SchemaGaps {
    journal: usize,
    adversary: usize,
}

impl SchemaGaps {
    /// One migration note per defaulted field.
    fn notes(&self, which: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (missing, name, default) in [
            (self.journal, "journal", "false"),
            (self.adversary, "adversary", "\"none\""),
        ] {
            if missing > 0 {
                out.push(format!(
                    "{which} predates the `{name}` run field — {missing} row(s) \
                     compared under the default {name}={default}"
                ));
            }
        }
        out
    }
}

/// Per-run-entry rows plus a count of defaulted schema fields.
fn runs(report: &Value) -> (Vec<Row>, SchemaGaps) {
    let mut out = Vec::new();
    let mut gaps = SchemaGaps::default();
    if let Some(Value::Seq(entries)) = field(report, "runs") {
        for run in entries {
            // Baselines recorded while the fast numeric tier existed tag
            // its rows `"tier":"fast"`. They share every other identity
            // field with an exact row, so they are skipped rather than
            // read as exact rows.
            if field(run, "tier").is_some_and(|t| !matches!(t, Value::Str(s) if s == "exact")) {
                continue;
            }
            let driver = match field(run, "driver") {
                Some(Value::Str(s)) => s.clone(),
                _ => continue,
            };
            let threads = match field(run, "threads").and_then(number) {
                Some(t) => t as u64,
                None => continue,
            };
            let faults = matches!(field(run, "faults"), Some(Value::Bool(true)));
            let journal = match field(run, "journal") {
                Some(Value::Bool(b)) => *b,
                _ => {
                    gaps.journal += 1;
                    false
                }
            };
            let adversary = match field(run, "adversary") {
                Some(Value::Str(s)) => s.clone(),
                _ => {
                    gaps.adversary += 1;
                    "none".to_string()
                }
            };
            let sps = match field(run, "steps_per_sec").and_then(number) {
                Some(s) => s,
                None => continue,
            };
            out.push(Row {
                driver,
                threads,
                faults,
                journal,
                adversary,
                sps,
            });
        }
    }
    (out, gaps)
}

/// `(scalar, batched)` sweeps/sec of the detector-bank microbenchmark.
fn detector_bank_rates(report: &Value) -> Option<(f64, f64)> {
    let bank = field(report, "detector_bank")?;
    Some((
        field(bank, "scalar_sweeps_per_sec").and_then(number)?,
        field(bank, "batched_sweeps_per_sec").and_then(number)?,
    ))
}

/// `(nodes, threads, steps_per_sec)` per scale-sweep row.
fn sweep_rows(report: &Value) -> Vec<(u64, u64, f64)> {
    let mut out = Vec::new();
    if let Some(Value::Seq(entries)) = field(report, "scale_sweep") {
        for row in entries {
            let (Some(nodes), Some(threads), Some(sps)) = (
                field(row, "nodes").and_then(number),
                field(row, "threads").and_then(number),
                field(row, "steps_per_sec").and_then(number),
            ) else {
                continue;
            };
            out.push((nodes as u64, threads as u64, sps));
        }
    }
    out
}

fn host_parallelism(report: &Value) -> Option<u64> {
    field(report, "host_parallelism")
        .and_then(number)
        .map(|n| n as u64)
}

fn solver_rate(report: &Value) -> Option<f64> {
    field(report, "nps_solver").and_then(|s| field(s, "solves_per_sec").and_then(number))
}

/// The loadgen section's service throughput, absent on reports recorded
/// before the service daemon existed.
fn loadgen_rate(report: &Value) -> Option<f64> {
    field(report, "loadgen").and_then(|s| field(s, "probes_per_sec").and_then(number))
}

/// Compare a fresh report against the committed baseline. Never fails:
/// schema gaps become notes, budget violations become warnings.
pub fn compare(baseline: &Value, current: &Value) -> CheckReport {
    let mut report = CheckReport::default();

    // Differently-sized hosts make every multi-thread row (and any
    // recorded speedup) incomparable; restrict to the sequential rows.
    let same_host = match (host_parallelism(baseline), host_parallelism(current)) {
        (Some(b), Some(c)) => b == c,
        _ => true, // a pre-sweep report: keep the old permissive behavior
    };
    if !same_host {
        report.notes.push(
            "host_parallelism differs between reports — comparing threads=1 \
             configurations only"
                .to_string(),
        );
    }

    let (old_runs, old_gaps) = runs(baseline);
    let (new_runs, _) = runs(current);
    report.notes.extend(old_gaps.notes("baseline"));

    for row in &new_runs {
        if !same_host && row.threads != 1 {
            continue;
        }
        let Some(old) = old_runs.iter().find(|o| {
            o.driver == row.driver
                && o.threads == row.threads
                && o.faults == row.faults
                && o.journal == row.journal
                && o.adversary == row.adversary
        }) else {
            continue;
        };
        report.compared += 1;
        if row.sps < old.sps * (1.0 - TOLERANCE) {
            report.warnings.push(format!(
                "{} (threads={}, faults={}, journal={}, adversary={}) \
                 regressed {:.0}% — {:.0} → {:.0} steps/sec",
                row.driver,
                row.threads,
                row.faults,
                row.journal,
                row.adversary,
                100.0 * (1.0 - row.sps / old.sps),
                old.sps,
                row.sps
            ));
        }
    }

    // The obs overhead budget is checked within the current report:
    // journaled vs unjournaled twins share the hardware and the moment,
    // so the ratio is meaningful even when absolute timings are noisy.
    for row in &new_runs {
        if !row.journal {
            continue;
        }
        let Some(clean) = new_runs.iter().find(|o| {
            o.driver == row.driver
                && o.threads == row.threads
                && o.faults == row.faults
                && !o.journal
                && o.adversary == row.adversary
        }) else {
            continue;
        };
        report.compared += 1;
        if row.sps < clean.sps * (1.0 - JOURNAL_BUDGET) {
            report.warnings.push(format!(
                "{} (threads={}) journaling overhead {:.1}% exceeds the {:.0}% \
                 budget — {:.0} → {:.0} steps/sec",
                row.driver,
                row.threads,
                100.0 * (1.0 - row.sps / clean.sps),
                100.0 * JOURNAL_BUDGET,
                clean.sps,
                row.sps
            ));
        }
    }

    // The intercept-path budget is likewise checked within the current
    // report: the Sybil row against its honest-world twin.
    for row in &new_runs {
        if row.adversary != "sybil" {
            continue;
        }
        let Some(twin) = new_runs.iter().find(|o| {
            o.driver == row.driver
                && o.threads == row.threads
                && o.faults == row.faults
                && o.journal == row.journal
                && o.adversary == "honest_twin"
        }) else {
            continue;
        };
        report.compared += 1;
        if row.sps < twin.sps * (1.0 - ADVERSARY_BUDGET) {
            report.warnings.push(format!(
                "{} (threads={}) intercept-path overhead {:.1}% exceeds the \
                 {:.0}% budget — {:.0} → {:.0} steps/sec vs honest twin",
                row.driver,
                row.threads,
                100.0 * (1.0 - row.sps / twin.sps),
                100.0 * ADVERSARY_BUDGET,
                twin.sps,
                row.sps
            ));
        }
    }

    // Scale-sweep rows: per-scale budgets (big streamed runs get 30%).
    let old_sweep = sweep_rows(baseline);
    for (nodes, threads, new_sps) in sweep_rows(current) {
        if !same_host && threads != 1 {
            continue;
        }
        let Some((_, _, old_sps)) = old_sweep
            .iter()
            .find(|(n, t, _)| *n == nodes && *t == threads)
        else {
            continue;
        };
        report.compared += 1;
        let budget = if nodes >= SWEEP_BIG_NODES {
            SWEEP_BIG_TOLERANCE
        } else {
            TOLERANCE
        };
        if new_sps < old_sps * (1.0 - budget) {
            report.warnings.push(format!(
                "streamed sweep n={nodes} (threads={threads}) regressed {:.0}% \
                 (budget {:.0}%) — {:.0} → {:.0} steps/sec",
                100.0 * (1.0 - new_sps / old_sps),
                100.0 * budget,
                old_sps,
                new_sps
            ));
        }
    }

    // Detector-bank microbenchmark rows: the regular 20% budget on each
    // path's absolute rate against the baseline, and — within the
    // current report — the bank must actually beat the scalar loop it
    // exists to replace.
    if let (Some((old_scalar, old_batched)), Some((new_scalar, new_batched))) =
        (detector_bank_rates(baseline), detector_bank_rates(current))
    {
        for (name, old, new) in [
            ("scalar", old_scalar, new_scalar),
            ("batched", old_batched, new_batched),
        ] {
            report.compared += 1;
            if new < old * (1.0 - TOLERANCE) {
                report.warnings.push(format!(
                    "detector_bank {name} sweep regressed {:.0}% — \
                     {:.0} → {:.0} sweeps/sec",
                    100.0 * (1.0 - new / old),
                    old,
                    new
                ));
            }
        }
    }
    if let Some((scalar, batched)) = detector_bank_rates(current) {
        report.compared += 1;
        if batched <= scalar {
            report.warnings.push(format!(
                "detector_bank batched sweep ({batched:.0}/s) is not faster \
                 than the scalar loop ({scalar:.0}/s)"
            ));
        }
    }

    if let (Some(old), Some(new)) = (solver_rate(baseline), solver_rate(current)) {
        report.compared += 1;
        if new < old * (1.0 - TOLERANCE) {
            report.warnings.push(format!(
                "nps_solver regressed {:.0}% — {:.1} → {:.1} solves/sec",
                100.0 * (1.0 - new / old),
                old,
                new
            ));
        }
    }

    // Service loadgen throughput: same 20% budget; a baseline recorded
    // before the service daemon existed gets a note, not a warning.
    match (loadgen_rate(baseline), loadgen_rate(current)) {
        (Some(old), Some(new)) => {
            report.compared += 1;
            if new < old * (1.0 - TOLERANCE) {
                report.warnings.push(format!(
                    "loadgen service throughput regressed {:.0}% — \
                     {:.0} → {:.0} probes/sec",
                    100.0 * (1.0 - new / old),
                    old,
                    new
                ));
            }
        }
        (None, Some(_)) => {
            report.notes.push(
                "baseline predates the `loadgen` section — service throughput \
                 recorded for the next baseline, nothing to compare"
                    .to_string(),
            );
        }
        _ => {}
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{e:?}"))
    }

    fn modern_run(sps: f64) -> String {
        format!(
            r#"{{"driver":"vivaldi","threads":1,"faults":false,"journal":false,
                "adversary":"none","steps_per_sec":{sps}}}"#
        )
    }

    #[test]
    fn old_schema_rows_default_with_a_note_and_still_compare() {
        // A baseline from before journal/adversary existed.
        let baseline = parse(
            r#"{"runs":[{"driver":"vivaldi","threads":1,"faults":false,
                "steps_per_sec":1000}]}"#,
        );
        let current = parse(&format!(r#"{{"runs":[{}]}}"#, modern_run(990.0)));
        let report = compare(&baseline, &current);
        assert_eq!(report.compared, 1, "defaults must keep rows comparable");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        for name in ["journal", "adversary"] {
            assert!(
                report.notes.iter().any(|n| n.contains(&format!("`{name}`"))),
                "missing migration note for {name}: {:?}",
                report.notes
            );
        }
    }

    #[test]
    fn modern_schema_emits_no_migration_notes() {
        let baseline = parse(&format!(r#"{{"runs":[{}]}}"#, modern_run(1000.0)));
        let current = parse(&format!(r#"{{"runs":[{}]}}"#, modern_run(1000.0)));
        let report = compare(&baseline, &current);
        assert_eq!(report.compared, 1);
        assert!(report.notes.is_empty(), "{:?}", report.notes);
    }

    #[test]
    fn regressions_against_a_defaulted_baseline_still_warn() {
        let baseline = parse(
            r#"{"runs":[{"driver":"vivaldi","threads":1,"faults":false,
                "steps_per_sec":1000}]}"#,
        );
        let current = parse(&format!(r#"{{"runs":[{}]}}"#, modern_run(500.0)));
        let report = compare(&baseline, &current);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("regressed 50%"));
    }

    #[test]
    fn loadgen_section_compares_and_notes_missing_baseline() {
        let with = parse(r#"{"loadgen":{"probes_per_sec":50000}}"#);
        let without = parse("{}");
        let slow = parse(r#"{"loadgen":{"probes_per_sec":10000}}"#);

        let fresh = compare(&without, &with);
        assert!(fresh.notes.iter().any(|n| n.contains("loadgen")));
        assert!(fresh.warnings.is_empty());

        let steady = compare(&with, &with);
        assert_eq!(steady.compared, 1);
        assert!(steady.warnings.is_empty());

        let regressed = compare(&with, &slow);
        assert_eq!(regressed.warnings.len(), 1);
        assert!(regressed.warnings[0].contains("probes/sec"));
    }

    #[test]
    fn baseline_fast_tier_rows_never_compare() {
        // Same identity fields as the current row; only the retired
        // `tier` tag tells the two baseline rows apart. The fast one
        // comes first, so reading it as exact would match it.
        let baseline = parse(
            r#"{"runs":[{"driver":"vivaldi","threads":1,"faults":false,
                "journal":false,"adversary":"none","tier":"fast",
                "steps_per_sec":9000},
                {"driver":"vivaldi","threads":1,"faults":false,
                "journal":false,"adversary":"none","tier":"exact",
                "steps_per_sec":100}]}"#,
        );
        let current = parse(&format!(r#"{{"runs":[{}]}}"#, modern_run(100.0)));
        let report = compare(&baseline, &current);
        assert_eq!(report.compared, 1, "only the exact baseline row compares");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.notes.is_empty(), "{:?}", report.notes);
    }
}
