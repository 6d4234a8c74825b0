//! bench_check against fixture baselines: the schema-evolution contract.
//!
//! `tests/fixtures/bench_old_schema.json` is a report the way the
//! harness wrote it before the `journal` and `adversary` fields and
//! the `loadgen` section existed. It must stay comparable — defaults plus
//! one migration note per missing field — forever; an old committed
//! baseline going dark (or erroring) after a schema change is exactly
//! the regression this file pins down. The committed `BENCH_sim.json`
//! must also always self-compare clean.

use ices_bench::check::compare;
use serde::Value;
use std::path::Path;

fn load(path: impl AsRef<Path>) -> Value {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", path.display()))
}

fn fixture(name: &str) -> Value {
    load(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name))
}

/// A current-schema report shaped like today's harness output.
fn modern_report() -> Value {
    serde_json::from_str(
        r#"{
            "runs": [
                {"driver": "vivaldi", "threads": 1, "faults": false,
                 "journal": false, "adversary": "none",
                 "steps_per_sec": 1150.0},
                {"driver": "vivaldi", "threads": 1, "faults": true,
                 "journal": false, "adversary": "none",
                 "steps_per_sec": 1050.0},
                {"driver": "nps", "threads": 1, "faults": false,
                 "journal": false, "adversary": "none",
                 "steps_per_sec": 790.0}
            ],
            "nps_solver": {"solves_per_sec": 41.0},
            "loadgen": {"probes_per_sec": 50000.0}
        }"#,
    )
    .unwrap_or_else(|e| panic!("{e:?}"))
}

#[test]
fn old_schema_baseline_compares_with_migration_notes() {
    let baseline = fixture("bench_old_schema.json");
    let report = compare(&baseline, &modern_report());

    // All three tick-engine rows plus the solver row matched under the
    // defaults; nothing regressed, so no warnings.
    assert_eq!(report.compared, 4, "notes: {:?}", report.notes);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);

    // One note per defaulted field, naming the field and the row count,
    // plus one for the missing loadgen section.
    for needle in ["`journal`", "`adversary`", "loadgen"] {
        assert!(
            report.notes.iter().any(|n| n.contains(needle)),
            "no migration note mentioning {needle}: {:?}",
            report.notes
        );
    }
    assert!(
        report.notes.iter().any(|n| n.contains("3 row(s)")),
        "note must count the defaulted rows: {:?}",
        report.notes
    );
}

#[test]
fn old_schema_baseline_still_catches_regressions() {
    let baseline = fixture("bench_old_schema.json");
    let mut current = modern_report();
    // Halve the vivaldi fault-free row's throughput.
    if let Value::Map(top) = &mut current {
        if let Some((_, Value::Seq(runs))) = top.iter_mut().find(|(k, _)| k == "runs") {
            if let Some(Value::Map(run)) = runs.first_mut() {
                if let Some((_, sps)) = run.iter_mut().find(|(k, _)| k == "steps_per_sec") {
                    *sps = Value::F64(400.0);
                }
            }
        }
    }
    let report = compare(&baseline, &current);
    assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    assert!(report.warnings[0].contains("vivaldi"));
}

#[test]
fn committed_baseline_self_compares_clean() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    let baseline = load(&committed);
    let report = compare(&baseline, &baseline);
    assert!(
        report.compared > 0,
        "committed BENCH_sim.json produced no comparable rows"
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert!(
        report.notes.is_empty(),
        "committed baseline must be current-schema: {:?}",
        report.notes
    );
}
