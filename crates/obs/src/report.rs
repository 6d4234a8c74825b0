//! Journal parsing, schema validation, and time-series derivation —
//! shared by the `obs_report` binary and the tier-2 schema check.
//!
//! [`parse`] is strict: every departure from the schema in
//! [`crate::journal`]'s docs (unknown event tag, missing field,
//! non-monotone timestamps, wrong schema version) is collected as an
//! error string with its line number. [`series`] turns the tick rows
//! into the paper's per-tick detector quality trajectory: FPR, TPR
//! (both per-tick and cumulative) and the coast rate — the fraction of
//! embedding steps that had to coast on a missing sample.

use crate::names;
use serde::Value;

/// The `meta` header line.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    pub version: u64,
    pub driver: String,
    pub nodes: u64,
    pub seed: u64,
}

/// One `tick` line: counter deltas and gauge values at tick `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRow {
    pub t: u64,
    pub deltas: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
}

impl TickRow {
    /// Delta of one named counter this tick (0 when absent).
    pub fn delta(&self, name: &str) -> u64 {
        self.deltas
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// One `phase` line: the span `name` covered `ticks` ticks ending at `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub t: u64,
    pub name: String,
    pub ticks: u64,
}

/// A parsed journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunJournal {
    pub meta: Option<Meta>,
    pub ticks: Vec<TickRow>,
    pub phases: Vec<PhaseRow>,
    /// Discrete events tallied by tag (`evict`, `reject`, ...).
    pub event_counts: Vec<(String, u64)>,
    /// Final counter values from the `summary` line, if present.
    pub summary_counters: Vec<(String, u64)>,
}

impl RunJournal {
    /// Total count of one discrete event tag.
    pub fn event_count(&self, ev: &str) -> u64 {
        self.event_counts
            .iter()
            .find(|(n, _)| n == ev)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

fn field<'a>(map: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parse and validate a journal. Returns the parsed journal even when
/// errors were found, so callers can render a best-effort report while
/// failing a strict check; `errors` is empty iff the journal conforms
/// to schema version 1.
pub fn parse(text: &str) -> (RunJournal, Vec<String>) {
    let mut run = RunJournal::default();
    let mut errors = Vec::new();
    let mut last_t: Option<u64> = None;
    let mut saw_data_line = false;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: invalid JSON: {e:?}"));
                continue;
            }
        };
        let map = match &value {
            Value::Map(m) => m.as_slice(),
            _ => {
                errors.push(format!("line {lineno}: not a JSON object"));
                continue;
            }
        };
        let Some(t) = field(map, "t").and_then(as_u64) else {
            errors.push(format!("line {lineno}: missing non-negative integer \"t\""));
            continue;
        };
        let Some(ev) = field(map, "ev").and_then(as_str) else {
            errors.push(format!("line {lineno}: missing string \"ev\""));
            continue;
        };
        if let Some(prev) = last_t {
            if t < prev {
                errors.push(format!(
                    "line {lineno}: timestamp {t} goes backwards (previous {prev})"
                ));
            }
        }
        last_t = Some(t);

        match ev {
            "meta" => {
                if saw_data_line || run.meta.is_some() {
                    errors.push(format!("line {lineno}: duplicate or late \"meta\" line"));
                }
                let version = field(map, "v").and_then(as_u64).unwrap_or(0);
                if version != crate::SCHEMA_VERSION {
                    errors.push(format!(
                        "line {lineno}: schema version {version}, expected {}",
                        crate::SCHEMA_VERSION
                    ));
                }
                let driver = field(map, "driver").and_then(as_str).map(str::to_string);
                let nodes = field(map, "nodes").and_then(as_u64);
                let seed = field(map, "seed").and_then(as_u64);
                match (driver, nodes, seed) {
                    (Some(driver), Some(nodes), Some(seed)) => {
                        run.meta = Some(Meta {
                            version,
                            driver,
                            nodes,
                            seed,
                        });
                    }
                    _ => errors.push(format!(
                        "line {lineno}: \"meta\" needs string \"driver\" and integer \
                         \"nodes\"/\"seed\""
                    )),
                }
            }
            "tick" => {
                saw_data_line = true;
                let mut row = TickRow {
                    t,
                    deltas: Vec::new(),
                    gauges: Vec::new(),
                };
                match field(map, "d") {
                    Some(Value::Map(d)) => {
                        for (name, v) in d {
                            match as_u64(v) {
                                Some(n) => row.deltas.push((name.clone(), n)),
                                None => errors.push(format!(
                                    "line {lineno}: delta {name:?} is not a non-negative integer"
                                )),
                            }
                        }
                    }
                    _ => errors.push(format!("line {lineno}: \"tick\" needs object \"d\"")),
                }
                match field(map, "g") {
                    Some(Value::Map(g)) => {
                        for (name, v) in g {
                            match as_f64(v) {
                                Some(x) => row.gauges.push((name.clone(), x)),
                                None => errors
                                    .push(format!("line {lineno}: gauge {name:?} is not a number")),
                            }
                        }
                    }
                    _ => errors.push(format!("line {lineno}: \"tick\" needs object \"g\"")),
                }
                run.ticks.push(row);
            }
            "phase" => {
                saw_data_line = true;
                let name = field(map, "name").and_then(as_str).map(str::to_string);
                let ticks = field(map, "ticks").and_then(as_u64);
                match (name, ticks) {
                    (Some(name), Some(ticks)) => run.phases.push(PhaseRow { t, name, ticks }),
                    _ => errors.push(format!(
                        "line {lineno}: \"phase\" needs string \"name\" and integer \"ticks\""
                    )),
                }
            }
            "summary" => {
                saw_data_line = true;
                match field(map, "c") {
                    Some(Value::Map(c)) => {
                        for (name, v) in c {
                            match as_u64(v) {
                                Some(n) => run.summary_counters.push((name.clone(), n)),
                                None => errors.push(format!(
                                    "line {lineno}: summary counter {name:?} is not an integer"
                                )),
                            }
                        }
                    }
                    _ => errors.push(format!("line {lineno}: \"summary\" needs object \"c\"")),
                }
            }
            "evict" | "refresh" | "stale_fallback" | "defer_arm" | "arm" => {
                saw_data_line = true;
                if field(map, "node").and_then(as_u64).is_none() {
                    errors.push(format!("line {lineno}: \"{ev}\" needs integer \"node\""));
                }
                bump(&mut run.event_counts, ev);
            }
            "reject" | "defense_reject" => {
                saw_data_line = true;
                if field(map, "node").and_then(as_u64).is_none()
                    || field(map, "peer").and_then(as_u64).is_none()
                {
                    errors.push(format!(
                        "line {lineno}: \"{ev}\" needs integer \"node\" and \"peer\""
                    ));
                }
                bump(&mut run.event_counts, ev);
            }
            other => {
                errors.push(format!("line {lineno}: unknown event tag {other:?}"));
            }
        }
    }

    if run.meta.is_none() {
        errors.push("journal has no \"meta\" line".to_string());
    }
    (run, errors)
}

fn bump(counts: &mut Vec<(String, u64)>, ev: &str) {
    if let Some((_, n)) = counts.iter_mut().find(|(name, _)| name == ev) {
        *n += 1;
    } else {
        counts.push((ev.to_string(), 1));
    }
}

/// One point of the derived detector-quality trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    pub t: u64,
    /// Per-tick false-positive rate `fp / (fp + tn)`; `None` when no
    /// honest verdicts landed this tick.
    pub fpr: Option<f64>,
    /// Per-tick true-positive rate `tp / (tp + fn)`; `None` when no
    /// malicious verdicts landed this tick.
    pub tpr: Option<f64>,
    /// Fraction of embedding steps that coasted on a missing sample:
    /// `coasted / (coasted + probe.ok)`; `None` on an idle tick.
    pub coast_rate: Option<f64>,
    /// Cumulative FPR over all ticks up to and including this one.
    pub cum_fpr: Option<f64>,
    /// Cumulative TPR over all ticks up to and including this one.
    pub cum_tpr: Option<f64>,
}

fn rate(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Derive the per-tick FPR/TPR/coast-rate series from a journal's tick
/// rows (deltas are per-tick already; cumulative columns re-integrate).
pub fn series(run: &RunJournal) -> Vec<SeriesPoint> {
    let (mut tp, mut fp, mut tn, mut fn_) = (0u64, 0u64, 0u64, 0u64);
    run.ticks
        .iter()
        .map(|row| {
            let (dtp, dfp) = (row.delta(names::DETECT_TP), row.delta(names::DETECT_FP));
            let (dtn, dfn) = (row.delta(names::DETECT_TN), row.delta(names::DETECT_FN));
            let coasted = row.delta(names::COASTED_STEPS);
            let ok = row.delta(names::PROBE_OK);
            tp += dtp;
            fp += dfp;
            tn += dtn;
            fn_ += dfn;
            SeriesPoint {
                t: row.t,
                fpr: rate(dfp, dfp + dtn),
                tpr: rate(dtp, dtp + dfn),
                coast_rate: rate(coasted, coasted + ok),
                cum_fpr: rate(fp, fp + tn),
                cum_tpr: rate(tp, tp + fn_),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"t\":0,\"ev\":\"meta\",\"v\":1,\"driver\":\"vivaldi\",\"nodes\":70,\"seed\":61}\n",
        "{\"t\":1,\"ev\":\"tick\",\"d\":{\"probe.ok\":8,\"fault.coasted_steps\":2},\"g\":{}}\n",
        "{\"t\":2,\"ev\":\"tick\",\"d\":{\"detect.fp\":1,\"detect.tn\":9,\"detect.tp\":3,\
         \"detect.fn\":1},\"g\":{\"embed.mean_local_error\":0.25}}\n",
        "{\"t\":2,\"ev\":\"reject\",\"node\":4,\"peer\":9}\n",
        "{\"t\":2,\"ev\":\"phase\",\"name\":\"attack\",\"ticks\":2}\n",
        "{\"t\":2,\"ev\":\"summary\",\"c\":{\"probe.ok\":8},\"g\":{}}\n",
    );

    #[test]
    fn good_journal_parses_clean() {
        let (run, errors) = parse(GOOD);
        assert!(errors.is_empty(), "{errors:?}");
        let meta = run.meta.as_ref().unwrap();
        assert_eq!(
            (meta.driver.as_str(), meta.nodes, meta.seed),
            ("vivaldi", 70, 61)
        );
        assert_eq!(run.ticks.len(), 2);
        assert_eq!(run.event_count("reject"), 1);
        assert_eq!(run.phases.len(), 1);
        assert_eq!(run.summary_counters, vec![("probe.ok".to_string(), 8)]);
    }

    #[test]
    fn series_rates_match_hand_computation() {
        let (run, _) = parse(GOOD);
        let pts = series(&run);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].coast_rate, Some(0.2));
        assert_eq!(pts[0].fpr, None);
        assert_eq!(pts[1].fpr, Some(0.1));
        assert_eq!(pts[1].tpr, Some(0.75));
        assert_eq!(pts[1].cum_fpr, Some(0.1));
    }

    #[test]
    fn schema_violations_are_reported_with_line_numbers() {
        let bad = concat!(
            "{\"t\":0,\"ev\":\"meta\",\"v\":9,\"driver\":\"x\",\"nodes\":1,\"seed\":0}\n",
            "{\"t\":5,\"ev\":\"tick\",\"d\":{},\"g\":{}}\n",
            "{\"t\":3,\"ev\":\"wat\"}\n",
            "not json\n",
        );
        let (_, errors) = parse(bad);
        let text = errors.join("\n");
        assert!(text.contains("line 1: schema version 9"), "{text}");
        assert!(
            text.contains("line 3: timestamp 3 goes backwards"),
            "{text}"
        );
        assert!(text.contains("unknown event tag \"wat\""), "{text}");
        assert!(text.contains("line 4: invalid JSON"), "{text}");
    }

    #[test]
    fn missing_meta_is_an_error() {
        let (_, errors) = parse("{\"t\":0,\"ev\":\"tick\",\"d\":{},\"g\":{}}\n");
        assert!(
            errors.iter().any(|e| e.contains("no \"meta\" line")),
            "{errors:?}"
        );
    }
}
