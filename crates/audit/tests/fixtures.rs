//! Each bad fixture must produce exactly its rule's finding with the
//! right `file:line`, through the library API and through the binary
//! (which must exit nonzero on it).

use ices_audit::rules::Severity;
use ices_audit::{
    adhoc_targets, adhoc_targets_as, audit_targets, audit_targets_with, AuditOptions, Report,
};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit_fixture(name: &str) -> Report {
    let targets = adhoc_targets(&[fixture(name)]);
    let report = audit_targets(&targets);
    assert_eq!(report.files_audited, 1, "fixture {name} was not read");
    report
}

/// Assert the fixture yields exactly one finding: `rule` at `line`.
fn assert_single_finding(name: &str, rule: &str, line: u32) {
    let report = audit_fixture(name);
    assert_eq!(
        report.findings.len(),
        1,
        "{name}: expected one finding, got {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, rule, "{name}: wrong rule: {f:?}");
    assert_eq!(f.line, line, "{name}: wrong line: {f:?}");
    assert!(!f.suppressed, "{name}: must be unsuppressed: {f:?}");
    assert!(
        f.file.ends_with(&format!("tests/fixtures/{name}")),
        "{name}: finding names the wrong file: {}",
        f.file
    );
    assert!(report.is_dirty());
}

#[test]
fn det01_hashmap_fixture() {
    assert_single_finding("det01_hashmap.rs", "DET01", 3);
}

#[test]
fn det02_clock_fixture() {
    assert_single_finding("det02_clock.rs", "DET02", 4);
}

#[test]
fn det03_spawn_fixture() {
    assert_single_finding("det03_spawn.rs", "DET03", 4);
}

#[test]
fn det03_builder_fixture() {
    assert_single_finding("det03_builder.rs", "DET03", 5);
    // The same pool-style spawn site is sanctioned inside crates/par.
    let targets = adhoc_targets_as(&[fixture("det03_builder.rs")], "par");
    let report = audit_targets(&targets);
    assert!(
        report.findings.is_empty(),
        "Builder spawns are par's to make: {:?}",
        report.findings
    );
}

#[test]
fn rtt_source_wallclock_fixture_fires_det02_under_netsim() {
    // An RttSource impl that consults the wall clock must dirty the
    // audit in netsim's context: base RTT synthesis is required to be
    // a pure function of (seed, lo, hi).
    let targets = adhoc_targets_as(&[fixture("det02_rtt_source.rs")], "netsim");
    let report = audit_targets(&targets);
    assert_eq!(
        report.findings.len(),
        1,
        "expected one finding: {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!((f.rule.as_str(), f.line), ("DET02", 19), "{f:?}");
    assert!(report.is_dirty());
}

#[test]
fn det02_socket_fixture_fires_everywhere_but_svc() {
    // Default (strictest) context: a socket is a DET02 hazard.
    assert_single_finding("det02_socket.rs", "DET02", 6);
    // Simulation and bench contexts keep the rule armed — bench has a
    // wall-clock license, not a socket one.
    for context in ["netsim", "sim", "bench"] {
        let targets = adhoc_targets_as(&[fixture("det02_socket.rs")], context);
        let report = audit_targets(&targets);
        assert_eq!(
            report.findings.len(),
            1,
            "socket under the {context} context: {:?}",
            report.findings
        );
        let f = &report.findings[0];
        assert_eq!((f.rule.as_str(), f.line), ("DET02", 6), "{context}: {f:?}");
        assert!(f.message.contains("crates/svc"), "{context}: {f:?}");
        assert!(report.is_dirty());
    }
    // The daemon crate is the one sanctioned socket home.
    let targets = adhoc_targets_as(&[fixture("det02_socket.rs")], "svc");
    let report = audit_targets(&targets);
    assert!(
        report.findings.is_empty(),
        "sockets are svc's to open: {:?}",
        report.findings
    );
}

#[test]
fn svc_context_licenses_wallclock_and_spawns_but_not_hashmaps() {
    // The daemon's clock reads and worker spawns are by design...
    for name in ["det02_clock.rs", "det03_spawn.rs", "det03_builder.rs"] {
        let targets = adhoc_targets_as(&[fixture(name)], "svc");
        let report = audit_targets(&targets);
        assert!(
            report.findings.is_empty(),
            "{name} must be clean under the svc context: {:?}",
            report.findings
        );
    }
}

#[test]
fn panic01_unwrap_fixture() {
    assert_single_finding("panic01_unwrap.rs", "PANIC01", 4);
}

#[test]
fn det02_and_panic01_cover_the_attack_crate() {
    // The adversary implementations answer `intercept` purely from
    // `(seed, tick, victim, peer)` streams — a wall-clock read or a
    // stray unwrap in `crates/attack` would break bit-identical replay,
    // so the attack context must keep both rules armed.
    for (name, rule, line) in [
        ("det02_clock.rs", "DET02", 4),
        ("panic01_unwrap.rs", "PANIC01", 4),
    ] {
        let targets = adhoc_targets_as(&[fixture(name)], "attack");
        let report = audit_targets(&targets);
        assert_eq!(
            report.findings.len(),
            1,
            "{name} under the attack context: {:?}",
            report.findings
        );
        let f = &report.findings[0];
        assert_eq!((f.rule.as_str(), f.line), (rule, line), "{f:?}");
        assert!(report.is_dirty(), "{rule} must dirty the attack audit");
    }
}

#[test]
fn safe01_fixture_is_a_crate_root() {
    assert_single_finding("safe01/lib.rs", "SAFE01", 1);
}

#[test]
fn obs01_fixture_fires_only_under_the_obs_context() {
    // Under the obs crate's rules the wall-clock read is an OBS01 (and
    // exactly one finding — OBS01 supersedes DET02 there).
    let targets = adhoc_targets_as(&[fixture("obs01_wallclock.rs")], "obs");
    let report = audit_targets(&targets);
    assert_eq!(
        report.findings.len(),
        1,
        "expected one finding: {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!((f.rule.as_str(), f.line), ("OBS01", 5), "{f:?}");
    assert!(f.message.contains("Clock"), "{f:?}");
    // The default (strictest) context reports the same line as DET02.
    let report = audit_fixture("obs01_wallclock.rs");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "DET02");
}

#[test]
fn binary_context_flag_selects_the_obs_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .args(["--context", "obs"])
        .arg(fixture("obs01_wallclock.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(!out.status.success(), "OBS01 must dirty the audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OBS01"), "{stdout}");
    assert!(!stdout.contains("DET02"), "double-reported: {stdout}");
}

#[test]
fn allow01_fixture_reports_malformed_allow_and_keeps_the_finding() {
    let report = audit_fixture("allow01_missing_reason.rs");
    let rules: Vec<(&str, u32, bool)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.line, f.suppressed))
        .collect();
    assert!(
        rules.contains(&("ALLOW01", 4, false)),
        "missing ALLOW01: {rules:?}"
    );
    assert!(
        rules.contains(&("PANIC01", 4, false)),
        "a malformed allow must not suppress: {rules:?}"
    );
    assert!(
        report.allows.is_empty(),
        "malformed allows are not inventoried"
    );
}

#[test]
fn clean_fixture_is_suppressed_with_inventoried_reason() {
    let report = audit_fixture("clean_allowed.rs");
    assert!(!report.is_dirty(), "{:?}", report.findings);
    assert_eq!(report.findings.len(), 1);
    assert!(report.findings[0].suppressed);
    assert_eq!(report.allows.len(), 1);
    assert!(report.allows[0].used);
    assert_eq!(
        report.allows[0].reason,
        "fixture demonstrating a well-formed reasoned suppression"
    );
}

#[test]
fn binary_exits_nonzero_on_each_bad_fixture() {
    for name in [
        "det01_hashmap.rs",
        "det02_clock.rs",
        "det02_rtt_source.rs",
        "det02_socket.rs",
        "det03_spawn.rs",
        "det03_builder.rs",
        "panic01_unwrap.rs",
        "panic02_literal_index.rs",
        "obs02_par_closure.rs",
        "stream01_bare_tag.rs",
        "stream01_dup/streams.rs",
        "safe01/lib.rs",
        "allow01_missing_reason.rs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
            .arg(fixture(name))
            .output()
            .unwrap_or_else(|e| panic!("running ices-audit on {name}: {e}"));
        assert!(
            !out.status.success(),
            "{name} should dirty the audit:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_zero_and_emits_json_on_the_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg("--json")
        .arg(fixture("clean_allowed.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(
        out.status.success(),
        "clean fixture must exit 0:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\""), "not JSON: {stdout}");
    assert!(stdout.contains("PANIC01"), "{stdout}");
}

#[test]
fn panic02_fixture_flags_only_the_literal_index() {
    assert_single_finding("panic02_literal_index.rs", "PANIC02", 8);
}

#[test]
fn obs02_fixture_flags_only_the_closure_body_mutation() {
    assert_single_finding("obs02_par_closure.rs", "OBS02", 8);
}

#[test]
fn stream01_fixture_flags_hex_and_ctor_string_tags() {
    let report = audit_fixture("stream01_bare_tag.rs");
    let got: Vec<(&str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        [("STREAM01", 10), ("STREAM01", 11)],
        "{:?}",
        report.findings
    );
    assert!(report.is_dirty());
}

#[test]
fn stream01_duplicate_registry_fixture_flags_both_declarations() {
    let report = audit_fixture("stream01_dup/streams.rs");
    let got: Vec<(&str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        [("STREAM01", 5), ("STREAM01", 6)],
        "{:?}",
        report.findings
    );
    assert!(
        report.findings[0].message.contains("NPSV"),
        "{:?}",
        report.findings
    );
    assert!(report.is_dirty());
}

#[test]
fn stream01_dead_constant_fixture_flags_the_unused_tag() {
    let targets = adhoc_targets(&[fixture("stream01_dead")]);
    let report = audit_targets(&targets);
    assert_eq!(report.files_audited, 2);
    let got: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.file.rsplit('/').next().unwrap_or(""),
                f.rule.as_str(),
                f.line,
            )
        })
        .collect();
    assert_eq!(
        got,
        [("streams.rs", "STREAM01", 5)],
        "{:?}",
        report.findings
    );
    assert!(
        report.findings[0].message.contains("CHRN"),
        "{:?}",
        report.findings
    );
    assert!(report.is_dirty());
}

#[test]
fn allow02_fixture_warns_by_default_and_fails_under_strict() {
    let report = audit_fixture("allow02_stale.rs");
    let got: Vec<(&str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.line))
        .collect();
    assert_eq!(got, [("ALLOW02", 5)], "{:?}", report.findings);
    assert_eq!(report.findings[0].severity, Severity::Warn);
    assert!(!report.is_dirty(), "stale allows are advisory by default");

    let targets = adhoc_targets(&[fixture("allow02_stale.rs")]);
    let strict = AuditOptions {
        strict_allows: true,
    };
    let report = audit_targets_with(&targets, &strict);
    assert_eq!(report.findings[0].severity, Severity::Error);
    assert!(report.is_dirty(), "--strict-allows must fail stale allows");
}

#[test]
fn binary_strict_allows_flag_gates_the_exit_code() {
    let clean = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg(fixture("allow02_stale.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(
        clean.status.success(),
        "stale allow must be a warning by default:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let strict = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg("--strict-allows")
        .arg(fixture("allow02_stale.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(
        !strict.status.success(),
        "--strict-allows must exit nonzero:\n{}",
        String::from_utf8_lossy(&strict.stdout)
    );
    let stdout = String::from_utf8_lossy(&strict.stdout);
    assert!(stdout.contains("ALLOW02"), "{stdout}");
}

#[test]
fn binary_baseline_round_trip_grandfathers_then_catches_fresh_findings() {
    let dir = std::env::temp_dir().join("ices_audit_baseline_test");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let baseline = dir.join("baseline.txt");
    // Write the baseline for the PANIC02 fixture...
    let write = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg("--write-baseline")
        .arg(&baseline)
        .arg(fixture("panic02_literal_index.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(!write.status.success(), "pre-baseline verdict still gates");
    // ...then the same audit under that baseline passes...
    let under = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(fixture("panic02_literal_index.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(
        under.status.success(),
        "baselined finding must downgrade:\n{}",
        String::from_utf8_lossy(&under.stdout)
    );
    // ...but a finding kind outside the baseline still fails.
    let fresh = Command::new(env!("CARGO_BIN_EXE_ices-audit"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(fixture("panic02_literal_index.rs"))
        .arg(fixture("obs02_par_closure.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running ices-audit: {e}"));
    assert!(
        !fresh.status.success(),
        "un-baselined finding must still fail:\n{}",
        String::from_utf8_lossy(&fresh.stdout)
    );
}
