#![forbid(unsafe_code)]
//! `ices-audit`: workspace determinism & panic-hygiene static analysis.
//!
//! The workspace's load-bearing guarantee — bit-for-bit identical
//! simulation results at any `ICES_THREADS` and under any `FaultPlan` —
//! rests on invariants no compiler checks: every random draw comes from
//! a named seeded nonce stream, no iteration over randomly seeded hash
//! containers, all parallelism through `ices-par`, no panics in library
//! probe/detector paths. This crate makes those invariants machine
//! enforced: a hand-rolled lexer (`lexer`) that cannot be fooled by
//! comments or string literals feeds a token-tree builder (`tree`) and a
//! per-file rule engine (`rules`) over every `crates/*/src` file plus
//! the root facade; a cross-crate pass then joins the per-file stream
//! facts into the STREAM01 registry analysis (duplicate tags, bare tag
//! literals, dead registry constants). Tier-1 (`tests/audit_clean.rs`)
//! fails the moment a hazard is reintroduced.
//!
//! Run it as `cargo run -p ices-audit -- --workspace [--json]`, or hand
//! it explicit files/directories (audited under the strictest context,
//! with every rule armed — this is what the fixture tests do).

pub mod lexer;
pub mod rules;
pub mod tree;

use rules::{audit_source, AllowEntry, FileContext, FileKind, Finding, Severity, TagDecl};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The one file allowed to declare 4-byte stream tags (STREAM01).
pub const REGISTRY_PATH: &str = "crates/stats/src/streams.rs";

/// Knobs for an audit run.
#[derive(Debug, Default, Clone)]
pub struct AuditOptions {
    /// Promote ALLOW02 (an `audit:allow` that suppresses nothing) from
    /// warning to error — `scripts/audit.sh --strict-allows`.
    pub strict_allows: bool,
}

/// Aggregate result over every audited file.
#[derive(Debug, Default, Serialize)]
pub struct Report {
    pub files_audited: usize,
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowEntry>,
}

impl Report {
    /// Findings not covered by an `audit:allow`.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Unsuppressed findings that gate the exit code.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.unsuppressed()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Should the process exit nonzero?
    pub fn is_dirty(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Human-readable rendering (the non-`--json` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            let tag = match f.severity {
                Severity::Error => "",
                Severity::Warn => " [warn]",
            };
            out.push_str(&format!(
                "{}:{}: {}{}: {}\n",
                f.file, f.line, f.rule, tag, f.message
            ));
        }
        let suppressed = self.findings.iter().filter(|f| f.suppressed).count();
        if !self.allows.is_empty() {
            out.push_str(&format!(
                "\nallowlist inventory ({} entr{}):\n",
                self.allows.len(),
                if self.allows.len() == 1 { "y" } else { "ies" }
            ));
            for a in &self.allows {
                let tag = if a.used { "" } else { " [unused]" };
                out.push_str(&format!(
                    "  {}:{}: {} — {}{}\n",
                    a.file, a.line, a.rule, a.reason, tag
                ));
            }
        }
        let errors = self.errors().count();
        let warns = self.unsuppressed().count() - errors;
        out.push_str(&format!(
            "\naudit: {} files, {} error{} ({} suppressed, {} warning{}), {} allow{}\n",
            self.files_audited,
            errors,
            if errors == 1 { "" } else { "s" },
            suppressed,
            warns,
            if warns == 1 { "" } else { "s" },
            self.allows.len(),
            if self.allows.len() == 1 { "" } else { "s" },
        ));
        out
    }
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collect `.rs` files under `dir` recursively, sorted for stable
/// output ordering.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

fn to_rel_string(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Build the [`FileContext`] for a source file inside crate `crate_name`
/// whose path relative to the crate's `src/` directory is `rel_in_src`.
fn crate_file_context(root: &Path, path: &Path, crate_name: &str, src_dir: &Path) -> FileContext {
    let in_src = path.strip_prefix(src_dir).unwrap_or(path);
    let in_src_str = in_src.to_string_lossy().replace('\\', "/");
    let kind = if in_src_str.starts_with("bin/") || in_src_str == "main.rs" {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    let rel = to_rel_string(root, path);
    let is_registry = rel == REGISTRY_PATH;
    FileContext {
        path: rel,
        crate_name: crate_name.to_string(),
        kind,
        is_crate_root: in_src_str == "lib.rs",
        is_registry,
    }
}

/// Every (path, context) pair of a `--workspace` run: all of
/// `crates/*/src` plus the root facade crate's `src/`.
pub fn workspace_targets(root: &Path) -> Vec<(PathBuf, FileContext)> {
    let mut targets = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src_dir = crate_dir.join("src");
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files);
        for file in files {
            targets.push((
                file.clone(),
                crate_file_context(root, &file, &crate_name, &src_dir),
            ));
        }
    }
    // The root facade crate.
    let root_src = root.join("src");
    let mut files = Vec::new();
    collect_rs(&root_src, &mut files);
    for file in files {
        targets.push((
            file.clone(),
            crate_file_context(root, &file, "ices", &root_src),
        ));
    }
    targets
}

/// Contexts for explicit CLI paths: the strictest interpretation —
/// crate `adhoc` (all determinism rules armed), library kind, crate
/// root iff the file is named `lib.rs`, registry iff it is named
/// `streams.rs` (so registry fixtures exercise the decl extractor).
/// Directories recurse.
pub fn adhoc_targets(paths: &[PathBuf]) -> Vec<(PathBuf, FileContext)> {
    adhoc_targets_as(paths, "adhoc")
}

/// [`adhoc_targets`] under a chosen crate context (`--context NAME`):
/// lets explicit paths be audited with the rule set of a specific crate
/// — e.g. `--context obs` arms OBS01, `--context bench` relaxes DET02 —
/// which is how the fixture tests pin per-crate behavior.
pub fn adhoc_targets_as(paths: &[PathBuf], crate_name: &str) -> Vec<(PathBuf, FileContext)> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            collect_rs(path, &mut files);
        } else {
            files.push(path.clone());
        }
    }
    files
        .into_iter()
        .map(|file| {
            let name = file.file_name().map(|n| n.to_string_lossy().into_owned());
            let is_root = name.as_deref() == Some("lib.rs");
            let is_registry = name.as_deref() == Some("streams.rs");
            let ctx = FileContext {
                path: file.to_string_lossy().replace('\\', "/"),
                crate_name: crate_name.to_string(),
                kind: FileKind::Lib,
                is_crate_root: is_root,
                is_registry,
            };
            (file, ctx)
        })
        .collect()
}

/// Audit the given (path, context) targets with default options.
pub fn audit_targets(targets: &[(PathBuf, FileContext)]) -> Report {
    audit_targets_with(targets, &AuditOptions::default())
}

/// Audit the given (path, context) targets, reading each file once,
/// then run the cross-crate passes:
///
/// * **STREAM01** joins every file's stream facts against the registry:
///   duplicate tag values or names inside the registry, and registered
///   constants no other file ever names (dead streams), all fail the
///   audit. Bare-literal findings (produced per-file) get a `streams::`
///   name hint here when the value is already registered.
/// * **ALLOW02** turns each `audit:allow` that suppressed nothing into
///   a finding — warning by default, error under
///   [`AuditOptions::strict_allows`].
///
/// Unreadable files surface as findings rather than aborting the run.
pub fn audit_targets_with(targets: &[(PathBuf, FileContext)], opts: &AuditOptions) -> Report {
    let mut report = Report::default();
    // (registry file, decl) — in practice one registry, but the pass
    // tolerates several (each fixture dir is its own little workspace).
    let mut decls: Vec<(String, TagDecl)> = Vec::new();
    // Identifiers spelled outside the registry: the usage side of the
    // dead-constant check (the registry names its own constants, which
    // must not count as use).
    let mut outside_idents: BTreeSet<String> = BTreeSet::new();
    // (file, line) -> tag value for bare-literal name hints.
    let mut site_values: BTreeMap<(String, u32), u64> = BTreeMap::new();

    for (path, ctx) in targets {
        match fs::read_to_string(path) {
            Ok(src) => {
                let file_report = audit_source(ctx, &src);
                for d in &file_report.streams.decls {
                    decls.push((ctx.path.clone(), d.clone()));
                }
                if !ctx.is_registry {
                    outside_idents.extend(file_report.streams.idents.iter().cloned());
                }
                for s in &file_report.streams.sites {
                    site_values.insert((ctx.path.clone(), s.line), s.value);
                }
                report.findings.extend(file_report.findings);
                report.allows.extend(file_report.allows);
                report.files_audited += 1;
            }
            Err(err) => {
                report.findings.push(Finding {
                    file: ctx.path.clone(),
                    line: 0,
                    rule: "IO".into(),
                    message: format!("cannot read file: {err}"),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                });
            }
        }
    }

    // ---- Cross-crate STREAM01: the registry table ----
    let mut by_value: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, (_, d)) in decls.iter().enumerate() {
        by_value.entry(d.value).or_default().push(i);
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    for dup in by_value.values().filter(|v| v.len() > 1) {
        for &i in dup {
            let (file, d) = &decls[i];
            let others: Vec<String> = dup
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| format!("`{}` (line {})", decls[j].1.name, decls[j].1.line))
                .collect();
            report.findings.push(Finding {
                file: file.clone(),
                line: d.line,
                rule: "STREAM01".into(),
                message: format!(
                    "stream tag 0x{:08X} (`{}`) is also registered as {} — \
                     colliding tags silently correlate independent streams",
                    d.value,
                    d.name,
                    others.join(", ")
                ),
                suppressed: false,
                reason: String::new(),
                severity: Severity::Error,
            });
        }
    }
    for dup in by_name.values().filter(|v| v.len() > 1) {
        for &i in dup {
            let (file, d) = &decls[i];
            report.findings.push(Finding {
                file: file.clone(),
                line: d.line,
                rule: "STREAM01".into(),
                message: format!(
                    "stream tag name `{}` is declared {} times in the registry",
                    d.name,
                    dup.len()
                ),
                suppressed: false,
                reason: String::new(),
                severity: Severity::Error,
            });
        }
    }
    // Dead registry constants: registered but never named outside.
    // Only meaningful on multi-file runs — a lone registry fixture has
    // no use sites at all, so skip when the registry is the only file.
    if targets.len() > 1 {
        for (file, d) in &decls {
            if !outside_idents.contains(&d.name) {
                report.findings.push(Finding {
                    file: file.clone(),
                    line: d.line,
                    rule: "STREAM01".into(),
                    message: format!(
                        "registered stream tag `{}` is never referenced by any \
                         audited file; delete it or wire its subsystem up",
                        d.name
                    ),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                });
            }
        }
    }
    // Name hints for bare-literal findings whose value is registered.
    let value_names: BTreeMap<u64, &str> = decls
        .iter()
        .map(|(_, d)| (d.value, d.name.as_str()))
        .collect();
    for f in &mut report.findings {
        if f.rule != "STREAM01" || f.suppressed {
            continue;
        }
        if let Some(value) = site_values.get(&(f.file.clone(), f.line)) {
            if let Some(name) = value_names.get(value) {
                f.message.push_str(&format!(
                    " (this value is already registered — use `streams::{name}`)"
                ));
            }
        }
    }

    // ---- ALLOW02: suppressions that suppress nothing ----
    let severity = if opts.strict_allows {
        Severity::Error
    } else {
        Severity::Warn
    };
    let stale: Vec<Finding> = report
        .allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| Finding {
            file: a.file.clone(),
            line: a.line,
            rule: "ALLOW02".into(),
            message: format!(
                "audit:allow({}) suppresses nothing on its line or the line \
                 below; remove the stale suppression",
                a.rule
            ),
            suppressed: false,
            reason: String::new(),
            severity,
        })
        .collect();
    report.findings.extend(stale);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

/// Parse a baseline file (one `file:RULE` key per line, `#` comments)
/// and downgrade matching unsuppressed errors to warnings. Returns the
/// number of findings downgraded. The baseline grandfathers *kinds* of
/// findings per file, not line numbers, so unrelated edits don't churn
/// it.
pub fn apply_baseline(report: &mut Report, baseline: &str) -> usize {
    let keys: BTreeSet<&str> = baseline
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut downgraded = 0;
    for f in &mut report.findings {
        if f.suppressed || f.severity != Severity::Error {
            continue;
        }
        let key = format!("{}:{}", f.file, f.rule);
        if keys.contains(key.as_str()) {
            f.severity = Severity::Warn;
            downgraded += 1;
        }
    }
    downgraded
}

/// Render the baseline that would make the current report pass:
/// one `file:RULE` key per unsuppressed error, sorted and deduplicated.
pub fn render_baseline(report: &Report) -> String {
    let keys: BTreeSet<String> = report
        .errors()
        .map(|f| format!("{}:{}", f.file, f.rule))
        .collect();
    let mut out = String::from(
        "# ices-audit baseline: grandfathered `file:RULE` findings.\n\
         # Regenerate with `scripts/audit.sh --write-baseline`.\n",
    );
    for key in keys {
        out.push_str(&key);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here);
        assert!(root.is_some());
        let root = root.unwrap_or_default();
        assert!(root.join("crates").is_dir(), "{}", root.display());
    }

    #[test]
    fn workspace_targets_cover_every_crate() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).unwrap_or_default();
        let targets = workspace_targets(&root);
        let mut crates: Vec<&str> = targets.iter().map(|(_, c)| c.crate_name.as_str()).collect();
        crates.dedup();
        for expected in ["audit", "coord", "core", "par", "sim", "ices"] {
            assert!(crates.contains(&expected), "missing {expected}: {crates:?}");
        }
        // Crate roots are detected.
        assert!(targets
            .iter()
            .any(|(_, c)| c.crate_name == "par" && c.is_crate_root));
        // Exactly one registry file exists, and it is flagged as such.
        let registries: Vec<&FileContext> = targets
            .iter()
            .map(|(_, c)| c)
            .filter(|c| c.is_registry)
            .collect();
        assert_eq!(registries.len(), 1, "{registries:?}");
        assert_eq!(registries[0].path, REGISTRY_PATH);
    }

    #[test]
    fn bin_files_are_classified() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).unwrap_or_default();
        let targets = workspace_targets(&root);
        let bench_bin = targets
            .iter()
            .find(|(p, _)| p.to_string_lossy().contains("bench/src/bin"));
        if let Some((_, ctx)) = bench_bin {
            assert_eq!(ctx.kind, FileKind::Bin);
        }
        let audit_main = targets
            .iter()
            .find(|(p, _)| p.to_string_lossy().ends_with("audit/src/main.rs"));
        assert!(matches!(audit_main, Some((_, c)) if c.kind == FileKind::Bin));
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = Report {
            files_audited: 1,
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 3,
                rule: "PANIC01".into(),
                message: "boom".into(),
                suppressed: false,
                reason: String::new(),
                severity: Severity::Error,
            }],
            allows: vec![],
        };
        let text = report.render_text();
        assert!(text.contains("x.rs:3: PANIC01"));
        assert!(report.is_dirty());
        let json = serde_json::to_string(&report).unwrap_or_default();
        assert!(json.contains("\"rule\""), "{json}");
        assert!(json.contains("\"severity\""), "{json}");
    }

    #[test]
    fn warnings_do_not_dirty_the_report() {
        let report = Report {
            files_audited: 1,
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 9,
                rule: "ALLOW02".into(),
                message: "stale".into(),
                suppressed: false,
                reason: String::new(),
                severity: Severity::Warn,
            }],
            allows: vec![],
        };
        assert!(!report.is_dirty());
        assert!(report.render_text().contains("[warn]"));
    }

    #[test]
    fn baseline_downgrades_and_round_trips() {
        let mut report = Report {
            files_audited: 1,
            findings: vec![
                Finding {
                    file: "a.rs".into(),
                    line: 3,
                    rule: "PANIC02".into(),
                    message: "x".into(),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                },
                Finding {
                    file: "b.rs".into(),
                    line: 4,
                    rule: "DET01".into(),
                    message: "y".into(),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                },
            ],
            allows: vec![],
        };
        let baseline = render_baseline(&report);
        assert!(baseline.contains("a.rs:PANIC02"));
        assert!(baseline.contains("b.rs:DET01"));
        let n = apply_baseline(&mut report, &baseline);
        assert_eq!(n, 2);
        assert!(!report.is_dirty());
        // A fresh finding kind is NOT covered by the old baseline.
        report.findings.push(Finding {
            file: "c.rs".into(),
            line: 1,
            rule: "OBS02".into(),
            message: "z".into(),
            suppressed: false,
            reason: String::new(),
            severity: Severity::Error,
        });
        let mut again = report;
        assert_eq!(apply_baseline(&mut again, &baseline), 0);
        assert!(again.is_dirty());
    }
}
