//! CLI for the workspace determinism & panic-hygiene audit.
//!
//! ```text
//! ices-audit --workspace [--json] [--root PATH] [--strict-allows]
//!            [--baseline FILE | --write-baseline FILE]
//! ices-audit [--json] [--context CRATE] PATH...
//! ```
//!
//! `--workspace` audits every `crates/*/src` file plus the root facade
//! crate. Explicit paths are audited under the strictest context (all
//! rules armed) — this is how the bad-fixture files are exercised —
//! unless `--context CRATE` selects a specific crate's rule set (e.g.
//! `--context obs` arms OBS01, `--context bench` relaxes DET02).
//!
//! `--strict-allows` promotes stale suppressions (ALLOW02) from
//! warnings to errors. `--baseline FILE` downgrades findings whose
//! `file:RULE` key appears in FILE to warnings (grandfathering);
//! `--write-baseline FILE` writes the baseline that would make the
//! current tree pass, then exits by the *pre*-baseline verdict.
//!
//! Exit codes: 0 clean, 1 unsuppressed errors, 2 usage/IO error.

use ices_audit::{
    adhoc_targets_as, apply_baseline, audit_targets_with, find_workspace_root, render_baseline,
    workspace_targets, AuditOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ices-audit --workspace [--json] [--root PATH] [--strict-allows]\n\
         \x20                 [--baseline FILE | --write-baseline FILE]\n\
         \x20      ices-audit [--json] [--context CRATE] PATH..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root_override: Option<PathBuf> = None;
    let mut context = "adhoc".to_string();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut opts = AuditOptions::default();
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--strict-allows" => opts.strict_allows = true,
            "--root" => match args.next() {
                Some(p) => root_override = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--context" => match args.next() {
                Some(name) => context = name,
                None => return usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => return usage(),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if baseline.is_some() && write_baseline.is_some() {
        return usage();
    }

    let targets = if workspace {
        let start = root_override
            .clone()
            .or_else(|| std::env::current_dir().ok());
        let Some(start) = start else {
            eprintln!("ices-audit: cannot determine a starting directory");
            return ExitCode::from(2);
        };
        let Some(root) = find_workspace_root(&start) else {
            eprintln!(
                "ices-audit: no workspace Cargo.toml above {}",
                start.display()
            );
            return ExitCode::from(2);
        };
        workspace_targets(&root)
    } else if !paths.is_empty() {
        adhoc_targets_as(&paths, &context)
    } else {
        return usage();
    };

    let mut report = audit_targets_with(&targets, &opts);

    if let Some(path) = &write_baseline {
        if let Err(err) = std::fs::write(path, render_baseline(&report)) {
            eprintln!(
                "ices-audit: cannot write baseline {}: {err}",
                path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!("ices-audit: baseline written to {}", path.display());
    }
    if let Some(path) = &baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let n = apply_baseline(&mut report, &text);
                if n > 0 {
                    eprintln!(
                        "ices-audit: {n} finding(s) downgraded by baseline {}",
                        path.display()
                    );
                }
            }
            Err(err) => {
                eprintln!("ices-audit: cannot read baseline {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => println!("{text}"),
            Err(err) => {
                eprintln!("ices-audit: cannot serialize report: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        print!("{}", report.render_text());
    }

    if report.is_dirty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
