//! Adversary sweep — the post-2007 attack taxonomy (Sybil swarms,
//! eclipse translations, calibrated slow drift) against the paper's
//! innovation-test detector, each with the cross-verification defense
//! off and on. Not a paper figure: the paper stops at two blatant
//! colluding attacks; this maps where its detector holds, where it is
//! structurally blind, and how much the defense knob buys back.
//!
//! ```text
//! adversary_sweep [--scale test|harness|paper] [--seed N] [--no-json]
//! adversary_sweep --smoke   one intensity per attack at test scale,
//!                           assert the three headline behaviors, write
//!                           nothing
//! ```
//!
//! `--smoke` is the tier-2 gate: sybil must stay blatant (TPR > 0.5),
//! defense-off cells must never cross-check, defense-on eclipse must
//! recover detection over defense-off, and sub-threshold slow drift
//! must evade (TPR < 0.2) — the headline negative result.

use ices_bench::{print_header, write_result, HarnessOptions};
use ices_sim::experiments::adversary::{
    adversary_sweep, adversary_sweep_over, AdversaryCell, AdversarySweep, AttackKind,
};
use ices_sim::experiments::Scale;
use std::process::ExitCode;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: adversary_sweep [--scale test|harness|paper] [--seed N] [--no-json] [--smoke]"
    );
    std::process::exit(2);
}

/// `HarnessOptions::from_args` exits on flags it does not know, so the
/// extra `--smoke` mode parses the shared flags by hand.
fn parse_args() -> (HarnessOptions, bool) {
    let mut scale_name = "harness".to_string();
    let mut seed: Option<u64> = None;
    let mut write_json = true;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = args
                    .next()
                    .unwrap_or_else(|| usage("--scale needs a value"))
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = Some(v.parse().unwrap_or_else(|_| usage("--seed must be a u64")));
            }
            "--no-json" => write_json = false,
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if smoke {
        // The smoke gate is fixed-shape: test scale, no artifacts.
        scale_name = "test".to_string();
        write_json = false;
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
    (
        HarnessOptions {
            scale,
            scale_name,
            write_json,
        },
        smoke,
    )
}

fn opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:>8.3}"),
        None => format!("{:>8}", "-"),
    }
}

fn row(cell: &AdversaryCell) {
    println!(
        "{:>10} {:>9.2} {:>7} | {:>7.3} {:>7.4} | {} {} {} | {:>6} {:>6} {:>7} {:>6}",
        cell.attack.tag(),
        cell.intensity,
        if cell.defense { "on" } else { "off" },
        cell.tpr(),
        cell.fpr(),
        opt(cell.accuracy_median),
        opt(cell.accuracy_p95),
        opt(cell.accuracy_degradation),
        cell.adversary.active_lies,
        cell.adversary.cross_checks,
        cell.adversary.rejections,
        cell.replacements,
    );
}

fn print_sweep(sweep: &AdversarySweep) {
    println!(
        "{:>10} {:>9} {:>7} | {:>7} {:>7} | {:>8} {:>8} {:>8} | {:>6} {:>6} {:>7} {:>6}",
        "attack",
        "intensity",
        "defense",
        "TPR",
        "FPR",
        "med err",
        "p95 err",
        "degrade",
        "lies",
        "checks",
        "rejects",
        "repl"
    );
    for cell in &sweep.cells {
        row(cell);
    }
    println!();
    println!(
        "honest baseline median error: {}",
        opt(sweep.honest_accuracy_median)
    );
    println!("(sybil should be blatant: high TPR at every intensity;");
    println!(" eclipse defense-off TPR collapses — victims converged inside the");
    println!(" translated frame — and cross-verification buys it back;");
    println!(" sub-threshold slow drift evades both layers: the reported negative result)");
}

fn smoke_gate(sweep: &AdversarySweep) -> Result<(), String> {
    let need = |k: AttackKind, i: f64, d: bool| {
        sweep
            .cell(k, i, d)
            .ok_or_else(|| format!("missing {} cell at {i}/{d}", k.tag()))
    };
    let sybil = need(AttackKind::Sybil, 0.25, false)?;
    if sybil.tpr() <= 0.5 {
        return Err(format!("sybil must stay blatant, tpr {}", sybil.tpr()));
    }
    let ecl_off = need(AttackKind::Eclipse, 0.50, false)?;
    let ecl_on = need(AttackKind::Eclipse, 0.50, true)?;
    if ecl_off.adversary.cross_checks != 0 {
        return Err("defense-off cell ran cross-checks".to_string());
    }
    if ecl_on.tpr() <= ecl_off.tpr() + 0.2 {
        return Err(format!(
            "cross-verification must recover eclipse detection: off {} vs on {}",
            ecl_off.tpr(),
            ecl_on.tpr()
        ));
    }
    let drift = need(AttackKind::SlowDrift, 0.05, false)?;
    if drift.tpr() >= 0.2 {
        return Err(format!(
            "sub-threshold drift should evade the detector, tpr {}",
            drift.tpr()
        ));
    }
    // Eclipse is exempt: victims converged inside the translated frame,
    // so even honest samples look inconsistent there — its elevated FPR
    // is part of the reported result, not detector breakage.
    for cell in &sweep.cells {
        if cell.attack != AttackKind::Eclipse && cell.fpr() >= 0.15 {
            return Err(format!(
                "fpr blew up on {} at {}: {}",
                cell.attack.tag(),
                cell.intensity,
                cell.fpr()
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let (options, smoke) = parse_args();
    print_header(
        &options,
        "Adversary sweep: attack taxonomy x intensity x defense",
    );
    let sweep = if smoke {
        // One intensity per attack, both defense arms: the cells the
        // gate asserts on, nothing else.
        adversary_sweep_over(
            &options.scale,
            &[
                (AttackKind::Sybil, 0.25, false),
                (AttackKind::Sybil, 0.25, true),
                (AttackKind::Eclipse, 0.50, false),
                (AttackKind::Eclipse, 0.50, true),
                (AttackKind::SlowDrift, 0.05, false),
                (AttackKind::SlowDrift, 0.05, true),
            ],
        )
    } else {
        adversary_sweep(&options.scale)
    };
    write_result(&options, "adversary_sweep", &sweep);
    print_sweep(&sweep);
    if smoke {
        if let Err(msg) = smoke_gate(&sweep) {
            eprintln!("adversary smoke FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("adversary smoke ok (blatant sybil, defense recovery, drift evasion)");
    }
    ExitCode::SUCCESS
}
