//! Fig 14 — ROC curves of the detection test securing NPS under the
//! colluding reference-point attack with anti-detection.

use ices_bench::{print_header, write_result, HarnessOptions};
use ices_sim::experiments::detection::{
    fig14_nps_sweep, fig14_nps_sweep_with_drag, NPS_DRAG_STEALTHY, PAPER_ALPHAS, PAPER_FRACTIONS,
};

fn main() {
    let options = HarnessOptions::from_args();
    print_header(
        &options,
        "Fig 14: ROC curves (NPS, colluding RP attack with anti-detection)",
    );
    let sweep = fig14_nps_sweep(&options.scale, &PAPER_FRACTIONS, &PAPER_ALPHAS);
    write_result(&options, "sweep_nps", &sweep);

    for &fraction in &PAPER_FRACTIONS {
        let roc = sweep.roc_for(fraction);
        if roc.points.is_empty() {
            continue;
        }
        let positives = sweep
            .cell(fraction, PAPER_ALPHAS[0])
            .map(|c| c.confusion.positives())
            .unwrap_or(0);
        println!(
            "## {}% malicious nodes ({} malicious steps observed)",
            (fraction * 100.0).round(),
            positives
        );
        if positives == 0 {
            println!("   conspiracy never reached 5 reference points in a layer");
            println!();
            continue;
        }
        println!("{:>8}  {:>10}  {:>10}", "alpha", "FPR", "TPR");
        for p in &roc.points {
            println!("{:>8.2}  {:>10.4}  {:>10.4}", p.alpha, p.fpr, p.tpr);
        }
        println!("AUC = {:.4}", roc.auc());
        println!();
    }
    println!("(paper: slightly better than the Vivaldi ROCs — NPS's built-in filter");
    println!(" assists, and the hierarchy limits mis-positioning propagation)");
    println!();

    // Extension: the stealth/effectiveness trade-off. A conspiracy that
    // sizes its per-sample deviations near the honest noise floor evades
    // the test far more often — but each accepted sample then moves the
    // victim proportionally less.
    println!("## stealthy-drag variant (drag = {NPS_DRAG_STEALTHY}), 30% malicious");
    let stealth =
        fig14_nps_sweep_with_drag(&options.scale, &[0.30], &PAPER_ALPHAS, NPS_DRAG_STEALTHY);
    write_result(&options, "sweep_nps_stealthy", &stealth);
    let roc = stealth.roc_for(0.30);
    println!("{:>8}  {:>10}  {:>10}", "alpha", "FPR", "TPR");
    for p in &roc.points {
        println!("{:>8.2}  {:>10.4}  {:>10.4}", p.alpha, p.fpr, p.tpr);
    }
    println!("AUC = {:.4}", roc.auc());
}
