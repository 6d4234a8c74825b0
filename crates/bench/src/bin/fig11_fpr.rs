//! Fig 11 — false positive rate vs malicious-population size, per
//! significance level.

use ices_bench::{print_header, write_result, HarnessOptions};
use ices_sim::experiments::detection::{fig9_12_vivaldi_sweep, PAPER_ALPHAS, PAPER_FRACTIONS};

fn main() {
    let options = HarnessOptions::from_args();
    print_header(&options, "Fig 11: false positive rate (Vivaldi)");
    let sweep = fig9_12_vivaldi_sweep(&options.scale, &PAPER_FRACTIONS, &PAPER_ALPHAS);
    write_result(&options, "sweep_vivaldi", &sweep);

    print!("{:>12}", "malicious");
    for &alpha in &PAPER_ALPHAS {
        print!("  {:>10}", format!("α={alpha}"));
    }
    println!();
    for &fraction in &PAPER_FRACTIONS {
        print!("{:>11}%", (fraction * 100.0).round());
        for &alpha in &PAPER_ALPHAS {
            match sweep.cell(fraction, alpha) {
                Some(c) => print!("  {:>10.4}", c.confusion.fpr()),
                None => print!("  {:>10}", "-"),
            }
        }
        println!();
    }
    println!();
    println!("(paper: higher α flags more honest steps; FPR grows with attack");
    println!(" intensity as mis-positioning propagates through the space)");
}
