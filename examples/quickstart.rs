//! Quickstart: calibrate a Kalman filter on a clean relative-error trace
//! and use the innovation test to vet embedding steps.
//!
//! This walks the paper's pipeline at its smallest useful granularity —
//! no network simulation, just the model, the calibration, and the test:
//!
//! 1. obtain a clean trace of measured relative errors `D_n`;
//! 2. calibrate θ = (β, v_W, v_U, w̄, w₀, p₀) by EM (§2.2);
//! 3. run the filter and flag steps whose innovation exceeds
//!    `√v_η · Q⁻¹(α/2)` (§4.1).
//!
//! Run with: `cargo run --example quickstart`

use ices::core::{calibrate, Detector, DetectorError, EmConfig, StateSpaceParams};
use ices::stats::rng::stream_rng;

fn main() -> Result<(), DetectorError> {
    // ── 1. A clean trace ────────────────────────────────────────────
    // In the deployed system this trace is a Surveyor's own embedding
    // history. Here we draw it from a known model so we can check the
    // calibration against ground truth.
    let truth = StateSpaceParams {
        beta: 0.85,
        v_w: 0.001,
        v_u: 0.004,
        w_bar: 0.02,
        w0: 0.6,
        p0: 0.05,
    };
    let mut rng = stream_rng(42, 0);
    let trace = truth.simulate(4000, &mut rng);
    println!("collected {} clean relative-error samples", trace.len());
    println!(
        "  stationary mean of the truth model: {:.4}",
        truth.stationary_mean()
    );

    // ── 2. EM calibration ───────────────────────────────────────────
    let outcome = calibrate(
        &trace,
        StateSpaceParams::em_initial_guess(),
        &EmConfig::default(),
    );
    println!(
        "EM converged after {} iterations (paper tolerance: all θ deltas < 0.02)",
        outcome.iterations
    );
    let p = outcome.params;
    println!(
        "  calibrated: β={:.3} v_W={:.5} v_U={:.5} w̄={:.4} w₀={:.3} p₀={:.4}",
        p.beta, p.v_w, p.v_u, p.w_bar, p.w0, p.p0
    );
    println!(
        "  implied stationary mean {:.4} (truth {:.4})",
        p.stationary_mean(),
        truth.stationary_mean()
    );

    // ── 3. The detection test ───────────────────────────────────────
    // Warm the filter on clean traffic first — a node always embeds
    // honestly for a while before an attacker shows up, and a converged
    // filter is what makes sudden manipulation stand out.
    let warmup = truth.simulate(500, &mut rng);
    let fresh = truth.simulate(2000, &mut rng);

    let mut detector = Detector::new(p, 0.05)?;
    for &d in &warmup {
        detector.assess(d)?;
    }
    let mut flagged = 0;
    for &d in &fresh {
        if detector.assess(d)?.suspicious {
            flagged += 1;
        }
    }
    println!(
        "clean stream: {flagged}/{} steps flagged ({:.1}%, α = 5%)",
        fresh.len(),
        100.0 * flagged as f64 / fresh.len() as f64
    );

    // Now the attack begins: tampered probes shift the relative error by
    // +0.4 on every step. Because rejected observations are *discarded*
    // (they never update the filter), the filter cannot be dragged along
    // — the attacker stays outside the confidence interval forever.
    let mut caught = 0;
    for &d in &fresh {
        if detector.assess(d + 0.4)?.suspicious {
            caught += 1;
        }
    }
    println!(
        "tampered stream (+0.4 shift): {caught}/{} steps flagged ({:.1}%)",
        fresh.len(),
        100.0 * caught as f64 / fresh.len() as f64
    );
    println!();
    println!("the detector accepts clean embedding steps at roughly the 1 − α rate");
    println!("and rejects tampered ones almost always; discarding rejected samples");
    println!("is what keeps the filter from being frog-boiled toward the attacker.");
    Ok(())
}
