//! Integration: the calibration pipeline across crates — network traces
//! in, EM-calibrated filters out, verified against the behaviors the
//! paper's §2–3 claim.

use ices::core::kalman::RECALIBRATION_STREAK;
use ices::core::{calibrate, Detector, EmConfig, KalmanFilter, StateSpaceParams};
use ices::sim::replay::{prediction_errors, standardized_innovations};
use ices::sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices::sim::VivaldiSimulation;

fn converged_system(seed: u64) -> VivaldiSimulation {
    let mut sim = VivaldiSimulation::new(ScenarioConfig {
        seed,
        topology: TopologyKind::small_king(90),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.0,
        alpha: 0.05,
        detection: false,
        clean_cycles: 10,
        attack_cycles: 0,
        embed_against_surveyors_only: false,
    });
    sim.run_clean(10);
    sim
}

#[test]
fn every_node_trace_is_calibratable() {
    let sim = converged_system(31);
    for outcome in sim.calibrate_all(&EmConfig::default()) {
        outcome.params.validate();
        assert!(
            outcome.params.beta.abs() < 1.0,
            "stationarity must hold after EM"
        );
    }
}

#[test]
fn own_filter_beats_persistence_predictor_on_own_trace() {
    // Baseline: "predict the previous observation" — the natural causal
    // competitor. (An oracle that knows the whole trace's mean can edge
    // out any causal filter on near-white data, so it is not a fair bar.)
    let mut sim = converged_system(32);
    let outcomes = sim.calibrate_all(&EmConfig::default());
    // The paper's §3.2 protocol: forget coordinates and re-embed, so the
    // evaluation trace has the same shape (convergence transient + tail)
    // as the calibration trace.
    sim.clear_traces();
    sim.forget_coordinates();
    sim.run_clean(5);
    let mut improved = 0usize;
    let mut total = 0usize;
    let mut filter_total = 0.0;
    let mut persistence_total = 0.0;
    for &node in sim.normal_nodes().iter().take(40) {
        let trace = &sim.traces()[node];
        if trace.len() < 50 {
            continue;
        }
        total += 1;
        let params = outcomes[node].params;
        let filter_err: f64 = prediction_errors(params, trace)[10..].iter().sum();
        let persistence_err: f64 = trace.windows(2).skip(9).map(|w| (w[1] - w[0]).abs()).sum();
        filter_total += filter_err;
        persistence_total += persistence_err;
        if filter_err < persistence_err {
            improved += 1;
        }
    }
    assert!(
        improved * 10 >= total * 6,
        "the filter should beat the persistence predictor on most nodes \
         ({improved}/{total})"
    );
    assert!(
        filter_total < 0.9 * persistence_total,
        "aggregate filter error {filter_total:.2} should clearly beat \
         persistence {persistence_total:.2}"
    );
}

#[test]
fn surveyor_filter_transfers_to_nearby_nodes() {
    // The paper's core transferability claim: a normal node can run a
    // *Surveyor's* parameters on its own trace with a usable prediction
    // quality.
    let mut sim = converged_system(33);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.clear_traces();
    sim.run_clean(5);
    let surveyors: Vec<usize> = sim.surveyors().iter().copied().collect();
    let mut usable = 0usize;
    let mut total = 0usize;
    for &node in sim.normal_nodes().iter().take(30) {
        let trace = &sim.traces()[node];
        if trace.len() < 50 {
            continue;
        }
        total += 1;
        // Best Surveyor for this node (the paper: the closest works, but
        // here we just need existence).
        let best = surveyors
            .iter()
            .map(|&s| {
                let params = sim.registry().get(s).expect("calibrated").params;
                let errs = prediction_errors(params, trace);
                errs[10..].iter().sum::<f64>() / (errs.len() - 10) as f64
            })
            .fold(f64::INFINITY, f64::min);
        if best < 0.3 {
            usable += 1;
        }
    }
    assert!(
        usable * 10 >= total * 8,
        "≥80% of nodes should find a Surveyor filter with usable predictions \
         ({usable}/{total})"
    );
}

#[test]
fn standardized_innovations_are_centered_and_scaled() {
    let mut sim = converged_system(34);
    let outcomes = sim.calibrate_all(&EmConfig::default());
    // Evaluate on a re-embedded trace so it has the same shape
    // (convergence transient + tail) as the calibration trace; a
    // steady-state-only trace under-disperses against the transient-fit
    // parameters.
    sim.clear_traces();
    sim.forget_coordinates();
    sim.run_clean(5);
    let mut stats = ices::stats::OnlineStats::new();
    for &node in sim.normal_nodes().iter().take(30) {
        let trace = &sim.traces()[node];
        if trace.len() < 50 {
            continue;
        }
        for z in &standardized_innovations(outcomes[node].params, trace)[10..] {
            stats.push(*z);
        }
    }
    assert!(stats.mean().abs() < 0.25, "mean {}", stats.mean());
    assert!(
        stats.variance() > 0.5 && stats.variance() < 3.5,
        "variance {}",
        stats.variance()
    );
}

#[test]
fn recalibration_trigger_then_refresh_resets_the_filter() {
    // End-to-end over the core API: a filter hit by a sustained shift
    // fires the 10-consecutive rule; recalibrating on fresh clean data
    // restores nominal operation.
    let truth = StateSpaceParams {
        beta: 0.8,
        v_w: 0.001,
        v_u: 0.004,
        w_bar: 0.02,
        w0: 0.3,
        p0: 0.02,
    };
    let mut rng = ices::stats::rng::stream_rng(35, 0);
    let clean = truth.simulate(1500, &mut rng);
    let out = calibrate(
        &clean,
        StateSpaceParams::em_initial_guess(),
        &EmConfig::default(),
    );

    let mut filter = KalmanFilter::new(out.params).unwrap();
    for &d in &clean[..500] {
        filter.update(d);
    }
    assert!(!filter.needs_recalibration());
    // Network conditions change for good: the error level doubles.
    let mut fired_after = None;
    for (i, &d) in clean[500..].iter().enumerate() {
        filter.update(d + 0.5);
        if filter.needs_recalibration() {
            fired_after = Some(i + 1);
            break;
        }
    }
    let fired_after = fired_after.expect("sustained change must fire the trigger");
    assert!(
        fired_after >= RECALIBRATION_STREAK as usize,
        "cannot fire before {RECALIBRATION_STREAK} consecutive outliers"
    );

    // Recalibrate on the new regime.
    let shifted: Vec<f64> = clean.iter().map(|d| d + 0.5).collect();
    let out2 = calibrate(
        &shifted,
        StateSpaceParams::em_initial_guess(),
        &EmConfig::default(),
    );
    let mut detector = Detector::new(out2.params, 0.05).unwrap();
    let mut flagged = 0;
    for &d in &shifted[100..600] {
        if detector.assess(d).unwrap().suspicious {
            flagged += 1;
        }
    }
    assert!(
        (flagged as f64) < 0.15 * 500.0,
        "after recalibration the new regime is normal again ({flagged}/500 flagged)"
    );
}

