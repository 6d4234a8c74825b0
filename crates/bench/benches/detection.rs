//! Micro-benchmarks of the detection test: the full per-embedding-step
//! overhead a secured node pays (threshold computation + hypothesis
//! test + filter update), and one snapshot-wide sweep of the detector
//! bank at paper scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ices_core::{Detector, DetectorBank, StateSpaceParams};
use ices_stats::q_inverse;
use std::hint::black_box;

fn params() -> StateSpaceParams {
    StateSpaceParams {
        beta: 0.8,
        v_w: 0.004,
        v_u: 0.002,
        w_bar: 0.03,
        w0: 0.5,
        p0: 0.05,
    }
}

fn detector() -> Detector {
    match Detector::new(params(), 0.05) {
        Ok(d) => d,
        Err(e) => panic!("the bench parameters are valid: {e}"),
    }
}

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection");

    group.bench_function("q_inverse", |b| {
        b.iter(|| black_box(q_inverse(black_box(0.025))));
    });

    group.bench_function("evaluate", |b| {
        let d = detector();
        b.iter(|| black_box(d.evaluate(black_box(0.4))));
    });

    group.bench_function("assess_accept", |b| {
        b.iter_batched_ref(
            detector,
            |d| black_box(d.assess(black_box(0.16))),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("assess_reject", |b| {
        b.iter_batched_ref(
            detector,
            |d| black_box(d.assess(black_box(50.0))),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

/// Detector slots per sweep: the paper's larger population.
const SLOTS: usize = 1740;

/// Deterministic observation for `(sweep, slot)`: a nominal relative
/// error most of the time, a large excursion on a sliding subset, so
/// both the accept and the coast path stay hot.
fn observation(sweep: usize, slot: usize) -> f64 {
    let phase = (sweep.wrapping_mul(31).wrapping_add(slot.wrapping_mul(17))) % 97;
    if phase == 0 {
        3.0
    } else {
        0.08 + 0.10 * (phase as f64 / 97.0)
    }
}

/// One classification sweep (predict, evaluate, accept or coast) over
/// 1,740 slots, as a scalar loop over per-peer `Detector`s and as the
/// `DetectorBank` column kernels the drivers run (one verdict buffer
/// reused across sweeps, as in the vetting sweeps). Both run the same FP
/// operations in the same order; `bank_matches_scalar_detectors_bitwise`
/// pins that they agree bit for bit.
fn bench_bank_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection");

    group.bench_function("sweep_1740_scalar", |b| {
        let mut detectors = vec![detector(); SLOTS];
        let mut sweep = 0;
        b.iter(|| {
            sweep += 1;
            let mut suspicious = 0u32;
            for (slot, det) in detectors.iter_mut().enumerate() {
                let obs = observation(sweep, slot);
                if det.evaluate(obs).is_ok_and(|v| v.suspicious) {
                    suspicious += 1;
                    det.coast();
                } else {
                    det.accept(obs);
                }
            }
            suspicious
        });
    });

    group.bench_function("sweep_1740_bank", |b| {
        let proto = detector();
        let mut bank = DetectorBank::new();
        for _ in 0..SLOTS {
            bank.push(&proto);
        }
        let mut obs = vec![0.0; SLOTS];
        let mut verdicts = Vec::with_capacity(SLOTS);
        let active = vec![true; SLOTS];
        let mut accept = vec![false; SLOTS];
        let mut coast = vec![false; SLOTS];
        let mut sweep = 0;
        b.iter(|| {
            sweep += 1;
            for (slot, o) in obs.iter_mut().enumerate() {
                *o = observation(sweep, slot);
            }
            bank.predict_all();
            bank.evaluate_into(&obs, &active, &mut verdicts);
            let mut suspicious = 0u32;
            for (slot, verdict) in verdicts.iter().enumerate() {
                let bad = verdict.is_some_and(|v| v.suspicious);
                accept[slot] = !bad;
                coast[slot] = bad;
                suspicious += u32::from(bad);
            }
            bank.accept_all(&obs, &accept);
            bank.coast_all(&coast);
            suspicious
        });
    });

    group.finish();
}

criterion_group!(benches, bench_detection, bench_bank_sweep);
criterion_main!(benches);
