//! Micro-benchmarks of the Kalman filter kernel — the paper's claim that
//! per-node filtering costs "a few simple scalar operations".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ices_core::{KalmanFilter, StateSpaceParams};
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

fn filter() -> KalmanFilter {
    match KalmanFilter::new(params()) {
        Ok(filter) => filter,
        Err(e) => panic!("the bench parameters are valid: {e}"),
    }
}

fn bench_kalman(c: &mut Criterion) {
    let mut group = c.benchmark_group("kalman");

    group.bench_function("predict", |b| {
        let filter = filter();
        b.iter(|| black_box(filter.predict()));
    });

    group.bench_function("update", |b| {
        b.iter_batched_ref(
            filter,
            |filter| black_box(filter.update(black_box(0.31))),
            BatchSize::SmallInput,
        );
    });

    let trace: Vec<f64> = {
        let mut rng = ices_stats::rng::stream_rng(1, 0);
        params().simulate(10_000, &mut rng)
    };
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("run_trace_10k", |b| {
        b.iter(|| black_box(KalmanFilter::run_trace(params(), black_box(&trace))));
    });

    group.finish();
}

criterion_group!(benches, bench_kalman);
criterion_main!(benches);
