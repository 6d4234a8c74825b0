//! Micro-benchmark of the persistent worker pool: what one broadcast
//! costs per call on a warm two-worker pool. The work per call is 64
//! float increments, so the figure is dispatch overhead, not work.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");

    group.bench_function("broadcast_2_partitions", |b| {
        let mut data = vec![0.0f64; 64];
        ices_par::with_threads(2, || {
            // The first dispatch spawns and parks the workers.
            for _ in 0..16 {
                ices_par::par_map_mut(&mut data, |_, x| *x += 1.0);
            }
            b.iter(|| ices_par::par_map_mut(&mut data, |_, x| *x += 1.0));
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
