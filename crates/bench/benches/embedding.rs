//! Benchmarks of the embedding substrates: a Vivaldi spring update, an
//! NPS downhill-simplex repositioning, and a full secured embedding step
//! (detection + Vivaldi update, vetted by the production sweep on a
//! one-node slice) — the end-to-end per-step cost of the paper's
//! protocol.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::{vet_single, DetectorBank, SecureNode, SecurityConfig, StateSpaceParams, VetEvent};
use ices_nps::{NpsConfig, NpsNode};
use ices_vivaldi::{VivaldiConfig, VivaldiNode};
use std::hint::black_box;

fn vivaldi_sample(i: usize) -> PeerSample {
    PeerSample {
        peer: i % 64,
        peer_coord: Coordinate::new(vec![(i % 100) as f64, ((i * 7) % 90) as f64], 2.0),
        peer_error: 0.25,
        rtt_ms: 30.0 + (i % 50) as f64,
    }
}

fn bench_embedding(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding");

    group.bench_function("vivaldi_step", |b| {
        let mut node = VivaldiNode::new(0, VivaldiConfig::paper_default(), 1);
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(node.apply_step(black_box(&vivaldi_sample(i))))
        });
    });

    group.bench_function("secured_vivaldi_step", |b| {
        let params = StateSpaceParams {
            beta: 0.8,
            v_w: 0.004,
            v_u: 0.002,
            w_bar: 0.03,
            w0: 0.5,
            p0: 0.05,
        };
        let Ok(mut node) = SecureNode::new(
            VivaldiNode::new(0, VivaldiConfig::paper_default(), 1),
            params,
            0,
            SecurityConfig::paper_default(),
        ) else {
            panic!("the paper's security config is valid");
        };
        // The bank persists across steps, as in the drivers.
        let mut bank = DetectorBank::new();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let events = [VetEvent::Sample(vivaldi_sample(i))];
            vet_single(
                &mut bank,
                &mut [&mut node],
                black_box(&events),
                |_, step| {
                    black_box(step);
                },
            );
        });
    });

    group.sample_size(20);
    group.bench_function("nps_round_8d_20rps", |b| {
        let cfg = NpsConfig::paper_default();
        let samples: Vec<PeerSample> = (0..20)
            .map(|k| {
                let pos: Vec<f64> = (0..8)
                    .map(|d| ((k * 13 + d * 7) % 120) as f64 - 40.0)
                    .collect();
                let dist = pos.iter().map(|x| x * x).sum::<f64>().sqrt().max(1.0);
                PeerSample {
                    peer: k,
                    peer_coord: Coordinate::euclidean(pos),
                    peer_error: 0.2,
                    rtt_ms: dist,
                }
            })
            .collect();
        b.iter_batched_ref(
            || NpsNode::new(0, cfg, 3),
            |node| {
                for s in &samples {
                    node.apply_step(s);
                }
                black_box(node.finish_round())
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_embedding);
criterion_main!(benches);
