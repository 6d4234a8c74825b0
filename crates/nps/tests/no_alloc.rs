//! Counting-allocator proofs of the solver's allocation contracts:
//! after a warm-up call, [`NelderMeadScratch::minimize`] performs no heap
//! allocation at all — not per iteration, not per call — and a batch of
//! rounds ([`NpsNode::finish_rounds`]) allocates per round and per
//! minimization, never per iteration.
//!
//! The counter is per thread, so each test observes only the solver
//! calls it brackets, whatever else the harness runs beside it.

use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_nps::{NelderMeadScratch, NpsConfig, NpsNode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// System allocator with a per-thread allocation-event counter.
/// `dealloc` is uncounted on purpose: freeing warm-up garbage is fine,
/// acquiring new memory inside the measured window is not.
struct CountingAllocator;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is
// a const-initialized thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn rosenbrock(x: &[f64]) -> f64 {
    let (a, b) = (x[0], x[1]);
    (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
}

fn bowl8(x: &[f64]) -> f64 {
    x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum()
}

#[test]
fn warm_scratch_minimize_does_not_allocate() {
    let mut scratch = NelderMeadScratch::new();
    // Warm up both dimensionalities the measured window exercises.
    scratch.minimize(rosenbrock, &[-1.2, 1.0], 0.5, 5000, 1e-12);
    scratch.minimize(bowl8, &[0.0; 8], 1.0, 2000, 1e-10);

    let before = allocations();
    for _ in 0..5 {
        let stats = scratch.minimize(rosenbrock, &[-1.2, 1.0], 0.5, 5000, 1e-12);
        assert!(stats.converged);
        let stats = scratch.minimize(bowl8, &[0.0; 8], 1.0, 2000, 1e-10);
        assert!(stats.converged);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm NelderMeadScratch::minimize must not touch the allocator"
    );
}

/// Six 8-d nodes with 20 samples each; every third has a liar the filter
/// discards at any iteration cap.
fn nodes(max_iter: usize) -> Vec<NpsNode> {
    let cfg = NpsConfig {
        solver_max_iter: max_iter,
        ..NpsConfig::paper_default()
    };
    (0..6)
        .map(|i| {
            let mut node = NpsNode::new(i, cfg, 2007);
            let truth: Vec<f64> = (0..8).map(|d| ((i * 8 + d) as f64).sin() * 60.0).collect();
            for k in 0..20 {
                let pos: Vec<f64> = (0..8)
                    .map(|d| ((k * 8 + d + i) as f64 * 0.7).sin() * 110.0)
                    .collect();
                let dist = pos
                    .iter()
                    .zip(&truth)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let claimed = if i % 3 == 0 && k == 7 {
                    vec![4000.0; 8]
                } else {
                    pos
                };
                node.apply_step(&PeerSample {
                    peer: k,
                    peer_coord: Coordinate::euclidean(claimed),
                    peer_error: 0.1,
                    rtt_ms: dist.max(1.0),
                });
            }
            node
        })
        .collect()
}

#[test]
fn batch_allocations_do_not_scale_with_iterations() {
    // Warm-up: any first-call allocation happens outside the windows.
    NpsNode::finish_rounds(&mut nodes(50));

    let mut counts = Vec::new();
    let mut discards = Vec::new();
    for max_iter in [50, 600] {
        let mut batch = nodes(max_iter);
        let before = allocations();
        let summaries = NpsNode::finish_rounds(&mut batch);
        counts.push(allocations() - before);
        let summaries: Vec<_> = summaries.into_iter().flatten().collect();
        assert_eq!(summaries.len(), 6);
        assert!(summaries.iter().all(|s| s.iterations > 0));
        discards.push(
            summaries
                .iter()
                .map(|s| s.discarded.clone())
                .collect::<Vec<_>>(),
        );
    }
    // The same rounds, phases and discards at both caps, so the same
    // allocations: nothing in the batch allocates per iteration.
    assert_eq!(discards[0], discards[1]);
    assert_eq!(counts[0], counts[1], "allocations at 50 vs 600 iterations");
}
