//! Deterministic, std-only parallel execution for the simulation engine.
//!
//! Every entry point preserves **input order in its output** regardless of
//! which worker processed which item, so callers that are themselves
//! order-independent (the two-phase tick loops, the detection sweeps)
//! produce bit-for-bit identical results at any worker count.
//!
//! Work is executed by a process-wide **persistent worker pool** (see
//! [`pool`]): threads are spawned once, parked on a condvar between
//! calls, and handed **static contiguous partitions** — no work stealing,
//! no shared cursor — so the partition each worker runs is a pure
//! function of `(input length, resolved thread count)` and results are
//! bit-for-bit identical to the sequential path at any `ICES_THREADS`.
//!
//! Worker-count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    determinism tests so parallel test binaries don't race on the
//!    process environment),
//! 2. the `ICES_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 (`ICES_THREADS=1`) takes the plain sequential
//! path — no threads are spawned at all, making the single-threaded
//! schedule *exactly* the naive loop.
//!
//! Panics inside worker closures propagate to the caller when the
//! dispatch completes its barrier, so a failing item still fails the run.

// The pool module needs lifetime erasure (as rayon does) and carries the
// workspace's only sanctioned `unsafe`; everything else in this crate
// still refuses it at lint level `deny`.
#![deny(unsafe_code)]

mod pool;

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// One `par_chunks_mut` partition slot: (chunk base index, the
/// partition's exclusive sub-slice, its result).
type MutTask<'a, T, R> = Mutex<(usize, Option<&'a mut [T]>, Option<R>)>;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV: &str = "ICES_THREADS";

/// Parse an `ICES_THREADS` value into a worker count.
///
/// Accepts a positive integer (surrounding whitespace ignored). Zero,
/// negative, non-numeric, and empty values are errors — zero in
/// particular is rejected rather than silently bumped to 1, so a typo'd
/// configuration is surfaced instead of quietly changing the schedule.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV} must be a positive worker count, got 0 \
             (use {THREADS_ENV}=1 for the exact sequential path)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got {trimmed:?}"
        )),
    }
}

/// Resolve the worker count: [`with_threads`] override, then
/// `ICES_THREADS`, then available parallelism. Always at least 1.
///
/// An invalid `ICES_THREADS` value (zero, negative, non-numeric) is
/// reported once on stderr with the [`parse_threads`] error and the
/// variable is then ignored in favor of available parallelism — a loud
/// fallback rather than a silent one or a library panic.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        match parse_threads(&raw) {
            Ok(n) => return n,
            Err(message) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!("error: {message}; ignoring it and using available parallelism");
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the worker count pinned to `n` on this thread (nested
/// calls see the innermost value). The previous setting is restored even
/// when `f` panics.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|cell| cell.replace(Some(n.max(1)))));
    f()
}

fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Poison only signals that some partition panicked; the panic itself
    // is re-raised by the pool's dispatch barrier, so recovering here is
    // safe and keeps partial results out of the caller's hands anyway.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Static contiguous partitioning: items `[w·chunk, min(len, (w+1)·chunk))`
/// belong to partition `w`. Pure function of `(len, threads)` — never of
/// scheduling — which is what keeps parallel runs bit-identical.
fn partition_plan(len: usize, threads: usize) -> (usize, usize) {
    let chunk_len = len.div_ceil(threads);
    (chunk_len, len.div_ceil(chunk_len))
}

/// Map `f` over `items` in parallel, returning results **in input order**.
///
/// Work is split into static contiguous partitions — one per resolved
/// worker — executed by the persistent pool; per-partition result
/// vectors are concatenated in partition order, which is input order.
/// `f` receives `(index, &item)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = max_threads().min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let len = items.len();
    let (chunk_len, partitions) = partition_plan(len, threads);
    let parts: Vec<Mutex<Vec<R>>> = (0..partitions).map(|_| Mutex::new(Vec::new())).collect();
    pool::broadcast(partitions, &|w| {
        let start = w * chunk_len;
        let end = (start + chunk_len).min(len);
        let out: Vec<R> = items[start..end]
            .iter()
            .enumerate()
            .map(|(offset, item)| f(start + offset, item))
            .collect();
        *lock_recovering(&parts[w]) = out;
    });
    let mut result = Vec::with_capacity(len);
    for part in parts {
        result.append(&mut part.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    result
}

/// Mutate every item of `items` in parallel, returning `f`'s per-item
/// results **in input order**.
///
/// The slice is split into one contiguous chunk per worker
/// (`chunks_mut`), so each worker owns its items exclusively — this is
/// the two-phase tick loops' update phase, where every node mutates only
/// itself against an immutable snapshot. `f` receives `(index, &mut item)`.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = max_threads().min(items.len().max(1));
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    par_chunks_mut(items, |base, chunk| {
        chunk
            .iter_mut()
            .enumerate()
            .map(|(offset, item)| f(base + offset, item))
            .collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Run `f` once per worker on that worker's contiguous chunk of `items`,
/// returning the per-chunk results **in chunk order**.
///
/// The chunks are the static partitions every entry point uses (one per
/// resolved worker, a pure function of `(len, threads)`); with one worker
/// `f` runs once, on the whole slice. `f` receives `(index of the chunk's
/// first item, &mut chunk)` — for work that wants a batch per worker
/// rather than a call per item.
pub fn par_chunks_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let threads = max_threads().min(items.len().max(1));
    if threads <= 1 {
        return vec![f(0, items)];
    }

    let (chunk_len, _) = partition_plan(items.len(), threads);
    // Each partition's exclusive chunk travels through a Mutex'd Option
    // so the (shared, Sync) dispatch closure can hand it to exactly one
    // worker; the result comes back through the same slot.
    let tasks: Vec<MutTask<'_, T, R>> = items
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(w, chunk)| Mutex::new((w * chunk_len, Some(chunk), None)))
        .collect();
    pool::broadcast(tasks.len(), &|w| {
        let mut slot = lock_recovering(&tasks[w]);
        let (base, chunk, out) = &mut *slot;
        if let Some(chunk) = chunk.take() {
            *out = Some(f(*base, chunk));
        }
    });
    tasks
        .into_iter()
        .filter_map(|t| t.into_inner().unwrap_or_else(PoisonError::into_inner).2)
        .collect()
}

/// Select mutable references to the given `indices` of `items`.
///
/// `indices` must be strictly increasing and in bounds; the disjointness
/// this guarantees is what makes handing the references to parallel
/// workers sound, and it is enforced with plain safe `split_at_mut`.
/// Used by the NPS driver to update one hierarchy layer's members while
/// the rest of the population stays immutable.
pub fn select_disjoint_mut<'a, T>(items: &'a mut [T], indices: &[usize]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(indices.len());
    let mut rest = items;
    let mut consumed = 0usize;
    for &index in indices {
        assert!(
            index >= consumed,
            "indices must be strictly increasing (saw {index} after {consumed})"
        );
        let (_, tail) = rest.split_at_mut(index - consumed);
        #[allow(clippy::expect_used)] // same contract as the audit:allow below
        let (picked, tail) = tail
            .split_first_mut()
            // audit:allow(PANIC01): documented caller contract — indices strictly increasing and in bounds; violating it must fail loudly, not limp on
            .expect("index out of bounds in select_disjoint_mut");
        out.push(picked);
        rest = tail;
        consumed = index + 1;
    }
    out
}

/// Run `f(index, &mut items[index])` for every index in `indices` in
/// parallel, returning results **in `indices` order**. `indices` must be
/// strictly increasing.
pub fn par_for_indices<T, R, F>(items: &mut [T], indices: &[usize], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = max_threads().min(indices.len().max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(indices.len());
        let picked = select_disjoint_mut(items, indices);
        for (&index, item) in indices.iter().zip(picked) {
            out.push(f(index, item));
        }
        return out;
    }

    let picked = select_disjoint_mut(items, indices);
    let mut paired: Vec<(usize, &mut T)> = indices.iter().copied().zip(picked).collect();
    par_map_mut(&mut paired, |_, (index, item)| f(*index, item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(4, || par_map(&items, |i, &x| i * 1000 + x));
        let expected: Vec<usize> = (0..257).map(|i| i * 1000 + i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_matches_sequential_bitwise() {
        let items: Vec<u64> = (0..100).collect();
        let f = |i: usize, &x: &u64| (x as f64 * 0.1 + i as f64).sin();
        let seq = with_threads(1, || par_map(&items, f));
        let par = with_threads(8, || par_map(&items, f));
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_mut_mutates_every_item_in_order() {
        let mut items: Vec<u64> = vec![0; 300];
        let out = with_threads(3, || {
            par_map_mut(&mut items, |i, x| {
                *x = i as u64 * 2;
                i as u64
            })
        });
        assert_eq!(out, (0..300).collect::<Vec<u64>>());
        assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
    }

    #[test]
    fn par_chunks_mut_hands_each_worker_its_partition() {
        let mut items: Vec<usize> = (0..10).collect();
        let chunks = with_threads(3, || {
            par_chunks_mut(&mut items, |base, chunk| {
                for x in chunk.iter_mut() {
                    *x += 100;
                }
                (base, chunk.len())
            })
        });
        assert_eq!(chunks, vec![(0, 4), (4, 4), (8, 2)]);
        assert!(items.iter().enumerate().all(|(i, &x)| x == i + 100));
        let whole = with_threads(1, || par_chunks_mut(&mut items, |base, c| (base, c.len())));
        assert_eq!(whole, vec![(0, 10)]);
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, |_, x| *x).is_empty());
    }

    #[test]
    fn threads_one_takes_sequential_path() {
        // The sequential path must not spawn: observable via thread id.
        let main_thread = std::thread::current().id();
        with_threads(1, || {
            let items = [1, 2, 3];
            let out = par_map(&items, |_, &x| {
                assert_eq!(std::thread::current().id(), main_thread);
                x * 2
            });
            assert_eq!(out, vec![2, 4, 6]);
        });
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(5, || {
            assert_eq!(max_threads(), 5);
            with_threads(2, || assert_eq!(max_threads(), 2));
            assert_eq!(max_threads(), 5);
        });
    }

    #[test]
    fn panics_propagate_from_workers() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let items: Vec<usize> = (0..64).collect();
                par_map(&items, |_, &x| {
                    if x == 33 {
                        panic!("boom at 33");
                    }
                    x
                })
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panics_propagate_from_mut_workers() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let mut items: Vec<usize> = (0..64).collect();
                par_map_mut(&mut items, |_, x| {
                    if *x == 7 {
                        panic!("boom at 7");
                    }
                    *x
                })
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn select_disjoint_mut_picks_requested_items() {
        let mut items: Vec<u32> = (0..10).collect();
        let picked = select_disjoint_mut(&mut items, &[1, 4, 9]);
        assert_eq!(picked.iter().map(|x| **x).collect::<Vec<_>>(), [1, 4, 9]);
        for p in picked {
            *p += 100;
        }
        assert_eq!(items, [0, 101, 2, 3, 104, 5, 6, 7, 8, 109]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn select_disjoint_mut_rejects_unsorted() {
        let mut items = [0u8; 4];
        let _ = select_disjoint_mut(&mut items, &[2, 1]);
    }

    #[test]
    fn par_for_indices_matches_sequential() {
        let base: Vec<u64> = (0..50).collect();
        let indices: Vec<usize> = (0..50).filter(|i| i % 3 == 0).collect();
        let run = |threads: usize| {
            let mut items = base.clone();
            let out = with_threads(threads, || {
                par_for_indices(&mut items, &indices, |i, x| {
                    *x += 1000;
                    i as u64 + *x
                })
            });
            (items, out)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn parse_threads_accepts_positive_counts() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("16"), Ok(16));
        assert_eq!(parse_threads("  4\n"), Ok(4), "whitespace is tolerated");
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage_with_clear_messages() {
        let zero = parse_threads("0").expect_err("zero workers is invalid");
        assert!(zero.contains(THREADS_ENV), "names the variable: {zero}");
        assert!(zero.contains("got 0"), "names the value: {zero}");
        for bad in ["", "abc", "-2", "1.5", "4x"] {
            let err = parse_threads(bad).expect_err("invalid value");
            assert!(
                err.contains(THREADS_ENV) && err.contains("positive integer"),
                "unclear message for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn env_var_is_honoured_without_override() {
        // Only exercised when the variable is absent from the ambient
        // environment; the override-based tests above cover the rest.
        if std::env::var(THREADS_ENV).is_err() {
            assert!(max_threads() >= 1);
        }
    }
}
