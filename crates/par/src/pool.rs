//! The persistent worker pool behind ices-par's parallel entry points.
//!
//! ## Why a pool
//!
//! The seed implementation spawned a fresh `thread::scope` on every
//! `par_map`/`par_map_mut` call. At tick-engine granularity (hundreds of
//! thousands of calls per run, microseconds of work per call) the spawn
//! and join cost dominated: at harness scale the 2-thread configuration
//! ran *slower* than sequential. The pool spawns each worker exactly
//! once — lazily, on the first dispatch that needs it — and parks
//! workers on a condvar between calls, so a dispatch is a mutex-guarded
//! handoff instead of a clone-and-spawn.
//!
//! ## Handoff protocol
//!
//! A dispatch ("broadcast") publishes one [`Job`] — a type-erased
//! partition closure plus the partition count — under the state mutex,
//! bumps the epoch, and wakes every worker. Worker `w` runs partition
//! `w` iff `w < partitions`; the caller always runs partition 0 itself.
//! The caller then blocks until every *assigned* worker has checked in
//! (`remaining` reaching 0), takes any captured worker panic, clears the
//! job, and only then returns. Epoch tracking makes each worker execute
//! each job at most once, and the `remaining` barrier makes it
//! impossible for a dispatch to complete while any worker could still
//! touch the job.
//!
//! ## Why this stays deterministic
//!
//! The pool itself assigns **static contiguous partitions** — partition
//! `w` is a fixed function of `(items.len(), resolved thread count)`,
//! never of scheduling. There is no work stealing and no shared cursor:
//! two runs at the same `ICES_THREADS` execute exactly the same items in
//! exactly the same per-worker order, and the callers (see `par_map`,
//! `par_map_mut`) reassemble results by partition index, so output order
//! is the input order at *any* thread count. Reusing pooled workers
//! cannot perturb results for the same reason fresh-spawned workers
//! could not: no simulation state lives on a worker thread between
//! calls.
//!
//! ## Safety
//!
//! This module is the workspace's single sanctioned `unsafe` island
//! (see `ices-audit` SAFE01): handing a borrowed closure to a persistent
//! thread requires erasing its lifetime, exactly as `rayon` does. The
//! soundness argument is the completion barrier above — the erased
//! pointer is dereferenced only between job publication and the
//! `remaining == 0` handshake, during which the dispatching call (which
//! owns the borrow) is blocked and cannot return or unwind past it.
//!
//! ## Model checking
//!
//! Under `--cfg loom` the primitives of the handoff protocol (the state
//! mutex, both condvars, `remaining` and the completion spin) come from
//! the vendored `loom` instead of `std`, and the `model` tests below
//! drive this very `broadcast` across seeded schedules:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ices-par --lib -- pool::model --test-threads=1
//! ```
//!
//! The `dispatch` mutex and the `OnceLock` stay `std`: they serialise
//! callers and are not part of the handoff. The model tests run one at
//! a time because a concurrent dispatch on the global pool runs inline.

#![allow(unsafe_code)]

#[cfg(loom)]
use loom::{
    hint::spin_loop,
    sync::atomic::{AtomicUsize, Ordering},
    sync::{Condvar, Mutex, MutexGuard},
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{OnceLock, PoisonError, TryLockError};
#[cfg(not(loom))]
use std::{
    hint::spin_loop,
    sync::atomic::{AtomicUsize, Ordering},
    sync::{Condvar, Mutex, MutexGuard},
};

/// One published dispatch: the partition closure (lifetime-erased) and
/// how many partitions it spans.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    partitions: usize,
}

// SAFETY: the raw pointer is only ever dereferenced by workers between
// job publication and the completion barrier, while the dispatching
// call — which holds the original borrow — is blocked in `broadcast`.
// The closure itself is `Sync`, so shared calls from several workers
// are fine.
unsafe impl Send for Job {}

/// Mutex-guarded pool state.
struct State {
    /// Bumped once per dispatch; workers use it to run each job once.
    epoch: u64,
    /// The current job, present only while a dispatch is in flight.
    job: Option<Job>,
    /// First panic payload captured from a worker this dispatch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Worker threads spawned so far (they are never torn down).
    workers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Assigned workers still running the current job. Kept atomic (not
    /// under the mutex) so the dispatcher can spin briefly before
    /// parking on `done`.
    remaining: AtomicUsize,
    /// Workers park here between jobs.
    work: Condvar,
    /// The dispatcher parks here while workers finish.
    done: Condvar,
}

/// The process-wide pool. Created on first parallel dispatch; workers
/// are added lazily as larger thread counts are requested and persist
/// for the life of the process.
struct Pool {
    shared: &'static Shared,
    /// Serializes dispatches. A concurrent or re-entrant broadcast
    /// (`try_lock` failure) runs its partitions inline instead — the
    /// result is identical, only the scheduling differs.
    dispatch: std::sync::Mutex<()>,
    /// Whether spinning briefly for completion can help (it cannot on a
    /// single-core host, where spinning only steals the worker's CPU).
    multicore: bool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // The pool never runs user code while holding the state mutex, so a
    // poisoned lock only means a worker panicked elsewhere; the state
    // itself is still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            shared: Box::leak(Box::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    panic: None,
                    workers: 0,
                }),
                remaining: AtomicUsize::new(0),
                work: Condvar::new(),
                done: Condvar::new(),
            })),
            dispatch: std::sync::Mutex::new(()),
            multicore: std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false),
        })
    }

    /// Grow the pool to at least `want` workers; returns how many exist.
    /// Spawn failure (resource exhaustion) is not fatal — the caller
    /// falls back to running partitions inline.
    fn ensure_workers(&self, want: usize) -> usize {
        let mut st = lock(&self.shared.state);
        while st.workers < want {
            let index = st.workers + 1; // worker ids are 1-based; 0 is the caller
            let shared: &'static Shared = self.shared;
            match std::thread::Builder::new()
                .name(format!("ices-par-{index}"))
                .spawn(move || worker_loop(shared, index))
            {
                Ok(_) => st.workers += 1,
                Err(_) => break,
            }
        }
        st.workers
    }
}

fn worker_loop(shared: &'static Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = wait(&shared.work, st);
            }
        };
        if index >= job.partitions {
            continue; // not assigned this dispatch; park again
        }
        // SAFETY: `job` was read under the state mutex at epoch `seen`,
        // and this worker is assigned (`index < partitions`), so the
        // dispatcher is blocked on `remaining` until our decrement below
        // — the borrow behind the pointer is still live for the whole
        // call.
        let f = unsafe { &*job.f };
        let result = catch_unwind(AssertUnwindSafe(|| f(index)));
        if let Err(payload) = result {
            let mut st = lock(&shared.state);
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        // Check in *after* the last use of `f`. Taking the state lock
        // before notifying pairs with the dispatcher's re-check under
        // the same lock, so the wakeup cannot be lost.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(lock(&shared.state));
            shared.done.notify_all();
        }
    }
}

/// Erase the closure borrow's lifetime so it can sit in the pool's
/// (`'static`) shared state for the duration of one dispatch.
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync)) -> *const (dyn Fn(usize) + Sync) {
    let ptr: *const (dyn Fn(usize) + Sync) = f;
    // SAFETY: a raw-pointer transmute that only widens the trait
    // object's lifetime bound; layout is identical. Soundness of later
    // dereferences is the completion-barrier argument in the module
    // docs, not this cast.
    unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(
            ptr,
        )
    }
}

/// Bounded completion spin before parking on the `done` condvar.
const DONE_SPINS: usize = 512;

/// Run `f(0)`, `f(1)`, … `f(partitions - 1)`, each exactly once, the
/// caller executing partition 0 and pooled workers the rest. Returns
/// after every partition has finished; a panic in any partition is
/// re-raised on the caller (after the barrier, so no borrow escapes).
///
/// Partition indices — not scheduling — determine what each invocation
/// does, so concurrent, re-entrant, and degraded (worker-less) dispatch
/// all produce identical results by running partitions inline.
pub(crate) fn broadcast(partitions: usize, f: &(dyn Fn(usize) + Sync)) {
    if partitions <= 1 {
        if partitions == 1 {
            f(0);
        }
        return;
    }
    let pool = Pool::global();
    let _dispatch = match pool.dispatch.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            // Another dispatch is in flight (concurrent caller, or a
            // nested broadcast from inside a partition): run inline.
            for w in 0..partitions {
                f(w);
            }
            return;
        }
    };
    if pool.ensure_workers(partitions - 1) < partitions - 1 {
        for w in 0..partitions {
            f(w);
        }
        return;
    }

    {
        let mut st = lock(&pool.shared.state);
        pool.shared
            .remaining
            .store(partitions - 1, Ordering::Release);
        st.epoch = st.epoch.wrapping_add(1);
        st.job = Some(Job {
            f: erase(f),
            partitions,
        });
    }
    pool.shared.work.notify_all();

    let local = catch_unwind(AssertUnwindSafe(|| f(0)));

    // Completion barrier: nothing below may be reordered before every
    // assigned worker has checked in — including the panic re-raise.
    if pool.multicore {
        for _ in 0..DONE_SPINS {
            if pool.shared.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            spin_loop();
        }
    }
    let worker_panic = {
        let mut st = lock(&pool.shared.state);
        while pool.shared.remaining.load(Ordering::Acquire) != 0 {
            st = wait(&pool.shared.done, st);
        }
        st.job = None;
        st.panic.take()
    };

    if let Err(payload) = local {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_runs_every_partition_exactly_once() {
        let hits: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            broadcast(5, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn broadcast_zero_and_one_partitions() {
        broadcast(0, &|_| panic!("no partitions to run"));
        let ran = AtomicU64::new(0);
        broadcast(1, &|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_broadcast_runs_inline() {
        let inner_hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        broadcast(2, &|w| {
            if w == 0 {
                // Re-entrant dispatch: must not deadlock on the
                // dispatch mutex; it degrades to inline execution.
                broadcast(3, &|v| {
                    inner_hits[v].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        for h in &inner_hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn worker_panic_reaches_dispatcher_after_barrier() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            broadcast(4, &|w| {
                if w == 2 {
                    panic!("partition 2 exploded");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate");
        // The pool must still be fully usable afterwards.
        let ok = AtomicU64::new(0);
        broadcast(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }
}

#[cfg(all(test, loom))]
mod model {
    use super::*;
    use std::thread;

    /// What one dispatch did, per partition: how many times it ran and
    /// how many of those runs were on the dispatching thread.
    struct Record {
        runs: Vec<AtomicUsize>,
        on_caller: Vec<AtomicUsize>,
    }

    /// Dispatch `partitions` through the real [`broadcast`], panicking
    /// in partition `poison` if given. The record is read after
    /// `broadcast` returns, so it shows what the barrier let finish.
    fn dispatch(partitions: usize, poison: Option<usize>) -> (Record, thread::Result<()>) {
        let record = Record {
            runs: (0..partitions).map(|_| AtomicUsize::new(0)).collect(),
            on_caller: (0..partitions).map(|_| AtomicUsize::new(0)).collect(),
        };
        let caller = thread::current().id();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            broadcast(partitions, &|w| {
                record.runs[w].fetch_add(1, Ordering::SeqCst);
                if thread::current().id() == caller {
                    record.on_caller[w].fetch_add(1, Ordering::SeqCst);
                }
                if poison == Some(w) {
                    panic!("partition {w} exploded");
                }
            });
        }));
        (record, outcome)
    }

    /// Every partition ran exactly once; partition 0 on the caller and
    /// the rest on pooled workers, so the inline fallback (which runs
    /// them all on the caller) cannot pass.
    fn assert_ran_once_on_workers(record: &Record) {
        for (w, (runs, on_caller)) in record.runs.iter().zip(&record.on_caller).enumerate() {
            let runs = runs.load(Ordering::SeqCst);
            assert_eq!(
                runs, 1,
                "partition {w} ran {runs}x before broadcast returned"
            );
            let on_caller = on_caller.load(Ordering::SeqCst);
            assert_eq!(
                on_caller,
                usize::from(w == 0),
                "partition {w}: {on_caller} runs on the dispatching thread"
            );
        }
    }

    #[test]
    fn every_partition_runs_once_before_broadcast_returns() {
        loom::model(|| {
            let (record, outcome) = dispatch(4, None);
            assert!(outcome.is_ok());
            assert_ran_once_on_workers(&record);
        });
    }

    #[test]
    fn epochs_keep_reused_workers_exactly_once() {
        loom::model(|| {
            // The middle dispatch assigns fewer partitions than workers
            // exist: the unassigned worker skips it and still runs the
            // next one.
            for partitions in [4, 2, 4] {
                let (record, outcome) = dispatch(partitions, None);
                assert!(outcome.is_ok());
                assert_ran_once_on_workers(&record);
            }
        });
    }

    #[test]
    fn worker_panic_is_delivered_after_the_barrier() {
        loom::model(|| {
            let (record, outcome) = dispatch(4, Some(2));
            let Err(payload) = outcome else {
                panic!("the worker's panic must reach the dispatcher");
            };
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("partition 2 exploded"));
            assert_ran_once_on_workers(&record);
            // The panic slot was taken: the pool is usable again.
            let (record, outcome) = dispatch(4, None);
            assert!(outcome.is_ok());
            assert_ran_once_on_workers(&record);
        });
    }
}
