//! Deterministic work-stealing job pool.
//!
//! Every parallel loop in the workspace drains from this pool: lifetime
//! campaigns (one line per job), Monte-Carlo fault injection (one chunk of
//! injections per job), and whole experiments in `pcm-lab run-all`. Workers
//! claim chunks from a shared atomic counter, so a straggler chunk never
//! idles the other cores the way a static `step_by(threads)` stripe does.
//!
//! Determinism contract: job results must depend only on the job index
//! (callers seed per-index via [`crate::child_seed`]), never on which worker
//! ran the job or in which order chunks were claimed. The pool then
//! guarantees the collected output is in index order, so results are
//! byte-identical across thread counts — see `tests/thread_invariance.rs`.
//!
//! Nesting: a job that itself reaches for a pool (an experiment running a
//! campaign under `run-all`) executes that inner loop serially on its
//! worker. The outer pool already owns the machine's parallelism; nesting
//! would only oversubscribe it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker for its lifetime, restoring
/// the previous state on drop (workers can be reused by an outer scope).
struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard {
            prev: IN_WORKER.with(|c| c.replace(true)),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|c| c.set(prev));
    }
}

/// A fixed-width pool of worker threads with atomic-counter chunk claiming.
///
/// The pool holds no OS threads between calls; each map spawns scoped
/// workers that exit when the queue drains. What it does hold is the
/// resolved thread count: `available_parallelism` is consulted exactly once,
/// at construction, so configs that say "0 = auto" cannot re-resolve (and
/// oversubscribe) inside nested calls.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` workers; 0 resolves the machine's
    /// available parallelism (once, here — never again per call).
    pub fn new(threads: usize) -> Self {
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        Pool { threads }
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True while the current thread is executing a pool job. Inner pool
    /// calls use this to fall back to serial execution instead of nesting.
    pub fn in_worker() -> bool {
        IN_WORKER.with(|c| c.get())
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// Chunks of `chunk` consecutive indices are claimed from a shared
    /// counter; tune `chunk` to the job grain (1 for expensive items like
    /// whole line simulations, larger for cheap ones).
    pub fn map_indexed<T, F>(&self, n: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_with(n, chunk, || (), |(), i| f(i))
    }

    /// Like [`map_indexed`](Self::map_indexed), with per-worker scratch
    /// state: each worker calls `init` once and reuses the value across
    /// every job it claims. Scratch must be pure buffer space — it carries
    /// no RNG state, so results stay independent of the worker/job mapping.
    pub fn map_indexed_with<S, T, I, F>(&self, n: usize, chunk: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if n == 0 {
            return Vec::new();
        }
        let nchunks = n.div_ceil(chunk);
        let workers = self.threads.min(nchunks);
        if workers <= 1 || Self::in_worker() {
            let mut scratch = init();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }

        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(nchunks));
        let work = {
            let (next, done, init, f) = (&next, &done, &init, &f);
            move || {
                let _guard = WorkerGuard::enter();
                let mut scratch = init();
                let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    let mut out = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        out.push(f(&mut scratch, i));
                    }
                    local.push((c, out));
                }
                if !local.is_empty() {
                    done.lock()
                        .expect("pool results mutex poisoned")
                        .extend(local);
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(&work);
            }
            // The caller participates in draining the queue; scope exit
            // joins the spawned workers (propagating any panic).
            work();
        });

        let mut chunks = done.into_inner().expect("pool results mutex poisoned");
        chunks.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(n);
        for (_, v) in chunks {
            out.extend(v);
        }
        assert_eq!(out.len(), n, "pool dropped jobs");
        out
    }

    /// Maps `f` over every element of `items` in place, one claim per
    /// element, returning the per-element results in index order.
    ///
    /// This is the mutable-ownership variant the serve engine shards banks
    /// with: each `&mut T` is handed to exactly one worker through a
    /// one-shot cell, so no element is ever shared — there is no
    /// `Arc<Mutex<..>>` around the state, only a transfer of exclusive
    /// borrows (the `serve-ownership` audit rule polices the alternative).
    /// The same determinism contract applies: `f` must depend only on the
    /// element and its index, never on the worker that claimed it.
    pub fn map_each_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        // One-shot handoff cells: each holds the exclusive borrow of one
        // element until the job for that index takes it out. Chunk 1 makes
        // every element its own claim.
        let cells: Vec<Mutex<Option<&mut T>>> = items
            .iter_mut()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        self.map_indexed(cells.len(), 1, |i| {
            let item = cells[i]
                .lock()
                .expect("pool handoff mutex poisoned")
                .take()
                .expect("element claimed twice");
            f(i, item)
        })
    }

    /// Runs `f` over `0..n` on the pool while the calling thread consumes
    /// each result **in index order**, as soon as it and all its
    /// predecessors are available. This is the streaming variant used by
    /// `pcm-lab run-all`: experiment `i`'s report is printed the moment
    /// jobs `0..=i` have finished, regardless of completion order.
    pub fn run_ordered<T, F, C>(&self, n: usize, f: F, mut consume: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        if n == 0 {
            return;
        }
        let workers = self.threads.min(n);
        if workers <= 1 || Self::in_worker() {
            for i in 0..n {
                consume(i, f(i));
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        let ready = Condvar::new();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _guard = WorkerGuard::enter();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= n {
                            break;
                        }
                        let out = f(job);
                        let mut guard = slots.lock().expect("pool slots mutex poisoned");
                        guard[job] = Some(out);
                        ready.notify_all();
                    }
                });
            }
            for i in 0..n {
                // Take the slot under the lock, consume outside it so slow
                // consumers (file writes) never block the producers.
                let out = {
                    let mut guard = slots.lock().expect("pool slots mutex poisoned");
                    loop {
                        match guard[i].take() {
                            Some(out) => break out,
                            None => guard = ready.wait(guard).expect("pool slots mutex poisoned"),
                        }
                    }
                };
                consume(i, out);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 4, 7] {
            for n in [0, 1, 5, 64, 100] {
                for chunk in [1, 3, 16] {
                    let pool = Pool::new(threads);
                    let got = pool.map_indexed(n, chunk, |i| i * i);
                    let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                    assert_eq!(got, want, "threads={threads} n={n} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn skewed_costs_stay_deterministic() {
        // Job cost varies by orders of magnitude with index; results must
        // not depend on which worker absorbs the expensive tail.
        let run = |threads: usize| -> Vec<u64> {
            Pool::new(threads).map_indexed(40, 1, |i| {
                let rounds = if i % 10 == 0 { 40_000 } else { 10 };
                let mut acc = i as u64;
                for _ in 0..rounds {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
        };
        let want = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_reused_not_shared() {
        // Each worker gets its own scratch; job results must only depend on
        // the index even though scratch accumulates worker-local history.
        let pool = Pool::new(4);
        let got = pool.map_indexed_with(64, 2, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            i + 1
        });
        let want: Vec<usize> = (0..64).map(|i| i + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_calls_run_serially() {
        let pool = Pool::new(4);
        let nested = pool.map_indexed(8, 1, |i| {
            assert!(Pool::in_worker());
            // The inner map must take the serial path: no worker explosion.
            let inner = Pool::new(4).map_indexed(4, 1, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(nested, want);
        assert!(
            !Pool::in_worker(),
            "worker flag must not leak to the caller"
        );
    }

    #[test]
    fn map_each_mut_mutates_every_element_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let mut items: Vec<u64> = (0..23).collect();
            let got = Pool::new(threads).map_each_mut(&mut items, |i, item| {
                *item += 100;
                *item + i as u64
            });
            let want_items: Vec<u64> = (0..23).map(|i| i + 100).collect();
            let want: Vec<u64> = (0..23).map(|i| i + 100 + i).collect();
            assert_eq!(items, want_items, "threads={threads}");
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_each_mut_is_deterministic_under_skewed_costs() {
        let run = |threads: usize| -> (Vec<u64>, Vec<u64>) {
            let mut items: Vec<u64> = (0..31).collect();
            let out = Pool::new(threads).map_each_mut(&mut items, |i, item| {
                let rounds = if i % 7 == 0 { 40_000 } else { 10 };
                for _ in 0..rounds {
                    *item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                *item
            });
            (items, out)
        };
        let want = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
    }

    #[test]
    fn map_each_mut_inside_a_job_runs_serially() {
        let sums = Pool::new(4).map_indexed(6, 1, |i| {
            assert!(Pool::in_worker());
            let job_thread = std::thread::current().id();
            let mut items: Vec<usize> = (0..5).collect();
            let out = Pool::new(4).map_each_mut(&mut items, |j, item| {
                assert_eq!(
                    std::thread::current().id(),
                    job_thread,
                    "a nested map_each_mut must not hand elements to new workers"
                );
                *item += i * 10;
                *item + j
            });
            out.iter().sum::<usize>() + items.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| 30 + 100 * i).collect();
        assert_eq!(sums, want);
        assert!(
            !Pool::in_worker(),
            "worker flag must not leak to the caller"
        );
    }

    #[test]
    fn run_ordered_streams_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let mut seen = Vec::new();
            pool.run_ordered(23, |i| i * 3, |i, v| seen.push((i, v)));
            let want: Vec<(usize, usize)> = (0..23).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_resolves_parallelism_once() {
        let pool = Pool::new(0);
        assert!(pool.threads() >= 1);
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
    }
}
