//! # revmax-par — deterministic parallel execution primitives
//!
//! Zero-dependency data parallelism on [`std::thread::scope`], built around
//! one contract (see `DESIGN.md` §6): **results are bit-identical regardless
//! of the thread count.** The two primitives guarantee it by construction:
//!
//! * [`par_index_map`] computes `f(i)` for every index independently and
//!   returns the results in index order; the thread count only decides who
//!   computes what, never what is computed. [`par_index_map_with`] is the
//!   same fan-out with reusable per-worker state.
//! * [`par_chunks_map_reduce`] splits the input at **fixed chunk
//!   boundaries** — a pure function of the input length and the requested
//!   chunk size, never of the thread count — maps each chunk, and reduces
//!   the chunk results **in chunk order** on the calling thread.
//!
//! Work distribution is dynamic (an atomic cursor hands out the next unit),
//! so stragglers do not idle the pool, but because every unit's value and
//! the reduction order are fixed, scheduling nondeterminism cannot leak
//! into results. Floating-point reductions in particular associate the
//! same way at 1 thread and at 64.
//!
//! The [`Threads`] knob carries the requested parallelism through
//! `Params`/`BenchArgs`; [`Threads::Auto`] honours the `REVMAX_THREADS`
//! environment variable before falling back to the machine's available
//! parallelism, so CI can pin both extremes without touching flags.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`Threads::Auto`].
pub const THREADS_ENV_VAR: &str = "REVMAX_THREADS";

/// Default number of chunks targeted when a caller passes `chunk = 0` to
/// [`par_chunks_map_reduce`]. Deliberately independent of the thread count
/// so chunk boundaries (and therefore reduction associativity) never change
/// with the degree of parallelism.
const DEFAULT_CHUNKS: usize = 64;

/// Requested degree of parallelism.
///
/// `Auto` resolves at use time: `REVMAX_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`]. `Fixed(n)`
/// pins exactly `n` worker threads (`n = 0` is invalid — call
/// [`Threads::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `REVMAX_THREADS` env var, else the machine's available parallelism.
    #[default]
    Auto,
    /// Exactly this many worker threads (must be ≥ 1).
    Fixed(usize),
}

impl Threads {
    /// Resolve to a concrete thread count (always ≥ 1).
    pub fn get(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => {
                // audit: allow(env-read) REVMAX_THREADS is the one sanctioned knob; results are thread-count invariant (DESIGN.md §6)
                if let Some(n) = std::env::var(THREADS_ENV_VAR)
                    .ok()
                    .and_then(|s| s.trim().parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                {
                    return n;
                }
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            }
        }
    }

    /// Panic on the invalid `Fixed(0)` configuration.
    pub fn validate(self) {
        if let Threads::Fixed(n) = self {
            assert!(n >= 1, "thread count must be >= 1, got Fixed(0)");
        }
    }
}

/// Compute `f(0), f(1), …, f(n-1)` on up to `threads` workers and return
/// the results in index order.
///
/// Deterministic by construction: each index is computed exactly once by
/// the same pure function regardless of which worker runs it, and the
/// output vector is assembled by index. A panic in `f` propagates to the
/// caller. `threads <= 1` (or trivially small `n`) runs inline with no
/// thread spawns.
pub fn par_index_map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_index_map_with(threads, n, || (), |_, i| f(i))
}

/// [`par_index_map`] with per-worker state: `init` runs once per worker
/// (once in total when inline, never when `n == 0`) and `f(&mut state, i)`
/// runs per index — so reusable scratch is built once per worker, not
/// once per index.
///
/// The determinism contract is unchanged **provided `f`'s result does not
/// depend on what earlier indices left in the state** (which indices share
/// a worker is scheduling-dependent). Scratch that every call fully
/// resets, or restores before returning, qualifies.
pub fn par_index_map_with<S, R, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = threads.max(1).min(n);
    if workers == 0 {
        return Vec::new();
    }
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
    }
    slots.into_iter().map(|o| o.expect("every index computed exactly once")).collect()
}

/// The chunk size actually used for a `len`-element input when the caller
/// requests `chunk` (`0` = automatic). A pure function of `(len, chunk)` —
/// never of the thread count — so chunk boundaries are stable across runs
/// with different parallelism.
pub fn effective_chunk_size(len: usize, chunk: usize) -> usize {
    if chunk > 0 {
        chunk
    } else {
        len.div_ceil(DEFAULT_CHUNKS).max(1)
    }
}

/// Split `items` at fixed boundaries, `map` each chunk (in parallel), and
/// fold the chunk results **in chunk order** with `reduce`.
///
/// `chunk = 0` picks an automatic size via [`effective_chunk_size`].
/// Equivalent to the sequential
///
/// ```text
/// items.chunks(c).map(map).fold(init, reduce)
/// ```
///
/// for every thread count, bit-for-bit: chunk boundaries depend only on
/// `(items.len(), chunk)` and the ordered fold runs on the calling thread.
pub fn par_chunks_map_reduce<T, R, A, M, F>(
    threads: usize,
    items: &[T],
    chunk: usize,
    map: M,
    init: A,
    reduce: F,
) -> A
where
    T: Sync,
    R: Send,
    M: Fn(&[T]) -> R + Sync,
    F: FnMut(A, R) -> A,
{
    let c = effective_chunk_size(items.len(), chunk);
    let n_chunks = items.len().div_ceil(c);
    let mapped = par_index_map(threads, n_chunks, |k| {
        let lo = k * c;
        let hi = (lo + c).min(items.len());
        map(&items[lo..hi])
    });
    mapped.into_iter().fold(init, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_map_orders_results() {
        for threads in [1, 2, 4, 7] {
            let got = par_index_map(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn index_map_empty_and_tiny() {
        assert!(par_index_map(4, 0, |i| i).is_empty());
        assert_eq!(par_index_map(4, 1, |i| i + 10), vec![10]);
        assert_eq!(par_index_map(8, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn index_map_with_builds_state_once_per_worker() {
        for threads in [1, 2, 4, 7] {
            let inits = AtomicUsize::new(0);
            let init = || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            };
            let got = par_index_map_with(threads, 100, init, |buf: &mut Vec<usize>, i| {
                buf.clear();
                buf.push(i * i);
                buf[0]
            });
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
            let built = inits.load(Ordering::Relaxed);
            assert!((1..=threads).contains(&built), "threads={threads}: {built} inits");
        }
        let none =
            par_index_map_with(4, 0, || panic!("no state for an empty range"), |_: &mut (), i| i);
        assert!(none.is_empty());
    }

    #[test]
    fn chunks_map_reduce_matches_sequential_fold() {
        let items: Vec<f64> = (0..1000).map(|k| (k as f64) * 0.1 + 0.3).collect();
        let seq = items
            .chunks(effective_chunk_size(items.len(), 0))
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0f64, |a, s| a + s);
        for threads in [1, 2, 4, 7] {
            let par = par_chunks_map_reduce(
                threads,
                &items,
                0,
                |c| c.iter().sum::<f64>(),
                0.0f64,
                |a, s| a + s,
            );
            assert_eq!(par.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunks_map_reduce_empty_input_returns_init() {
        let got = par_chunks_map_reduce(4, &[] as &[u32], 0, |c| c.len(), 42usize, |a, n| a + n);
        assert_eq!(got, 42);
    }

    #[test]
    fn explicit_chunk_size_controls_boundaries() {
        // With chunk = 3 over 8 items the map sees [3, 3, 2] slices.
        let items: Vec<u32> = (0..8).collect();
        let sizes = par_chunks_map_reduce(
            4,
            &items,
            3,
            |c| vec![c.len()],
            Vec::new(),
            |mut a: Vec<usize>, mut v| {
                a.append(&mut v);
                a
            },
        );
        assert_eq!(sizes, vec![3, 3, 2]);
    }

    #[test]
    fn threads_knob_resolution() {
        assert_eq!(Threads::Fixed(5).get(), 5);
        assert_eq!(Threads::Fixed(0).get(), 1); // clamped at use
        assert!(Threads::Auto.get() >= 1);
        Threads::Fixed(1).validate();
        Threads::Auto.validate();
    }

    #[test]
    #[should_panic(expected = "thread count must be >= 1")]
    fn fixed_zero_rejected_by_validate() {
        Threads::Fixed(0).validate();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = par_index_map(4, 16, |i| {
            if i == 9 {
                panic!("boom");
            }
            i
        });
    }
}
