//! # wasp-parallel — deterministic fork/join primitives
//!
//! The simulator runs each engine tick on one thread; the only
//! host-thread parallelism in the workspace is *whole-run fan-out* of
//! independent runs (the `wasp-bench --jobs N` grid of
//! scenario × repeat cells). The contract there is that **results must
//! be bit-identical to the sequential path regardless of thread
//! count**. The building block behind that contract is an *ordered
//! parallel map*: tasks are computed on worker threads in whatever
//! order the scheduler picks, but results come back indexed by input
//! position, so any subsequent reduce observes them in exactly the
//! sequential order.
//!
//! The implementation uses only `std::thread::scope` (no external
//! dependency, no `unsafe`): callers may borrow from the stack across
//! the fork because every worker is joined before [`map_ordered`]
//! returns.
//!
//! Thread counts are explicit: the caller passes them in (see
//! [`resolve_jobs`]); nothing is read from the environment.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Mutex;

/// Resolves the worker count for a parallel region from an explicit
/// request: `Some(n)` with `n > 0` is taken as is, `Some(0)` means
/// "auto" (all available cores), and `None` means sequential (`1`).
/// The result is always at least 1, so the value can be passed
/// straight to [`map_ordered`].
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    match explicit {
        Some(0) => available_jobs(),
        Some(n) => n,
        None => 1,
    }
}

/// Number of hardware threads available to the process (at least 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item and returns the results **in input
/// order**, computing on up to `jobs` worker threads.
///
/// Determinism contract: as long as `f` is a pure function of its
/// item, the returned vector is bit-identical to
/// `items.into_iter().map(f).collect()` for every `jobs` value —
/// scheduling only changes *when* each result is computed, never
/// *where* it lands. With `jobs <= 1` (or fewer than two items) the
/// closure runs inline on the caller's thread, so the sequential path
/// is literally the same code.
pub fn map_ordered<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    // Hand work out from the front so early tasks start first; each
    // worker tags results with the input index and the single merge
    // below restores sequential order exactly.
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    let sink = Mutex::new(&mut tagged);
    let workers = jobs.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let next = {
                        let mut q = queue.lock().expect("work queue poisoned");
                        if q.is_empty() {
                            None
                        } else {
                            Some(q.remove(0))
                        }
                    };
                    match next {
                        Some((idx, item)) => local.push((idx, f(item))),
                        None => break,
                    }
                }
                sink.lock().expect("result sink poisoned").extend(local);
            });
        }
    });
    tagged.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_match_sequential_for_every_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = map_ordered(items.clone(), jobs, |x| x * x + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(empty, 8, |x| x).is_empty());
        assert_eq!(map_ordered(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn borrows_from_the_caller_stack() {
        let base = [10.0f64, 20.0, 30.0];
        let out = map_ordered(vec![0usize, 1, 2], 2, |i| base[i] * 2.0);
        assert_eq!(out, vec![20.0, 40.0, 60.0]);
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(5)), 5);
        assert!(resolve_jobs(Some(0)) >= 1);
        assert_eq!(resolve_jobs(None), 1);
    }

    #[test]
    fn float_reduction_is_bit_stable_across_thread_counts() {
        // The ordered merge means a subsequent sequential fold sees
        // results in input order, so even non-associative float
        // accumulation is bit-identical for any jobs value.
        let items: Vec<f64> = (1..500).map(|i| 1.0 / i as f64).collect();
        let fold = |jobs: usize| -> f64 {
            map_ordered(items.clone(), jobs, |x| x.sin())
                .into_iter()
                .fold(0.0, |acc, x| acc + x)
        };
        let seq = fold(1);
        for jobs in [2, 8] {
            assert_eq!(fold(jobs).to_bits(), seq.to_bits(), "jobs={jobs}");
        }
    }
}
