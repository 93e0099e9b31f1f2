//! The parallel trial executor.
//!
//! [`par_map`] runs `n` independent jobs on scoped worker threads pulling
//! indices from a shared atomic counter (chunk-of-one work stealing: trial
//! costs in this workspace vary by orders of magnitude between grid
//! points, so static chunking would leave workers idle). Results are
//! collected **by job index** and returned in index order, which is what
//! makes scenario output byte-identical regardless of thread count: the
//! aggregation downstream sees exactly the sequence a serial loop would
//! have produced.
//!
//! A panic in any job propagates to the caller after the scope joins, as
//! with a serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..n` using up to `threads` workers, returning results
/// in index order.
///
/// `threads <= 1` (or `n <= 1`) runs the jobs inline on the caller's
/// thread with no synchronisation overhead — the serial reference path.
pub fn par_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                // Buffer locally; one lock per worker, not per job.
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                done.lock().unwrap().extend(local);
            });
        }
    });
    let mut indexed = done.into_inner().unwrap();
    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 32] {
            assert_eq!(par_map(threads, 97, |i| i * i), expect, "threads={threads}");
        }
    }

    #[test]
    fn handles_more_threads_than_jobs() {
        assert_eq!(par_map(16, 3, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(par_map(16, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn uneven_job_costs_still_order_correctly() {
        // Early indices sleep longest, so completion order inverts index
        // order — the collected output must not.
        let n = 12;
        let out = par_map(4, n, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((n - i) * 200) as u64));
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panics_propagate() {
        // `thread::scope` re-panics with its own message after joining, so
        // only the fact of the panic (not its payload) reaches the caller.
        let _ = par_map(2, 8, |i| {
            if i == 5 {
                panic!("job 5 failed");
            }
            i
        });
    }
}
