//! A minimal scoped-thread worker pool for deterministic fan-out.
//!
//! No work queue, no channels: jobs are an indexed slice, workers claim
//! indices from a shared atomic cursor, and every result is keyed by the
//! index it came from. Because each job is a pure function of its input
//! (experiment runs take explicit seeds), the reassembled output vector is
//! **identical for any worker count** — `--jobs 8` produces the same bytes
//! as `--jobs 1`, which the sweep layer and CI rely on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` using `jobs` worker threads and
/// returns the results **in input order**.
///
/// `f` receives `(index, &item)` and must be a pure function of them for
/// the output to be independent of scheduling — which it then is, exactly:
/// the result vector is bit-for-bit the same for every `jobs` value.
///
/// `jobs == 1` (or a single item) runs inline on the calling thread with
/// no synchronisation at all, so the serial path really is serial.
///
/// Work is distributed by atomic-cursor stealing rather than pre-chunking,
/// so a few expensive items (high-λ sweep points) cannot serialise the
/// batch behind one unlucky worker.
///
/// # Panics
///
/// Panics if `jobs == 0`, or if `f` panics on any item (the panic is
/// propagated once all workers have stopped).
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(jobs > 0, "worker pool needs at least one job slot");
    if jobs == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(i, item);
                results
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .push((i, r));
            });
        }
    });
    let mut collected = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    debug_assert_eq!(collected.len(), items.len(), "every job produces a result");
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(1, &items, |i, &x| (i as u64) * 1_000 + x * x);
        for jobs in [2, 3, 8, 64] {
            let par = parallel_map(jobs, &items, |i, &x| (i as u64) * 1_000 + x * x);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = parallel_map(4, &[], |_, &x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(parallel_map(4, &[9], |i, &x| x + i as u32), vec![9]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one job slot")]
    fn zero_jobs_rejected() {
        let _ = parallel_map(0, &[1, 2, 3], |_, &x| x);
    }
}
