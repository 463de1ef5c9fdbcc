//! Parallel Monte-Carlo execution of independent simulations.
//!
//! The experiment binaries (`crates/bench/src/bin/exp_*.rs`) evaluate
//! thousands of independent runs (random schedules × seeds). [`par_map`] fans the work out over a
//! thread pool with dynamic self-scheduling: workers repeatedly claim the
//! next unclaimed index via an atomic counter, so irregular per-run cost
//! (runs terminate at different rounds) cannot create stragglers the way a
//! static partition would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `threads` worker threads, preserving input
/// order in the output.
///
/// `f` receives `(index, item)`. With `threads == 1` (or a single item) the
/// work runs inline on the caller's thread, which keeps tests and benches
/// easy to profile.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(len);
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot mutex poisoned")
                    .take()
                    .expect("slot claimed twice");
                let r = f(i, item);
                *results[i].lock().expect("result mutex poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at `max`.
pub fn default_threads(max: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(max.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order_and_applies_f() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, 4, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let count = AtomicU64::new(0);
        let out = par_map((0..1000).collect::<Vec<u32>>(), 8, |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        let unique: HashSet<u32> = out.into_iter().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
        let out = par_map(vec![7], 4, |_, x: u32| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn single_thread_runs_inline() {
        // must not deadlock or spawn; observable via thread id equality
        let main_id = std::thread::current().id();
        let out = par_map(vec![1, 2, 3], 1, |_, x: u32| {
            assert_eq!(std::thread::current().id(), main_id);
            x
        });
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_bounded() {
        assert!(default_threads(4) >= 1);
        assert!(default_threads(4) <= 4);
        assert_eq!(default_threads(0), 1);
    }
}
