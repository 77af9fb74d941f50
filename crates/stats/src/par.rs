//! A zero-dependency data-parallel map over `std::thread::scope`.
//!
//! Replaces `rayon` in the experiment harness and the placement search:
//! the workspace's hot paths are embarrassingly parallel maps over
//! independent, coarse items (suite simulations, skeleton builds or
//! loads, candidate replays, training points, full naive
//! predictions), so a work-stealing scoped pool covers them without any
//! external crate.
//!
//! Design:
//!
//! * workers share one atomic cursor into the item slice and claim one
//!   item at a time: items are coarse and unevenly sized, so a single
//!   atomic add per item costs nothing next to the item, and no long
//!   tail is ever stranded behind one worker;
//! * each worker accumulates `(index, result)` pairs locally and the
//!   caller reassembles them by index, so **output order always equals
//!   input order regardless of thread count or scheduling** — parallel
//!   callers are bit-deterministic wherever the mapped function is;
//! * worker panics propagate to the caller (the scope joins all
//!   threads), so a failing item behaves like it would in a plain loop.
//!
//! `HMS_THREADS` caps the pool globally (useful for CI determinism
//! experiments and for sharing machines); `par_map_threads` pins it per
//! call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used by [`par_map`]: `HMS_THREADS` if set and non-zero,
/// otherwise `std::thread::available_parallelism`.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("HMS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`max_threads`] workers, preserving
/// input order in the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(max_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (`0` means [`max_threads`]).
///
/// The output is identical for every `threads` value: results are
/// reassembled by item index, so thread scheduling never reorders them.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if threads == 0 { max_threads() } else { threads };
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                collected
                    .lock()
                    .expect("no poisoned par_map worker")
                    .extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("all workers joined");
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_matches_sequential_map() {
        // Workers claim one item at a time; an item count that no
        // worker count divides must still come back whole and in order.
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_threads(threads, &items, |x| x * 3 + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
        assert!(par_map_threads(2, &Vec::<u32>::new(), |x| *x).is_empty());
    }

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_threads(threads, &items, |x| x * x + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn preserves_order_with_uneven_work() {
        // Early items are the slowest: a naive collect-in-completion-order
        // pool would reverse them.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_threads(4, &items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn zero_thread_request_falls_back_to_auto() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(par_map_threads(0, &items, |x| *x), items);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map_threads(4, &items, |&x| {
            assert!(x != 50, "boom");
            x
        });
    }
}
