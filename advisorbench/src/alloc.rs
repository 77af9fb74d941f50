//! A counting global allocator: live heap bytes and their high-water
//! mark, for the `peak_heap_mb` metric.
//!
//! Each thread batches its allocation deltas locally and folds them
//! into the shared counters only once they pass [`BATCH`] bytes, so the
//! search engine's worker threads do not contend on one cache line for
//! every small allocation. The mark can therefore be off by at most
//! `BATCH` bytes per live thread; an exiting thread folds what it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

pub struct Counting;

const BATCH: isize = 256 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's not yet folded delta; folded when the thread exits, so
/// short-lived worker threads lose nothing.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        fold(self.0.get());
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn fold(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn note(delta: isize) {
    let due = PENDING.try_with(|Pending(p)| {
        let v = p.get() + delta;
        if v.abs() < BATCH {
            p.set(v);
            0
        } else {
            p.set(0);
            v
        }
    });
    match due {
        Ok(0) => {}
        Ok(v) => fold(v),
        // The thread's locals are already torn down: count directly.
        Err(_) => fold(delta),
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting only updates
// statistics (relaxed atomics that publish no other data) and never
// touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Highest live heap seen since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restart the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
