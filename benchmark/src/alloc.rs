//! The system allocator with a net-growth counter that can be switched on
//! around one call. The crates do not expose the heap size of a frozen
//! `CommLog`, so the one exact memory count that needs it
//! (`core.recorder.log_bytes_per_event`) is taken as the heap growth
//! across `CommRecorder::freeze`. Switched off — always, except around
//! that call — the wrapper costs one relaxed load per allocation; counting
//! all the time put two locked adds on every allocation and made the
//! in-process replicas ~16 % slower than the binaries they mirror.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct Counting;

// Statistics that publish no other data: Relaxed is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NET: AtomicIsize = AtomicIsize::new(0);

/// Net heap bytes allocated (allocations minus frees) while `f` runs.
/// Not reentrant; other threads' allocations during `f` are counted too.
pub fn heap_growth<R>(f: impl FnOnce() -> R) -> (R, isize) {
    NET.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, NET.load(Ordering::Relaxed))
}

fn count(delta: isize) {
    if ENABLED.load(Ordering::Relaxed) {
        NET.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never influences the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}
