//! A counting global allocator for zero-allocation proofs.
//!
//! [`Counting`] wraps the system allocator and keeps a **per-thread** count
//! of allocations (alloc, alloc_zeroed and realloc) in const-initialized
//! native TLS: a plain `Cell<u64>` with no destructor, so bumping it never
//! itself allocates. A test or binary installs it as its global allocator
//! and brackets a steady-state window with [`thread_allocs`]:
//!
//! ```
//! use mpmd_sim::alloc_count::{thread_allocs, Counting};
//!
//! #[global_allocator]
//! static COUNTER: Counting = Counting;
//!
//! fn main() {
//!     let before = thread_allocs();
//!     let v = vec![1u8];
//!     assert_eq!(thread_allocs() - before, 1);
//!     drop(v);
//! }
//! ```
//!
//! Counting per thread rather than process-wide is deliberate. The libtest
//! harness's main thread sits in `mpsc::Receiver::recv` waiting for a test
//! to finish, and the first time that recv actually *blocks* the standard
//! library lazily allocates its per-thread channel `Context` (two small
//! allocations). Whether that happens before or after a measured window
//! opens is an OS-scheduling race, so a process-wide counter makes a zero
//! bound flaky. Under the simulator's fiber backend the whole simulation
//! runs on the `Sim::run` thread, so the per-thread count still covers
//! every simulator allocation; on the threads backend and on `LocalFabric`
//! it pins the count to the measuring task's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations.
pub struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bump this thread's count. `try_with` so an allocation during TLS
/// teardown cannot panic inside the allocator.
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far on this thread (0 unless [`Counting`] is the
/// global allocator).
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
