//! A counting global allocator that counts only while switched on.
//!
//! The untraced run leaves counting off: each allocation then pays one
//! relaxed load of a flag. The traced run switches it on around the calls
//! it attributes allocations to. Counts go to per-thread slots on separate
//! cache lines, so threads allocating at once do not contend for one
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Wraps the system allocator; counts calls and requested bytes of
/// `alloc`, `alloc_zeroed` and `realloc` while [`counted`] runs.
pub struct Counting;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SLOTS: usize = 16;

static ON: AtomicBool = AtomicBool::new(false);
static COUNTS: [Slot; SLOTS] = [const {
    Slot {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and still works while the thread exits.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTS[i]
}

// Statistics only: the counters publish no other data, so `Relaxed`.
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        let slot = my_slot();
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the whole process.
fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocation calls and requested bytes counted so far.
fn counts() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.calls.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Allocation calls and bytes made by `f`, with counting on only for it.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = counts();
    set_counting(true);
    let out = f();
    set_counting(false);
    let (c1, b1) = counts();
    (out, c1 - c0, b1 - b0)
}
