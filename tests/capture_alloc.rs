//! Allocation accounting for sensor capture.
//!
//! A counting global allocator wraps `System`. A warm noisy `capture`
//! allocates its frame-sized buffers (the exposed pixels and the ofmap
//! codes) and nothing per PE block: the block loop runs on stack arrays
//! and the weights are resolved once, at programming time. So the count
//! must not grow with the block count. This file holds exactly one
//! `#[test]` so no concurrent test pollutes the counter.

use leca::sensor::{LecaSensor, SensorGeometry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (valid layout) verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract; forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (valid layout) verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract (live `ptr` with matching
        // layout) verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's contract (live `ptr` with matching
        // layout) verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations one warm noisy capture makes on a `side`×`side` raw
/// array with `n_ch` kernels.
fn capture_allocations(side: usize, n_ch: usize) -> u64 {
    let geometry = SensorGeometry {
        rows: side,
        cols: side,
        n_ch,
    };
    let mut sensor = LecaSensor::new(geometry, 3.0).unwrap();
    let weights = (0..n_ch as i32)
        .map(|k| (0..16).map(|p| (p * 3 + k) % 31 - 15).collect())
        .collect();
    sensor.program_weights(weights).unwrap();
    let scene: Vec<f32> = (0..side * side).map(|i| (i % 29) as f32 / 28.0).collect();
    let mut rng = StdRng::seed_from_u64(1);
    sensor.capture(&scene, Some(&mut rng)).unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let frame = sensor.capture(&scene, Some(&mut rng)).unwrap();
    let count = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    drop(frame);
    count
}

#[test]
fn warm_capture_allocations_do_not_grow_with_the_block_count() {
    let small = capture_allocations(16, 4);
    // 36x as many blocks, and two readout passes per block.
    let full = capture_allocations(96, 8);
    assert_eq!(small, full, "{small} allocations at 16x16, {full} at 96x96");
    assert!(full <= 2, "{full} allocations per capture");
}
