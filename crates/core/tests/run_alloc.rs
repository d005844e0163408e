//! A run's heap traffic does not grow with simulated time.
//!
//! A counting global allocator tallies allocation calls (`alloc`,
//! `alloc_zeroed` and `realloc`). The crowd-shaped run (2,000
//! bare-metal clients, the fast configuration, seed 42) is made at
//! 120 s and at 240 s of simulated time. The longer run completes
//! about twice the requests, yet may allocate at most 64 times more:
//! growth of the sample store's preallocated series and of buffers that
//! size to the peak load. A per-request or per-tick allocation shows
//! up as tens of thousands.

use cloudchar_core::{run_opts, Deployment, ExperimentConfig, RunOptions};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls made by every thread. The binary holds a single
/// test, so nothing else allocates while it measures.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count() {
    CALLS.fetch_add(1, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and completed requests of one crowd-shaped run of
/// `seconds` of simulated time.
fn crowd_run(seconds: u64) -> (u64, u64) {
    let mut cfg = ExperimentConfig::fast(Deployment::NonVirtualized, WorkloadMix::BROWSING);
    cfg.clients = 2_000;
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(seconds);
    let before = CALLS.load(Ordering::SeqCst);
    let (result, _) = run_opts(cfg, &RunOptions::default()).expect("a resident run");
    let calls = CALLS.load(Ordering::SeqCst) - before;
    (calls, result.completed)
}

#[test]
fn crowd_heap_traffic_is_flat_in_simulated_time() {
    // Process-wide state (cached metric layouts) is built once, first.
    crowd_run(4);
    let (short, short_done) = crowd_run(120);
    let (long, long_done) = crowd_run(240);
    eprintln!("120 s: {short} allocations, {short_done} requests; 240 s: {long} allocations, {long_done} requests");
    assert!(long_done > short_done * 3 / 2, "the longer run serves more");
    assert!(
        long <= short + 64,
        "240 s allocated {long} times against {short} at 120 s"
    );
}
