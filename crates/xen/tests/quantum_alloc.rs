//! The steady-state Xen quantum allocates nothing.
//!
//! A counting global allocator tallies the bytes requested.
//! After a warm-up that sizes every reusable buffer (the completion
//! tokens and the scheduler's slots), a
//! `quantum_tick` on dom0 plus two busy guests — one of them capped,
//! with a third guest crashed — must allocate 0 bytes.

use cloudchar_hw::{ServerSpec, WorkToken};
use cloudchar_simcore::{SimDuration, SimRng};
use cloudchar_xen::{DomainConfig, Hypervisor, OverheadModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator by every thread. The binary holds
/// a single test, so nothing else allocates while it measures.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.load(Ordering::SeqCst)
}

#[test]
fn steady_state_quantum_tick_allocates_nothing() {
    let mut hv = Hypervisor::new(
        ServerSpec::hp_proliant(),
        2 * cloudchar_hw::GIB,
        OverheadModel::default(),
        SimRng::new(7),
    );
    let web = hv.create_domain(DomainConfig::paper_vm("web"));
    let db = hv.create_domain(DomainConfig::paper_vm("db"));
    let down = hv.create_domain(DomainConfig::paper_vm("down"));
    hv.set_domain_cap(db, Some(60));
    hv.crash_domain(down);
    let dt = SimDuration::from_millis(10);
    let mut done = Vec::new();
    let mut next_token = 0u64;
    // Each quantum both guests receive a few requests' worth of work,
    // enough to finish some and queue the rest: completions, partial
    // drains and steal time all occur every tick.
    let mut feed = |hv: &mut Hypervisor| {
        for _ in 0..3 {
            hv.submit_guest_work(web, WorkToken(next_token), 9.0e6);
            hv.submit_guest_work(db, WorkToken(next_token + 1), 6.0e6);
            next_token += 2;
        }
    };
    for _ in 0..500 {
        feed(&mut hv);
        done.clear();
        hv.quantum_tick(dt, &mut done);
    }
    let mut ticked = 0u64;
    let mut completed = 0usize;
    for _ in 0..500 {
        feed(&mut hv);
        done.clear();
        let before = allocated();
        hv.quantum_tick(dt, &mut done);
        ticked += allocated() - before;
        completed += done.len();
    }
    assert!(completed > 0, "the measured quanta completed no work");
    assert_eq!(
        ticked, 0,
        "500 steady-state quanta allocated {ticked} bytes"
    );
}
