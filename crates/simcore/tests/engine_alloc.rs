//! Scheduling and dispatching events allocates nothing in steady state.
//!
//! A counting global allocator tallies the bytes requested. The world
//! runs a self-re-arming 10 ms tick that schedules a burst of
//! near-term handler events and one far-off event each period, so the
//! calendar queue exercises its bottom list, its rungs and its top
//! store. After a warm-up that sizes the queue's buffers, a further
//! stretch of simulated time must allocate 0 bytes.

use cloudchar_simcore::{Engine, SimDuration, SimTime};
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

const TICK: SimDuration = SimDuration::from_millis(10);

#[derive(Default)]
struct World {
    ticks: u64,
    /// Sum of the arguments the work events carried.
    work: u64,
    /// Far-off events executed.
    far: u64,
}

/// The periodic tick: schedules a burst of near-term work and one event
/// seconds ahead, then re-arms itself one period later.
fn tick(engine: &mut Engine<World>, world: &mut World, _: u64) {
    world.ticks += 1;
    for i in 0..8u64 {
        let delay = SimDuration::from_micros(((world.ticks * 7 + i * 1_301) % 9_000) + 1);
        engine.schedule_in(delay, work, i);
    }
    let far = SimDuration::from_millis(500 + (world.ticks * 37) % 2_500);
    engine.schedule_in(far, far_off, world.ticks);
    engine.schedule_in(TICK, tick, 0);
}

/// A work event; odd arguments chain one more short event.
fn work(engine: &mut Engine<World>, world: &mut World, arg: u64) {
    world.work += arg;
    if arg % 2 == 1 {
        engine.schedule_in(SimDuration::from_micros(250), work, arg - 1);
    }
}

fn far_off(_: &mut Engine<World>, world: &mut World, _: u64) {
    world.far += 1;
}

#[test]
fn steady_state_scheduling_allocates_nothing() {
    let mut engine: Engine<World> = Engine::new();
    let mut world = World::default();
    engine.schedule_at(SimTime::ZERO, tick, 0);
    // Warm-up: 60 simulated seconds size every reusable queue buffer.
    engine.run_until(&mut world, SimTime::from_secs(60));
    let events_before = engine.events_executed();
    let far_before = world.far;
    let before = allocated();
    engine.run_until(&mut world, SimTime::from_secs(120));
    let measured = allocated() - before;
    let events = engine.events_executed() - events_before;
    assert!(events > 50_000, "only {events} events ran");
    assert!(world.far > far_before, "no far-off event ran");
    assert_eq!(
        measured, 0,
        "{events} steady-state events allocated {measured} bytes"
    );
}
