//! The discrete-event engine.
//!
//! An [`Engine`] owns a priority queue of timestamped events over a world
//! type `W`. An event is a plain [`Handler`] function plus one `u64`
//! argument — an id, slot or token — stored inline in the queue, so
//! scheduling allocates nothing. Handlers receive the engine, so any
//! handler may schedule or cancel further events; a periodic tick is a
//! handler that schedules itself again. Ties in time are broken by
//! insertion sequence number, which makes execution order total and
//! deterministic.
//!
//! The pending set is a [`CalendarQueue`], which pops in exactly the
//! `(time, seq)` order a binary heap would but with near-`O(1)`
//! operations for the simulator's clustered event times; see
//! [`crate::queue`] for the ordering contract and the equivalence tests
//! that pin it.

use crate::hash::IntSet;
use crate::queue::CalendarQueue;
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// An event handler: runs at the event's time with the engine, the world
/// and the argument the event was scheduled with.
pub type Handler<W> = fn(&mut Engine<W>, &mut W, u64);

/// A pending event's payload: the handler and its argument.
struct Event<W> {
    handler: Handler<W>,
    arg: u64,
}

struct Entry<W> {
    time: SimTime,
    seq: u64,
    event: Event<W>,
}

/// Discrete-event simulation engine over a world `W`.
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<Event<W>>,
    cancelled: IntSet<u64>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway feedback loops.
    event_limit: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Create an engine at time zero with the default event limit (10⁹).
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            cancelled: IntSet::default(),
            executed: 0,
            event_limit: 1_000_000_000,
        }
    }

    /// Override the runaway-loop event cap.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (including cancelled ones not
    /// yet popped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    ///
    /// Cancelled entries found at the head of the queue are popped and
    /// discarded, exactly as [`Engine::run_until`] would have skipped
    /// them, so peeking never changes which events eventually execute.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        loop {
            let (time_ns, seq) = self.queue.peek()?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&seq) {
                let _ = self.queue.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(SimTime::from_nanos(time_ns));
        }
    }

    /// Advance the clock to `t` from inside an executing handler without
    /// popping an event.
    ///
    /// Batched handlers (the timer wheel) use this to process several
    /// deadlines inside one engine event while keeping every deadline's
    /// exact nanosecond on the clock. `t` must not precede the current
    /// clock and must not pass the next pending event — either would
    /// reorder execution relative to the unbatched schedule.
    pub fn advance_now_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock: {} < {}",
            t,
            self.now
        );
        let bound = self.peek_next_time();
        let in_bounds = bound.map_or(true, |b| t <= b);
        debug_assert!(in_bounds, "manual advance past the next pending event");
        crate::audit::check("engine.time_monotonic", t.as_nanos(), in_bounds, || {
            format!(
                "manual advance to {} ns passes the next pending event at {:?} ns",
                t.as_nanos(),
                bound.map(SimTime::as_nanos)
            )
        });
        self.now = t;
    }

    /// Schedule `handler(engine, world, arg)` at absolute time `time`.
    ///
    /// Panics if `time` is in the past — the engine never rewinds.
    pub fn schedule_at(&mut self, time: SimTime, handler: Handler<W>, arg: u64) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue
            .push(time.as_nanos(), seq, Event { handler, arg });
        EventId(seq)
    }

    /// Schedule `handler(engine, world, arg)` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, handler: Handler<W>, arg: u64) -> EventId {
        let t = self.now + delay;
        self.schedule_at(t, handler, arg)
    }

    /// Cancel a pending event. Cancelling an already-executed or unknown
    /// event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    fn pop_next(&mut self) -> Option<Entry<W>> {
        while let Some((time_ns, seq, event)) = self.queue.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&seq) {
                continue; // skip cancelled
            }
            return Some(Entry {
                time: SimTime::from_nanos(time_ns),
                seq,
                event,
            });
        }
        None
    }

    /// Run until the queue drains. Returns the number of events executed
    /// by this call.
    pub fn run(&mut self, world: &mut W) -> u64 {
        self.run_until(world, SimTime::MAX)
    }

    /// Execute all events with `time < bound` (strictly), leaving the
    /// clock at the last executed event instead of advancing it to
    /// `bound`. Returns the number of events executed by this call.
    ///
    /// This is the sharded runner's local-drain primitive (see
    /// [`crate::shard`]): a shard may only execute up to its
    /// conservative horizon, and the clock must stay behind the horizon
    /// so a cross-shard message at `t < bound` can still be delivered at
    /// its exact nanosecond via [`Engine::advance_now_to`].
    pub fn run_before(&mut self, world: &mut W, bound: SimTime) -> u64 {
        let start_executed = self.executed;
        while self.peek_next_time().is_some_and(|t| t < bound) {
            let Some(entry) = self.pop_next() else { break };
            crate::audit::check(
                "engine.time_monotonic",
                entry.time.as_nanos(),
                entry.time >= self.now,
                || {
                    format!(
                        "event at {} ns scheduled before current clock {} ns",
                        entry.time.as_nanos(),
                        self.now.as_nanos()
                    )
                },
            );
            self.now = entry.time;
            self.executed += 1;
            assert!(
                self.executed <= self.event_limit,
                "event limit exceeded ({}): probable scheduling feedback loop",
                self.event_limit
            );
            (entry.event.handler)(self, world, entry.event.arg);
        }
        self.executed - start_executed
    }

    /// Execute all events with `time <= deadline`, then advance the clock
    /// to `deadline` (unless the queue drained earlier with the clock past
    /// it, which cannot happen since time never exceeds event times).
    /// Returns the number of events executed by this call.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> u64 {
        let start_executed = self.executed;
        loop {
            let Some(entry) = self.pop_next() else { break };
            if entry.time > deadline {
                // Put it back under its original sequence number; it
                // belongs to a later epoch.
                self.queue
                    .push(entry.time.as_nanos(), entry.seq, entry.event);
                break;
            }
            debug_assert!(entry.time >= self.now, "time went backwards");
            crate::audit::check(
                "engine.time_monotonic",
                entry.time.as_nanos(),
                entry.time >= self.now,
                || {
                    format!(
                        "event at {} ns scheduled before current clock {} ns",
                        entry.time.as_nanos(),
                        self.now.as_nanos()
                    )
                },
            );
            self.now = entry.time;
            self.executed += 1;
            assert!(
                self.executed <= self.event_limit,
                "event limit exceeded ({}): probable scheduling feedback loop",
                self.event_limit
            );
            (entry.event.handler)(self, world, entry.event.arg);
        }
        if deadline != SimTime::MAX && deadline > self.now {
            self.now = deadline;
        }
        self.executed - start_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each handler logs `(clock, arg)`.
    #[derive(Default)]
    struct World {
        log: Vec<(u64, u64)>,
        ticks: u64,
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn record(e: &mut Engine<World>, w: &mut World, arg: u64) {
        w.log.push((e.now().as_nanos(), arg));
    }

    fn noop(_: &mut Engine<World>, _: &mut World, _: u64) {}

    fn args(w: &World) -> Vec<u64> {
        w.log.iter().map(|&(_, a)| a).collect()
    }

    #[test]
    fn executes_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(3), record, 3);
        eng.schedule_at(at(1), record, 1);
        eng.schedule_at(at(2), record, 2);
        eng.run(&mut w);
        assert_eq!(args(&w), vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for arg in [10, 20, 30] {
            eng.schedule_at(at(5), record, arg);
        }
        eng.run(&mut w);
        assert_eq!(args(&w), vec![10, 20, 30]);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        fn outer(e: &mut Engine<World>, _: &mut World, arg: u64) {
            e.schedule_in(SimDuration::from_secs(1), record, arg + 1);
        }
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), outer, 41);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(at(2).as_nanos(), 42)]);
        assert_eq!(eng.now(), at(2));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.schedule_at(at(1), record, 1);
        eng.schedule_at(at(2), record, 2);
        eng.cancel(id);
        eng.run(&mut w);
        assert_eq!(args(&w), vec![2]);
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let mut eng: Engine<World> = Engine::new();
        eng.cancel(EventId(999));
        let mut w = World::default();
        assert_eq!(eng.run(&mut w), 0);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), record, 1);
        eng.schedule_at(at(10), record, 10);
        let n = eng.run_until(&mut w, at(5));
        assert_eq!(n, 1);
        assert_eq!(eng.now(), at(5));
        assert_eq!(args(&w), vec![1]);
        eng.run(&mut w);
        assert_eq!(args(&w), vec![1, 10]);
        assert_eq!(eng.now(), at(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        fn back(e: &mut Engine<World>, _: &mut World, _: u64) {
            e.schedule_at(at(1), noop, 0);
        }
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(5), back, 0);
        eng.run(&mut w);
    }

    #[test]
    fn periodic_runs_until_told_to_stop() {
        fn tick(e: &mut Engine<World>, w: &mut World, interval_s: u64) {
            w.ticks += 1;
            w.log.push((e.now().as_nanos(), w.ticks));
            if w.ticks < 4 {
                e.schedule_in(SimDuration::from_secs(interval_s), tick, interval_s);
            }
        }
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(0), tick, 2);
        eng.run(&mut w);
        let times: Vec<u64> = w.log.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 2_000_000_000, 4_000_000_000, 6_000_000_000]);
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn event_limit_trips_on_feedback_loop() {
        fn forever(e: &mut Engine<World>, _: &mut World, _: u64) {
            e.schedule_in(SimDuration::from_nanos(1), forever, 0);
        }
        let mut eng: Engine<World> = Engine::new();
        eng.set_event_limit(100);
        let mut w = World::default();
        eng.schedule_at(at(0), forever, 0);
        eng.run(&mut w);
    }

    #[test]
    fn peek_next_time_skips_cancelled_heads() {
        let mut eng: Engine<World> = Engine::new();
        let a = eng.schedule_at(at(1), noop, 0);
        let b = eng.schedule_at(at(2), noop, 0);
        eng.schedule_at(at(3), noop, 0);
        eng.cancel(a);
        eng.cancel(b);
        assert_eq!(eng.peek_next_time(), Some(at(3)));
        // The cancelled heads were discarded for good.
        assert_eq!(eng.pending(), 1);
        let mut w = World::default();
        assert_eq!(eng.run(&mut w), 1);
    }

    #[test]
    fn peek_next_time_empty_queue_is_none() {
        let mut eng: Engine<World> = Engine::new();
        assert_eq!(eng.peek_next_time(), None);
    }

    #[test]
    fn advance_now_to_moves_clock_inside_handler() {
        fn batched(e: &mut Engine<World>, w: &mut World, arg: u64) {
            e.advance_now_to(at(4));
            record(e, w, arg);
        }
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), batched, 1);
        eng.schedule_at(at(5), record, 2);
        eng.run(&mut w);
        let times: Vec<u64> = w.log.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![4_000_000_000, 5_000_000_000]);
    }

    #[test]
    #[should_panic(expected = "cannot rewind the clock")]
    fn advance_now_to_rejects_rewind() {
        fn rewind(e: &mut Engine<World>, _: &mut World, _: u64) {
            e.advance_now_to(at(1));
        }
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(3), rewind, 0);
        eng.run(&mut w);
    }

    #[test]
    fn events_executed_counts() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for i in 0..10 {
            eng.schedule_at(at(i), noop, i);
        }
        assert_eq!(eng.pending(), 10);
        assert_eq!(eng.run(&mut w), 10);
        assert_eq!(eng.events_executed(), 10);
        assert_eq!(eng.pending(), 0);
    }
}
