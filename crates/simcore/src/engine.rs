//! The discrete-event engine.
//!
//! An [`Engine`] owns a priority queue of timestamped actions over a world
//! type `W`. Actions are `FnOnce(&mut Engine<W>, &mut W)` closures, so any
//! handler may schedule or cancel further events. Ties in time are broken
//! by insertion sequence number, which makes execution order total and
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

type Action<W> = Box<dyn FnOnce(&mut Engine<W>, &mut W) + Send>;

struct Entry<W> {
    time: SimTime,
    seq: u64,
    action: Action<W>,
}

/// Discrete-event simulation engine over a world `W`.
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<Action<W>>,
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
            if self.cancelled.contains(&seq) {
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

    /// Schedule `action` at absolute time `time`.
    ///
    /// Panics if `time` is in the past — the engine never rewinds.
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        action: impl FnOnce(&mut Engine<W>, &mut W) + Send + 'static,
    ) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time.as_nanos(), seq, Box::new(action));
        EventId(seq)
    }

    /// Schedule `action` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Engine<W>, &mut W) + Send + 'static,
    ) -> EventId {
        let t = self.now + delay;
        self.schedule_at(t, action)
    }

    /// Cancel a pending event. Cancelling an already-executed or unknown
    /// event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    fn pop_next(&mut self) -> Option<Entry<W>> {
        while let Some((time_ns, seq, action)) = self.queue.pop() {
            if self.cancelled.remove(&seq) {
                continue; // skip cancelled
            }
            return Some(Entry {
                time: SimTime::from_nanos(time_ns),
                seq,
                action,
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
            (entry.action)(self, world);
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
                    .push(entry.time.as_nanos(), entry.seq, entry.action);
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
            (entry.action)(self, world);
        }
        if deadline != SimTime::MAX && deadline > self.now {
            self.now = deadline;
        }
        self.executed - start_executed
    }

    /// Schedule `tick` to run every `interval` starting at `start`. The
    /// callback returns `true` to keep ticking or `false` to stop.
    pub fn schedule_periodic(
        &mut self,
        start: SimTime,
        interval: SimDuration,
        tick: impl FnMut(&mut Engine<W>, &mut W) -> bool + Send + 'static,
    ) -> EventId {
        assert!(
            interval > SimDuration::ZERO,
            "periodic interval must be > 0"
        );
        self.schedule_at(start, move |engine, world| {
            periodic_step(engine, world, interval, tick);
        })
    }
}

fn periodic_step<W, F>(engine: &mut Engine<W>, world: &mut W, interval: SimDuration, mut tick: F)
where
    F: FnMut(&mut Engine<W>, &mut W) -> bool + Send + 'static,
{
    if tick(engine, world) {
        engine.schedule_in(interval, move |e, w| periodic_step(e, w, interval, tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn executes_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(3), |e, w| w.log.push((e.now().as_nanos(), "c")));
        eng.schedule_at(at(1), |e, w| w.log.push((e.now().as_nanos(), "a")));
        eng.schedule_at(at(2), |e, w| w.log.push((e.now().as_nanos(), "b")));
        eng.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            eng.schedule_at(at(5), move |_, w| w.log.push((0, name)));
        }
        eng.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), |e, _| {
            e.schedule_in(SimDuration::from_secs(1), |_, w: &mut World| {
                w.log.push((0, "nested"));
            });
        });
        eng.run(&mut w);
        assert_eq!(w.log.len(), 1);
        assert_eq!(eng.now(), at(2));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.schedule_at(at(1), |_, w| w.log.push((0, "cancelled")));
        eng.schedule_at(at(2), |_, w| w.log.push((0, "kept")));
        eng.cancel(id);
        eng.run(&mut w);
        assert_eq!(w.log, vec![(0, "kept")]);
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
        eng.schedule_at(at(1), |_, w| w.log.push((0, "early")));
        eng.schedule_at(at(10), |_, w| w.log.push((0, "late")));
        let n = eng.run_until(&mut w, at(5));
        assert_eq!(n, 1);
        assert_eq!(eng.now(), at(5));
        assert_eq!(w.log, vec![(0, "early")]);
        eng.run(&mut w);
        assert_eq!(w.log.len(), 2);
        assert_eq!(eng.now(), at(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(5), |e, _| {
            e.schedule_at(at(1), |_, _| {});
        });
        eng.run(&mut w);
    }

    #[test]
    fn periodic_runs_until_told_to_stop() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let mut count = 0;
        eng.schedule_periodic(at(0), SimDuration::from_secs(2), move |e, w| {
            count += 1;
            w.log.push((e.now().as_nanos(), "tick"));
            count < 4
        });
        eng.run(&mut w);
        assert_eq!(w.log.len(), 4);
        let times: Vec<u64> = w.log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![0, 2_000_000_000, 4_000_000_000, 6_000_000_000]);
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn event_limit_trips_on_feedback_loop() {
        let mut eng: Engine<World> = Engine::new();
        eng.set_event_limit(100);
        let mut w = World::default();
        eng.schedule_periodic(at(0), SimDuration::from_nanos(1), |_, _| true);
        eng.run(&mut w);
    }

    #[test]
    fn peek_next_time_skips_cancelled_heads() {
        let mut eng: Engine<World> = Engine::new();
        let a = eng.schedule_at(at(1), |_, _| {});
        let b = eng.schedule_at(at(2), |_, _| {});
        eng.schedule_at(at(3), |_, _| {});
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
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(1), |e, w: &mut World| {
            e.advance_now_to(at(4));
            w.log.push((e.now().as_nanos(), "batched"));
        });
        eng.schedule_at(at(5), |e, w: &mut World| {
            w.log.push((e.now().as_nanos(), "next"));
        });
        eng.run(&mut w);
        let times: Vec<u64> = w.log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![4_000_000_000, 5_000_000_000]);
    }

    #[test]
    #[should_panic(expected = "cannot rewind the clock")]
    fn advance_now_to_rejects_rewind() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(at(3), |e, _| e.advance_now_to(at(1)));
        eng.run(&mut w);
    }

    #[test]
    fn events_executed_counts() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for i in 0..10 {
            eng.schedule_at(at(i), |_, _| {});
        }
        assert_eq!(eng.pending(), 10);
        assert_eq!(eng.run(&mut w), 10);
        assert_eq!(eng.events_executed(), 10);
        assert_eq!(eng.pending(), 0);
    }
}
