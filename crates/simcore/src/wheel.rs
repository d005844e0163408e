//! Batched timer wheel for large client populations.
//!
//! A [`TimerWheel`] spreads pending wakeups over a fixed ring of coarse
//! buckets keyed by deadline, so the engine's calendar queue holds at
//! most one event *per armed bucket* instead of one event per client.
//! The wheel itself never fires anything: the owning world arms engine
//! events for bucket deadlines and drains due entries from inside the
//! handler, batching every wakeup that lands before the engine's next
//! unrelated event into a single engine dispatch (see
//! [`crate::engine::Engine::advance_now_to`]).
//!
//! Determinism contract: entries within a bucket are ordered by
//! `(deadline, arm_seq)` where `arm_seq` is a global arming counter —
//! the exact `(time, seq)` FIFO tie-break the engine itself uses — so a
//! drain visits clients in the same order the unbatched per-client
//! events would have executed. Deadlines are stored at full nanosecond
//! precision; bucketing only coarsens *which engine event* wakes a
//! client, never *when* the client observes the clock.
//!
//! Each bucket keeps a plain vector, its *run*. Arming appends; the
//! first drain query sorts the run once, descending, so due entries pop
//! from its tail. An entry armed into a bucket being drained (a short
//! delay) extends the run's tail when it is due before all of it and
//! otherwise joins a small per-bucket heap of stragglers; draining
//! merges the two by key. A bucket that empties goes back to appending.
//! One sort per bucket visit is much cheaper than a heap push and pop
//! per wakeup.
//!
//! The ring is modular: slot = `(deadline / width) mod nbuckets`. Two
//! deadlines a full revolution apart share a slot; that costs a heap
//! probe, never correctness, because due entries are selected by exact
//! deadline. Size the horizon (`width × nbuckets`) above the largest
//! delay ever armed to keep collisions rare.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending wakeup. Ordered by `(deadline_ns, arm_seq)`; `arm_seq`
/// is globally unique so the order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    deadline_ns: u64,
    arm_seq: u64,
    client: u32,
    epoch: u64,
}

#[derive(Debug, Default)]
struct Bucket {
    /// Pending entries; while `sorted`, descending by
    /// `(deadline, arm_seq)`, so the run's next due entry is last.
    run: Vec<Entry>,
    sorted: bool,
    /// Entries armed while `sorted` that are not due before the whole
    /// run; merged with the run at drain time.
    late: BinaryHeap<Reverse<Entry>>,
    /// Deadline of the engine event currently armed for this bucket, if
    /// any. Arming an earlier entry supersedes it; the superseded event
    /// detects the mismatch at fire time and becomes a no-op.
    scheduled: Option<u64>,
}

impl Bucket {
    /// The earliest pending entry of a sorted bucket, and whether it
    /// heads the run (else the late heap).
    fn head(&self) -> Option<(Entry, bool)> {
        match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) if l < r => Some((*l, false)),
            (Some(r), _) => Some((*r, true)),
            (None, l) => l.map(|Reverse(l)| (*l, false)),
        }
    }
}

/// A modular ring of timer buckets over the engine's calendar queue.
#[derive(Debug)]
pub struct TimerWheel {
    width_ns: u64,
    buckets: Vec<Bucket>,
    arm_seq: u64,
    pending: usize,
    /// Buffers of emptied buckets, their capacity kept for the next
    /// bucket that needs one: the ring then holds about as many buffers
    /// as buckets are pending at once, not one per bucket ever armed, so
    /// it stops allocating once they have grown rather than once every
    /// slot of the ring has been used.
    spare_runs: Vec<Vec<Entry>>,
    spare_late: Vec<BinaryHeap<Reverse<Entry>>>,
}

impl TimerWheel {
    /// Create a wheel of `nbuckets` slots, each `width` wide.
    pub fn new(width: SimDuration, nbuckets: usize) -> Self {
        assert!(width > SimDuration::ZERO, "bucket width must be > 0");
        assert!(nbuckets > 0, "wheel needs at least one bucket");
        let mut buckets = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            buckets.push(Bucket::default());
        }
        TimerWheel {
            width_ns: width.as_nanos(),
            buckets,
            arm_seq: 0,
            pending: 0,
            spare_runs: Vec::new(),
            spare_late: Vec::new(),
        }
    }

    /// Ring slot owning `deadline_ns`.
    fn slot_of(&self, deadline_ns: u64) -> usize {
        ((deadline_ns / self.width_ns) % self.buckets.len() as u64) as usize
    }

    /// Number of wakeups currently armed across all buckets.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when no wakeups are armed.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Arm a wakeup for `client` at `deadline`, tagged with the client's
    /// current `epoch` (checked against the live epoch at drain time so
    /// stale wakeups are dropped).
    ///
    /// Returns `Some((slot, deadline))` when the caller must schedule an
    /// engine event at `deadline` for `slot` — i.e. the new entry is due
    /// strictly before anything already scheduled for its bucket.
    /// Returns `None` when an already-armed engine event covers it.
    #[inline]
    pub fn arm(&mut self, deadline: SimTime, client: u32, epoch: u64) -> Option<(usize, SimTime)> {
        let deadline_ns = deadline.as_nanos();
        let slot = self.slot_of(deadline_ns);
        let seq = self.arm_seq;
        self.arm_seq += 1;
        let entry = Entry {
            deadline_ns,
            arm_seq: seq,
            client,
            epoch,
        };
        let bucket = &mut self.buckets[slot];
        if bucket.sorted && bucket.run.last().is_some_and(|tail| *tail < entry) {
            if bucket.late.capacity() == 0 {
                bucket.late = self.spare_late.pop().unwrap_or_default();
            }
            bucket.late.push(Reverse(entry));
        } else {
            if bucket.run.capacity() == 0 {
                bucket.run = self.spare_runs.pop().unwrap_or_default();
            }
            bucket.run.push(entry);
        }
        self.pending += 1;
        match bucket.scheduled {
            Some(at) if at <= deadline_ns => None,
            _ => {
                bucket.scheduled = Some(deadline_ns);
                Some((slot, deadline))
            }
        }
    }

    /// Claim the engine event firing for `slot` at `now`.
    ///
    /// Returns `true` when this event is the bucket's live one (and
    /// clears the slot's scheduled marker so the drain loop re-arms as
    /// needed); `false` when a later `arm` superseded it and the event
    /// must return without touching the bucket.
    pub fn begin_fire(&mut self, slot: usize, now: SimTime) -> bool {
        let bucket = &mut self.buckets[slot];
        if bucket.scheduled == Some(now.as_nanos()) {
            bucket.scheduled = None;
            true
        } else {
            false
        }
    }

    /// Pop the next entry of `slot` due exactly at `now`, in
    /// `(deadline, arm_seq)` order. `None` once the bucket has nothing
    /// due at `now`.
    #[inline]
    pub fn pop_due(&mut self, slot: usize, now: SimTime) -> Option<(u32, u64)> {
        let bucket = self.sorted_bucket(slot);
        let (head, in_run) = bucket.head()?;
        if head.deadline_ns != now.as_nanos() {
            return None;
        }
        if in_run {
            bucket.run.pop();
        } else {
            bucket.late.pop();
        }
        if bucket.run.is_empty() && bucket.late.is_empty() {
            bucket.sorted = false;
            let run = std::mem::take(&mut bucket.run);
            let late = std::mem::take(&mut bucket.late);
            if run.capacity() > 0 {
                self.spare_runs.push(run);
            }
            if late.capacity() > 0 {
                self.spare_late.push(late);
            }
        }
        self.pending -= 1;
        Some((head.client, head.epoch))
    }

    /// Earliest remaining deadline in `slot`, if any.
    #[inline]
    pub fn next_deadline(&mut self, slot: usize) -> Option<SimTime> {
        let (head, _) = self.sorted_bucket(slot).head()?;
        Some(SimTime::from_nanos(head.deadline_ns))
    }

    /// `slot`'s bucket, its run sorted for draining.
    fn sorted_bucket(&mut self, slot: usize) -> &mut Bucket {
        let bucket = &mut self.buckets[slot];
        if !bucket.sorted {
            bucket.run.sort_unstable_by(|a, b| b.cmp(a));
            bucket.sorted = true;
        }
        bucket
    }

    /// Record that an engine event was scheduled for `slot` at
    /// `deadline` (the drain loop's continuation when it cannot batch
    /// further).
    pub fn commit(&mut self, slot: usize, deadline: SimTime) {
        self.buckets[slot].scheduled = Some(deadline.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimerWheel {
        TimerWheel::new(SimDuration::from_secs(1), 8)
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn arm_returns_schedule_instruction_only_when_earlier() {
        let mut w = wheel();
        let first = w.arm(t(500), 1, 0);
        assert_eq!(first, Some((0, t(500))));
        // Later deadline in the same bucket: already covered.
        assert_eq!(w.arm(t(700), 2, 0), None);
        // Earlier deadline supersedes.
        assert_eq!(w.arm(t(300), 3, 0), Some((0, t(300))));
        assert_eq!(w.pending(), 3);
    }

    #[test]
    fn begin_fire_rejects_superseded_events() {
        let mut w = wheel();
        w.arm(t(500), 1, 0);
        w.arm(t(300), 2, 0);
        // The original event at 500 was superseded by the one at 300.
        assert!(w.begin_fire(0, t(300)));
        assert!(!w.begin_fire(0, t(500)));
    }

    #[test]
    fn pop_due_is_deadline_then_fifo_ordered() {
        let mut w = wheel();
        w.arm(t(500), 10, 0);
        w.arm(t(300), 11, 0);
        w.arm(t(500), 12, 0);
        assert!(w.begin_fire(0, t(300)));
        assert_eq!(w.pop_due(0, t(300)), Some((11, 0)));
        assert_eq!(w.pop_due(0, t(300)), None);
        // Entries due at 500 pop in arming order.
        assert_eq!(w.pop_due(0, t(500)), Some((10, 0)));
        assert_eq!(w.pop_due(0, t(500)), Some((12, 0)));
        assert_eq!(w.pop_due(0, t(500)), None);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_tracks_bucket_head() {
        let mut w = wheel();
        assert_eq!(w.next_deadline(0), None);
        w.arm(t(900), 1, 0);
        w.arm(t(200), 2, 0);
        assert_eq!(w.next_deadline(0), Some(t(200)));
        assert!(w.begin_fire(0, t(200)));
        let _ = w.pop_due(0, t(200));
        assert_eq!(w.next_deadline(0), Some(t(900)));
    }

    #[test]
    fn deadlines_a_revolution_apart_share_a_slot_without_mixing() {
        let mut w = wheel();
        // 8 buckets × 1 s: 0.5 s and 8.5 s map to the same slot.
        let near = SimTime::from_secs_f64(0.5);
        let far = SimTime::from_secs_f64(8.5);
        let (slot, _) = w.arm(near, 1, 0).unwrap_or((usize::MAX, SimTime::ZERO));
        assert_eq!(w.arm(far, 2, 0), None, "same slot, later deadline");
        assert!(w.begin_fire(slot, near));
        assert_eq!(w.pop_due(slot, near), Some((1, 0)));
        // The far entry is not due yet: selected by exact deadline.
        assert_eq!(w.pop_due(slot, near), None);
        assert_eq!(w.next_deadline(slot), Some(far));
    }

    #[test]
    fn commit_re_arms_a_drained_bucket() {
        let mut w = wheel();
        w.arm(t(100), 1, 0);
        assert!(w.begin_fire(0, t(100)));
        let _ = w.pop_due(0, t(100));
        w.arm(t(400), 2, 7);
        // Pretend the drain loop scheduled a continuation at 400.
        w.commit(0, t(400));
        assert!(w.begin_fire(0, t(400)));
        assert_eq!(w.pop_due(0, t(400)), Some((2, 7)));
    }

    #[test]
    fn epochs_ride_along_untouched() {
        let mut w = wheel();
        w.arm(t(100), 5, 42);
        assert!(w.begin_fire(0, t(100)));
        assert_eq!(w.pop_due(0, t(100)), Some((5, 42)));
    }
}
