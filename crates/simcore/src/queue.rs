//! The engine's pending-event set: a hierarchical calendar queue
//! (ladder-queue variant).
//!
//! A discrete-event simulation pops events in `(time, seq)` order, where
//! `seq` is the insertion sequence number breaking ties FIFO. A binary
//! heap gives `O(log n)` per operation with poor cache behaviour. The
//! simulator's event times are heavily *clustered*: most pending events
//! sit within milliseconds of the clock (service completions), a long
//! tail sits seconds out (think times). A single-level calendar queue
//! must pick one bucket width for both scales and degrades to `O(n)` on
//! such skew; the hierarchical variant instead refines bucket
//! granularity on demand, giving amortized near-`O(1)` inserts and pops
//! for any distribution.
//!
//! Structure, ordered by distance from the clock:
//!
//! * **bottom** — the events being drained, sorted *descending* by key
//!   so the next event pops from the tail in `O(1)`. Bottom is built
//!   from one bucket at a time and is therefore small; late inserts
//!   below its time bound (`bottom_end`) join it at the tail when they
//!   precede every entry there, and otherwise at the place found by
//!   scanning back from the tail. The scan compares once per entry that
//!   `Vec::insert` then shifts, so it costs no more than the shift the
//!   insert pays anyway, even in a bottom filled at the `MAX_RUNGS`
//!   backstop; in the simulator most such inserts land a few entries
//!   from the tail, where a bisection would still pay its full
//!   `log2(len)` compares.
//! * **rungs** — a stack of bucket arrays whose spans tile
//!   `[bottom_end, ladder end)` contiguously, finest (innermost) rung
//!   last. An insert walks inner→outer to the first rung covering its
//!   time and appends to a bucket in `O(1)`. When a popped bucket is
//!   small it is sorted into bottom; when it is large it is *split* into
//!   a new, finer rung (width shrinks at least 2× per split), which is
//!   how the hierarchy adapts to local event density.
//! * **top** — everything at or past the ladder's end, unsorted. When
//!   the ladder is exhausted, top is re-bucketed into a fresh rung sized
//!   to its observed time span — the queue tracks the workload's time
//!   scale with no tuning knobs.
//!
//! All rungs keep their buckets in one array, each rung a contiguous
//! range of it, since rungs come and go in stack order. Bucket vectors
//! that run empty are kept, capacity and all, and handed to the next
//! bucket that fills, so a queue in steady state allocates nothing.
//!
//! ## Ordering contract
//!
//! `pop` returns the entry with the smallest `(time, seq)` key among all
//! pending entries — byte-for-byte the order `BinaryHeap<Reverse<(time,
//! seq)>>` would produce. Keys are unique (`seq` never repeats), ties in
//! `time` resolve FIFO by `seq`, and the contract holds for *any* push
//! pattern, including pushes at times earlier than `bottom_end` (they
//! join bottom by sorted insert and pop first). Bucket-boundary
//! arithmetic is done in `u128`, so the contract has no overflow corner
//! cases anywhere in the `u64` time domain. The equivalence proptests in
//! `tests/prop_queue.rs` pin all of this against a reference heap.

/// Buckets at or below this size are sorted into bottom instead of
/// being split into a finer rung.
const SORT_THRESHOLD: usize = 64;
/// Most buckets a rung will use; bounds empty-bucket skip cost.
const MAX_BUCKETS: usize = 4096;
/// Rung-stack depth cap; at the cap, buckets sort into bottom no matter
/// their size (correct, just slower — a backstop, not a working regime).
const MAX_RUNGS: usize = 40;

struct Item<V> {
    time: u64,
    seq: u64,
    value: V,
}

impl<V> Item<V> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// One level of the ladder: its remaining buckets are
/// `slots[next..stop]` of the queue, and `slots[next + i]` spans
/// `[start + i*width, start + (i+1)*width)`, unsorted, except that the
/// last bucket is truncated at `end` so coverage tiles `[start, end)`
/// exactly — `width` need not divide the span.
struct Rung {
    start: u64,
    width: u64, // >= 1
    /// Exclusive logical end of this rung's coverage. Kept in `u128`
    /// because a rung spanning up to `u64::MAX` inclusive ends at
    /// `2^64`, which a `u64` cannot hold.
    end: u128,
    /// Index in `slots` of the bucket starting at `start`.
    next: usize,
    /// One past the rung's last bucket in `slots`.
    stop: usize,
}

impl Rung {
    /// Append an item to its bucket in `slots`; requires
    /// `start <= item.time` and `item.time < self.end`. A bucket's first
    /// item gives it a spare vector, so only buckets in use hold memory.
    fn place<V>(&self, item: Item<V>, slots: &mut [Vec<Item<V>>], spare: &mut Vec<Vec<Item<V>>>) {
        let idx = ((item.time - self.start) / self.width) as usize;
        let bucket = &mut slots[self.next + idx];
        if bucket.capacity() == 0 {
            if let Some(v) = spare.pop() {
                *bucket = v;
            }
        }
        bucket.push(item);
    }
}

/// A monotone priority queue over `(time, seq)` keys with amortized
/// near-`O(1)` operations for clustered event-time distributions.
pub struct CalendarQueue<V> {
    /// Events being drained; sorted descending by key, popped from the
    /// tail.
    bottom: Vec<Item<V>>,
    /// Exclusive time bound of bottom: pushes below it join bottom, and
    /// every event in the rungs or top has `time >= bottom_end`. `u128`
    /// because a fully drained ladder covering `u64::MAX` ends at `2^64`.
    bottom_end: u128,
    /// The ladder, outermost (coarsest, latest span) first. Rung spans
    /// tile `[bottom_end, rungs[0].end)` contiguously.
    rungs: Vec<Rung>,
    /// The rungs' buckets, outermost rung's first. Rungs are created
    /// and exhausted in stack order, so each rung's buckets are a
    /// contiguous range and the innermost rung's range is the tail.
    slots: Vec<Vec<Item<V>>>,
    /// Events at or past the ladder's end, unsorted.
    top: Vec<Item<V>>,
    len: usize,
    /// Emptied bucket vectors, kept with their capacity for the next
    /// bucket that fills, so a steady state allocates nothing.
    spare_buckets: Vec<Vec<Item<V>>>,
}

impl<V> Default for CalendarQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> CalendarQueue<V> {
    /// An empty queue. The first pop after a batch of pushes sizes the
    /// ladder from the observed event-time distribution.
    pub fn new() -> Self {
        CalendarQueue {
            bottom: Vec::new(),
            bottom_end: 0,
            rungs: Vec::new(),
            slots: Vec::new(),
            top: Vec::new(),
            len: 0,
            spare_buckets: Vec::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an entry. `seq` must be unique across live entries; the
    /// engine guarantees this by never reusing sequence numbers.
    pub fn push(&mut self, time: u64, seq: u64, value: V) {
        self.len += 1;
        let item = Item { time, seq, value };
        if (time as u128) < self.bottom_end {
            // The common case here — an event just ahead of the clock,
            // smaller than everything in bottom — lands at the tail with
            // no search.
            let key = item.key();
            if self.bottom.last().map_or(true, |tail| key < tail.key()) {
                self.bottom.push(item);
            } else {
                // Scan back from the tail to the last larger key. Keys are
                // unique, so this stops where a bisection would, and it
                // compares once per entry `insert` then moves anyway.
                let pos = self.bottom.iter().rposition(|it| it.key() > key);
                self.bottom.insert(pos.map_or(0, |i| i + 1), item);
            }
            return;
        }
        // Innermost (earliest-covering) rung first; rung spans tile
        // `[bottom_end, outermost end)`, so the first rung whose end
        // exceeds `time` covers it.
        for rung in self.rungs.iter_mut().rev() {
            if (time as u128) < rung.end {
                rung.place(item, &mut self.slots, &mut self.spare_buckets);
                return;
            }
        }
        self.top.push(item);
    }

    /// Key of the next entry to pop, without removing it.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.bottom.is_empty() {
            self.refill_bottom();
        }
        self.bottom.last().map(Item::key)
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(u64, u64, V)> {
        if self.bottom.is_empty() {
            self.refill_bottom();
        }
        let item = self.bottom.pop()?;
        self.len -= 1;
        Some((item.time, item.seq, item.value))
    }

    /// Make bottom non-empty if any entry is pending: advance the
    /// innermost rung to its next non-empty bucket, sorting it into
    /// bottom when small and splitting it into a finer rung when large;
    /// rebuild the ladder from top when it runs dry.
    fn refill_bottom(&mut self) {
        debug_assert!(self.bottom.is_empty());
        loop {
            let Some(rung) = self.rungs.last_mut() else {
                if self.top.is_empty() {
                    return; // truly empty
                }
                self.rebuild_from_top();
                continue;
            };
            if rung.next == rung.stop {
                self.rungs.pop();
                let base = self.rungs.last().map_or(0, |outer| outer.stop);
                // Every bucket of the exhausted rung was taken; the
                // truncation frees nothing.
                self.slots.truncate(base);
                continue;
            }
            let mut bucket = std::mem::take(&mut self.slots[rung.next]);
            rung.next += 1;
            let b_start = rung.start;
            // The popped bucket's logical slot, truncated at the rung's
            // end: `[b_start, b_end)`. Advancing past the rung end would
            // overlap an outer rung's remaining buckets, popping late
            // pushes ahead of earlier-keyed entries still stored there.
            let b_end = (b_start as u128 + rung.width as u128).min(rung.end);
            // Saturation only matters when `b_end == 2^64`, i.e. this was
            // the rung's final bucket and `start` is never read again.
            rung.start = b_end.min(u64::MAX as u128) as u64;
            if bucket.is_empty() {
                self.recycle(bucket);
                continue;
            }
            let same_time = bucket.len() > 1 && {
                let t0 = bucket[0].time;
                bucket.iter().all(|it| it.time == t0)
            };
            let b_span = b_end - b_start as u128;
            if bucket.len() <= SORT_THRESHOLD
                || b_span == 1
                || same_time
                || self.rungs.len() >= MAX_RUNGS
            {
                bucket.sort_unstable_by(|a, b| b.key().cmp(&a.key()));
                let drained = std::mem::replace(&mut self.bottom, bucket);
                self.recycle(drained);
                self.bottom_end = b_end;
                return;
            }
            // Split: a finer rung tiling exactly the popped bucket's
            // slot, so rung coverage stays contiguous. Width shrinks at
            // least 2x per split, so depth is bounded by log2(span).
            let finer = self.new_rung(b_start, b_span, bucket.len() / SORT_THRESHOLD);
            for it in bucket.drain(..) {
                finer.place(it, &mut self.slots, &mut self.spare_buckets);
            }
            self.recycle(bucket);
            self.rungs.push(finer);
        }
    }

    /// The ladder ran dry: re-bucket top into a fresh rung spanning its
    /// observed `[min, max]` time range.
    fn rebuild_from_top(&mut self) {
        debug_assert!(self.rungs.is_empty() && !self.top.is_empty());
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for it in &self.top {
            min_t = min_t.min(it.time);
            max_t = max_t.max(it.time);
        }
        let span = (max_t - min_t) as u128 + 1;
        let rung = self.new_rung(min_t, span, self.top.len() / SORT_THRESHOLD);
        for it in self.top.drain(..) {
            rung.place(it, &mut self.slots, &mut self.spare_buckets);
        }
        self.rungs.push(rung);
        // Pushes earlier than the new ladder may still arrive; they
        // belong to bottom (currently empty) and pop first.
        self.bottom_end = min_t as u128;
    }

    /// Keep an emptied bucket vector for reuse, unless it never
    /// allocated.
    fn recycle(&mut self, bucket: Vec<Item<V>>) {
        debug_assert!(bucket.is_empty());
        if bucket.capacity() > 0 {
            self.spare_buckets.push(bucket);
        }
    }

    /// Build a rung of `>= 2` buckets tiling exactly `[start, start +
    /// span)`, its empty buckets appended to `slots`. `width * count`
    /// may overshoot `span` when `width` does not divide it; the stored
    /// `end` truncates the last bucket so coverage never exceeds the
    /// requested span (an overshooting end would overlap an outer rung's
    /// remaining buckets and break pop ordering).
    fn new_rung(&mut self, start: u64, span: u128, at_most: usize) -> Rung {
        let buckets = at_most.clamp(2, MAX_BUCKETS) as u128;
        let width = span.div_ceil(buckets).max(1) as u64;
        let count = span.div_ceil(width as u128) as usize;
        let next = self.slots.len();
        self.slots.resize_with(next + count.max(1), Vec::new);
        Rung {
            start,
            width,
            end: start as u128 + span,
            next,
            stop: self.slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut keys = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            keys.push((t, s));
        }
        keys
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(30, 0, 0);
        q.push(10, 1, 1);
        q.push(20, 2, 2);
        q.push(10, 3, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 3), (20, 2), (30, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(100, 0, 0);
        q.push(5, 1, 1);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((5, 1)));
        // Push earlier than `bottom_end` after a pop.
        q.push(6, 2, 2);
        q.push(7, 3, 3);
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((6, 2)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((7, 3)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((100, 0)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(42, 7, 0);
        q.push(41, 8, 1);
        assert_eq!(q.peek(), Some((41, 8)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((41, 8)));
        assert_eq!(q.peek(), Some((42, 7)));
    }

    #[test]
    fn wide_time_span_rebuilds_cleanly() {
        let mut q = CalendarQueue::new();
        // Span forces rung splits and a ladder rebuild, including the
        // extremes of the time domain.
        for (i, t) in [0u64, 1, 1_000_000_000_000, 500_000, 2, 999, u64::MAX]
            .iter()
            .enumerate()
        {
            q.push(*t, i as u64, i as u32);
        }
        let keys = drain(&mut q);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn many_entries_one_time_stay_fifo() {
        // A same-time pile larger than SORT_THRESHOLD cannot be split
        // by time; it must sort into bottom and pop FIFO by seq.
        let mut q = CalendarQueue::new();
        for seq in 0..(SORT_THRESHOLD as u64 * 4) {
            q.push(77, seq, seq as u32);
        }
        let keys = drain(&mut q);
        assert_eq!(keys.len(), SORT_THRESHOLD * 4);
        for (i, &(t, s)) in keys.iter().enumerate() {
            assert_eq!((t, s), (77, i as u64));
        }
    }

    #[test]
    fn skewed_cluster_splits_into_finer_rungs() {
        // 10k events within 1ms plus one far outlier: the split path
        // must engage (several rungs) and order must hold.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        q.push(8_000_000_000, seq, 0);
        seq += 1;
        for i in 0..10_000u64 {
            q.push((i * 7919) % 1_000_000, seq, i as u32);
            seq += 1;
        }
        let keys = drain(&mut q);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 10_001);
    }

    #[test]
    fn split_rung_does_not_overshoot_parent_bucket() {
        // Regression: splitting a [0,5) bucket with at_most=2 gives
        // width 3, and count = ceil(5/3) = 2 buckets covering [0,6) —
        // overshooting the parent slot unless the rung end is clamped.
        // Unclamped, draining the finer rung advanced `bottom_end` to 6
        // while (5, seq 1) still sat in the parent rung, so a later push
        // at t=5 joined bottom and popped first.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        q.push(0, seq, 0);
        seq += 1;
        let early_five = seq;
        q.push(5, seq, 5);
        seq += 1;
        // 128 events in [1,4]: the [0,5) bucket of the initial width-5
        // rung exceeds SORT_THRESHOLD and must split.
        for i in 0..128u64 {
            q.push(1 + i % 4, seq, 0);
            seq += 1;
        }
        q.push(9, seq, 9);
        seq += 1;
        // Drain exactly the 129 events at t <= 4 — no peek afterwards,
        // so bottom stays empty and `bottom_end` sits at the drained
        // split rung's bound when the late push arrives.
        for _ in 0..129 {
            let (t, _, _) = q.pop().unwrap();
            assert!(t <= 4);
        }
        // A second t=5 event, pushed after the split rung drained, must
        // pop AFTER the earlier-seq t=5 event still in the parent rung.
        q.push(5, seq, 55);
        let late_five = seq;
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((5, early_five)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((5, late_five)));
        assert_eq!(q.pop().map(|(t, s, _)| (t, s)), Some((9, seq - 1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn nested_cluster_sorts_into_bottom_at_the_rung_cap() {
        // The construction `tests/prop_queue.rs` drives at the backstop:
        // 100 events at 0 plus one at every power of two up to 2^62.
        // Each split keeps the zeros and all but the largest power in its
        // first bucket, so only the `MAX_RUNGS` cap stops the splitting.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for t in std::iter::repeat(0)
            .take(100)
            .chain((0..=62).map(|k| 1u64 << k))
        {
            q.push(t, seq, 0);
            seq += 1;
        }
        assert_eq!(q.peek(), Some((0, 0)));
        assert_eq!(q.rungs.len(), MAX_RUNGS);
        assert_eq!(q.bottom.len(), 100 + 23); // zeros plus 2^0..=2^22
        assert!(q.bottom.len() > SORT_THRESHOLD);
        // A push between two queued keys lands in that large bottom.
        q.push(3, seq, 0);
        assert_eq!(q.bottom.len(), 124);
        let keys = drain(&mut q);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 164);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert!(q.pop().is_none());
    }
}
