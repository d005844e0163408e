//! Equivalence proptests: the calendar queue must reproduce a reference
//! binary heap's pop order *exactly* — including ties in time, which
//! resolve FIFO by sequence number. The engine's determinism (and the
//! replay/golden tests above it) rest on this contract.

use cloudchar_simcore::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference implementation: the pre-refactor `BinaryHeap` ordering.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl HeapQueue {
    fn push(&mut self, time: u64, seq: u64, value: u32) {
        self.heap.push(Reverse((time, seq, value)));
    }
    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

/// Pop both queues to empty, asserting the same sequence.
fn drain_both(cal: &mut CalendarQueue<u32>, heap: &mut HeapQueue) {
    loop {
        let a = cal.pop();
        prop_assert_eq!(a, heap.pop());
        if a.is_none() {
            return;
        }
    }
}

/// Push one key into both queues.
fn push_both(cal: &mut CalendarQueue<u32>, heap: &mut HeapQueue, time: u64, seq: &mut u64) {
    cal.push(time, *seq, *seq as u32);
    heap.push(time, *seq, *seq as u32);
    *seq += 1;
}

/// Times of the `MAX_RUNGS` backstop construction: `zeros` events at 0
/// plus one at every power of two up to 2^62. Each rung then has two
/// buckets, and its first bucket holds all the zeros plus every power
/// below its width, so every drained bucket exceeds the sort threshold
/// and splits again, one rung deeper, until the 40-rung cap sorts it,
/// well over the threshold, into bottom.
fn backstop_times(zeros: usize) -> Vec<u64> {
    let mut times = vec![0u64; zeros];
    times.extend((0..=62).map(|k| 1u64 << k));
    times
}

proptest! {
    /// Bulk load then full drain: identical order for arbitrary times,
    /// with heavy collisions forced by the small time range.
    #[test]
    fn drain_matches_heap(times in proptest::collection::vec(0u64..50, 1..400)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        for (seq, &t) in times.iter().enumerate() {
            cal.push(t, seq as u64, seq as u32);
            heap.push(t, seq as u64, seq as u32);
        }
        prop_assert_eq!(cal.len(), times.len());
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Wide, clustered time range exercising wheel rebuilds across
    /// several generations.
    #[test]
    fn drain_matches_heap_wide_times(
        times in proptest::collection::vec(0u64..2_000_000_000_000, 1..300),
        cluster in 0u64..1_000_000_000,
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        for (seq, &t) in times.iter().enumerate() {
            // Half the events cluster tightly, half spread wide — the
            // simulator's actual shape.
            let t = if seq % 2 == 0 { cluster + t % 10_000 } else { t };
            cal.push(t, seq as u64, seq as u32);
            heap.push(t, seq as u64, seq as u32);
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Interleaved pushes and pops, with pushes allowed at times earlier
    /// than the current bucket (the `run_until` push-back path) — pop
    /// order must still match the heap exactly.
    #[test]
    fn interleaved_ops_match_heap(
        ops in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..500),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        let mut seq = 0u64;
        for &(t, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.len(), heap.heap.len());
            } else {
                cal.push(t, seq, seq as u32);
                heap.push(t, seq, seq as u32);
                seq += 1;
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Interleaved pushes and pops over times clustered densely enough
    /// that buckets exceed the split threshold: exercises the
    /// rung-split path *while* pushes keep landing near the drain
    /// frontier, where an overshooting split rung once let `bottom_end`
    /// advance past keys still stored in the parent rung.
    #[test]
    fn interleaved_dense_cluster_matches_heap(
        ops in proptest::collection::vec((0u64..16, 0u8..4), 200..800),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        let mut seq = 0u64;
        for &(t, op) in &ops {
            // Pop roughly a quarter of the time so the queue stays deep
            // and repeatedly re-buckets the same narrow time range.
            if op == 0 {
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                cal.push(t, seq, seq as u32);
                heap.push(t, seq, seq as u32);
                seq += 1;
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Times at the extreme top of the u64 domain: bucket ends reach
    /// 2^64, which must not wrap `bottom_end` or rung bounds.
    #[test]
    fn near_u64_max_times_match_heap(
        offsets in proptest::collection::vec((0u64..200, any::<bool>()), 1..300),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        let mut seq = 0u64;
        for &(off, is_pop) in &offsets {
            if is_pop {
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                let t = u64::MAX - off;
                cal.push(t, seq, seq as u32);
                heap.push(t, seq, seq as u32);
                seq += 1;
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Peek never disturbs pop order and always reports the next key.
    #[test]
    fn peek_is_transparent(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        for (seq, &t) in times.iter().enumerate() {
            cal.push(t, seq as u64, seq as u32);
            heap.push(t, seq as u64, seq as u32);
        }
        while let Some((t, s)) = cal.peek() {
            let popped = cal.pop();
            prop_assert_eq!(popped, heap.pop());
            let (pt, ps, _) = popped.expect("peek implied non-empty");
            prop_assert_eq!((t, s), (pt, ps));
        }
        prop_assert!(heap.pop().is_none());
    }

    /// Pushes below `bottom_end` land in bottom at every reachable
    /// distance from its tail. The first pop sorts a bucket of up to 64
    /// clustered events into bottom (the outlier far past the cluster
    /// gives the first rung a bucket width of ~500k), and late pushes
    /// below the bucket's end grow it to ~70. Then one probe time after
    /// another, each of 0..=40, is pushed twice: the first copy sorts
    /// behind every queued event of its time (FIFO by `seq`), the
    /// second behind the first. Order must match the heap throughout.
    #[test]
    fn bottom_inserts_at_every_distance_match_heap(
        cluster in proptest::collection::vec(0u64..40, 2..65),
        late in proptest::collection::vec(0u64..40, 0..9),
    ) {
        for probe in 0..=40u64 {
            let mut cal = CalendarQueue::new();
            let mut heap = HeapQueue::default();
            let mut seq = 0u64;
            for &t in &cluster {
                push_both(&mut cal, &mut heap, t, &mut seq);
            }
            push_both(&mut cal, &mut heap, 1_000_000, &mut seq);
            prop_assert_eq!(cal.pop(), heap.pop());
            for &t in &late {
                push_both(&mut cal, &mut heap, t, &mut seq);
            }
            push_both(&mut cal, &mut heap, probe, &mut seq);
            push_both(&mut cal, &mut heap, probe, &mut seq);
            drain_both(&mut cal, &mut heap);
        }
    }

    /// Pushes into a bottom filled at the `MAX_RUNGS` backstop, where it
    /// holds far more than the sort threshold: after the first pop sorts
    /// it there, every push lands below `bottom_end`, at a drawn time
    /// among the queued ones, between pops. Fewer than 129 zeros keep
    /// every rung of the construction at two buckets.
    #[test]
    fn backstop_bottom_inserts_match_heap(
        zeros in 65usize..129,
        ops in proptest::collection::vec((0u32..40, 0u8..3), 1..200),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::default();
        let mut seq = 0u64;
        for t in backstop_times(zeros) {
            push_both(&mut cal, &mut heap, t, &mut seq);
        }
        prop_assert_eq!(cal.pop(), heap.pop());
        for &(k, op) in &ops {
            if op == 0 {
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                // 0, or a power of two the backstop bucket holds.
                let t = if op == 1 { 0 } else { 1u64 << (k % 20) };
                push_both(&mut cal, &mut heap, t, &mut seq);
            }
        }
        drain_both(&mut cal, &mut heap);
    }
}
