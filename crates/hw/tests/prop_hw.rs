//! Property-based tests for the hardware substrate.

use cloudchar_hw::{
    Disk, DiskSpec, IoKind, IoRequest, MemoryPool, MemorySpec, Nic, NicSpec, WorkQueue, WorkToken,
};
use cloudchar_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Disk completions are monotone in submission order (FIFO queue)
    /// and never earlier than submission.
    #[test]
    fn disk_fifo_monotone(
        reqs in proptest::collection::vec((any::<bool>(), 1u64..10_000_000, any::<bool>()), 1..100),
        now_s in 0u64..1_000,
    ) {
        let mut disk = Disk::new(DiskSpec::sata_7200rpm());
        let now = SimTime::from_secs(now_s);
        let mut last = SimTime::ZERO;
        for &(read, bytes, sequential) in &reqs {
            let done = disk.submit(now, IoRequest {
                kind: if read { IoKind::Read } else { IoKind::Write },
                bytes,
                sequential,
            });
            prop_assert!(done > now);
            prop_assert!(done >= last, "completion regressed");
            last = done;
        }
        let (r, w) = disk.totals();
        let expect: u64 = reqs.iter().map(|&(_, b, _)| b).sum();
        prop_assert_eq!(r + w, expect);
    }

    /// NIC delivery is monotone per sender and accounts all bytes.
    #[test]
    fn nic_serialization_monotone(
        sizes in proptest::collection::vec(1u64..5_000_000, 1..100),
    ) {
        let mut nic = Nic::new(NicSpec::gigabit());
        let now = SimTime::from_secs(1);
        let mut last = SimTime::ZERO;
        for &bytes in &sizes {
            let done = nic.transmit(now, bytes);
            prop_assert!(done > now);
            prop_assert!(done >= last);
            last = done;
        }
        let (_, tx) = nic.totals();
        prop_assert_eq!(tx, sizes.iter().sum::<u64>());
    }

    /// `transmit` delivers at exactly `start + wire_time(bytes)
    /// .mul_f64(factor) + latency`, bit for bit, whether the factor is
    /// the healthy 1.0 or comes from a loss or bandwidth fault. A link of
    /// a few bits per second stretches wire times to 2^53 ns and past
    /// it, where `u64 -> f64` stops being exact.
    #[test]
    fn nic_transmit_matches_rescaled_wire_time(
        bits_per_sec in 1u64..8,
        msgs in proptest::collection::vec((0u64..10_000_000, 0u64..1 << 50, 0u8..4, 0.0f64..0.5, 0.0f64..0.5), 1..20),
    ) {
        let spec = NicSpec {
            bits_per_sec,
            latency: SimDuration::from_micros(100),
            frame_overhead: 78,
        };
        let gigabit = NicSpec::gigabit();
        let mut slow = Nic::new(spec);
        let mut fast = Nic::new(gigabit);
        for &(bytes, now_ns, fault, loss, clamp) in &msgs {
            let (loss, bandwidth) = match fault {
                0 => (0.0, 1.0),
                1 => (loss, 1.0),
                2 => (0.0, 1.0 - clamp),
                _ => (loss, 1.0 - clamp),
            };
            let now = SimTime::from_nanos(now_ns);
            for (nic, spec) in [(&mut slow, spec), (&mut fast, gigabit)] {
                nic.set_fault(loss, bandwidth);
                let factor = nic.fault_factor();
                prop_assert_eq!(factor == 1.0, loss == 0.0 && bandwidth == 1.0);
                let start = nic.tx_busy_until().max(now);
                let wire = spec.wire_time(bytes);
                let done = start + wire.mul_f64(factor);
                prop_assert_eq!(nic.transmit(now, bytes), done + spec.latency);
                prop_assert_eq!(nic.tx_busy_until(), done);
            }
        }
    }

    /// Memory pool: used never exceeds total, free + used == total, and
    /// anonymous memory always survives cache pressure.
    #[test]
    fn memory_pool_invariants(
        ops in proptest::collection::vec((0u8..3, 0u64..4 << 30), 1..200),
    ) {
        let spec = MemorySpec { total: 2 << 30 };
        let mut pool = MemoryPool::new(spec);
        let mut anon: u64 = 0;
        for &(kind, bytes) in &ops {
            match kind {
                0 => {
                    let b = bytes.min(spec.total);
                    pool.set_component("app", b);
                    anon = b;
                }
                1 => pool.grow_page_cache(bytes),
                _ => pool.shrink_page_cache(bytes),
            }
            prop_assert!(pool.used() <= spec.total, "used {} > total", pool.used());
            prop_assert_eq!(pool.used() + pool.free(), spec.total.max(pool.used()));
            prop_assert_eq!(pool.anonymous(), anon, "anonymous memory evicted");
            prop_assert!(pool.peak_used() >= pool.used());
            prop_assert!((0.0..=1.0).contains(&pool.utilization()));
        }
    }

    /// Work queue conservation: cycles executed over any drain schedule
    /// equal cycles submitted (once drained to empty), tokens FIFO.
    #[test]
    fn work_queue_conservation(
        jobs in proptest::collection::vec(0.0f64..1e7, 1..50),
        drains in proptest::collection::vec(1.0f64..5e6, 1..200),
    ) {
        let mut q = WorkQueue::new();
        let total: f64 = jobs.iter().sum();
        for (i, &cycles) in jobs.iter().enumerate() {
            q.push(WorkToken(i as u64), cycles);
        }
        let mut done = Vec::new();
        let mut executed = 0.0;
        for &budget in &drains {
            executed += q.drain(budget, &mut done);
            if q.is_empty() {
                break;
            }
        }
        // Drain the rest.
        loop {
            let got = q.drain(1e12, &mut done);
            executed += got;
            if q.is_empty() { break; }
        }
        prop_assert!(q.is_empty());
        prop_assert!((executed - total).abs() < 1.0, "executed {executed} vs {total}");
        // FIFO completion order.
        let order: Vec<u64> = done.iter().map(|t| t.0).collect();
        let expect: Vec<u64> = (0..jobs.len() as u64).collect();
        prop_assert_eq!(order, expect);
        prop_assert!(q.backlog_cycles().abs() < 1e-6);
    }
}

/// A healthy 1 b/s link, swept across the payloads whose wire time
/// crosses 2^53 ns: delivery stays `start + wire_time(bytes).mul_f64(1.0)
/// + latency` on both sides of the boundary.
#[test]
fn nic_healthy_transmit_is_exact_across_2_53_ns() {
    let spec = NicSpec {
        bits_per_sec: 1,
        latency: SimDuration::from_micros(100),
        frame_overhead: 78,
    };
    let (mut below, mut above) = (0, 0);
    for bytes in (1_040_000u64..1_100_000).step_by(37) {
        let mut nic = Nic::new(spec);
        let now = SimTime::from_nanos(bytes);
        let wire = spec.wire_time(bytes);
        if wire.as_nanos() < 1 << 53 {
            below += 1;
        } else {
            above += 1;
        }
        assert_eq!(
            nic.transmit(now, bytes),
            now + wire.mul_f64(1.0) + spec.latency
        );
    }
    assert!(below > 100 && above > 100, "below {below} above {above}");
}
