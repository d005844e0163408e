//! Network interface and link modelling.
//!
//! A [`Nic`] serializes outgoing frames onto a link at the configured
//! bandwidth with a fixed propagation/processing latency, and counts
//! bytes/packets in both directions — the observables behind Figures 4
//! and 8 (KB received & transmitted per 2-second sample).
//!
//! Like [`crate::disk::Disk`], the device is passive: `transmit` returns
//! the absolute delivery time and the caller schedules the delivery event
//! (typically handing the frame to the peer NIC's `receive`).

use crate::memory::Bytes;
use cloudchar_simcore::stats::Counter;
use cloudchar_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Static description of a NIC / link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicSpec {
    /// Link bandwidth in bits per second.
    pub bits_per_sec: u64,
    /// One-way latency (propagation + stack processing).
    pub latency: SimDuration,
    /// Fixed per-frame overhead bytes (Ethernet + IP + TCP headers).
    pub frame_overhead: Bytes,
}

impl NicSpec {
    /// Gigabit Ethernet as in the paper's testbed; ~100 µs host-to-host
    /// latency on a LAN, 78 bytes of L2–L4 overhead per frame.
    pub fn gigabit() -> Self {
        NicSpec {
            bits_per_sec: 1_000_000_000,
            latency: SimDuration::from_micros(100),
            frame_overhead: 78,
        }
    }

    /// Serialization delay for a payload of `bytes`, splitting it into
    /// 1448-byte MSS segments each carrying the frame overhead.
    #[inline]
    pub fn wire_time(&self, bytes: Bytes) -> SimDuration {
        const MSS: u64 = 1448;
        let segments = bytes.div_ceil(MSS).max(1);
        let wire_bytes = bytes + segments * self.frame_overhead;
        SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / self.bits_per_sec as f64)
    }
}

/// A network interface with transmit serialization and rx/tx accounting.
#[derive(Debug)]
pub struct Nic {
    spec: NicSpec,
    tx_busy_until: SimTime,
    /// Runtime wire-time inflation from fault injection (1.0 = healthy).
    /// Encodes both loss-induced retransmission (`1 / (1 - loss)`) and a
    /// bandwidth clamp (`1 / bandwidth_factor`); keeping it a single
    /// deterministic multiplier avoids per-packet coin flips that would
    /// perturb the RNG streams of fault-free traffic.
    fault_factor: f64,
    tx_bytes: Counter,
    rx_bytes: Counter,
    tx_packets: Counter,
    rx_packets: Counter,
}

impl Nic {
    /// A fresh idle NIC.
    pub fn new(spec: NicSpec) -> Self {
        Nic {
            spec,
            tx_busy_until: SimTime::ZERO,
            fault_factor: 1.0,
            tx_bytes: Counter::new(),
            rx_bytes: Counter::new(),
            tx_packets: Counter::new(),
            rx_packets: Counter::new(),
        }
    }

    /// The NIC's static spec.
    pub fn spec(&self) -> NicSpec {
        self.spec
    }

    /// Apply fault degradation: packet loss `loss` ∈ [0, 1) forces the
    /// expected `1 / (1 - loss)` retransmissions, and the link runs at
    /// `bandwidth_factor` ∈ (0, 1] of nominal speed. `(0.0, 1.0)`
    /// restores the healthy link.
    pub fn set_fault(&mut self, loss: f64, bandwidth_factor: f64) {
        assert!(
            loss.is_finite() && (0.0..1.0).contains(&loss),
            "invalid NIC loss: {loss}"
        );
        assert!(
            bandwidth_factor.is_finite() && bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "invalid NIC bandwidth factor: {bandwidth_factor}"
        );
        self.fault_factor = 1.0 / ((1.0 - loss) * bandwidth_factor);
    }

    /// Current wire-time inflation factor (1.0 when healthy).
    pub fn fault_factor(&self) -> f64 {
        self.fault_factor
    }

    /// Transmit a message of `bytes` at time `now`; returns the absolute
    /// delivery time at the far end (serialization after queueing, plus
    /// one-way latency).
    #[inline]
    pub fn transmit(&mut self, now: SimTime, bytes: Bytes) -> SimTime {
        let start = self.tx_busy_until.max(now);
        let mut wire = self.spec.wire_time(bytes);
        // Below 2^53 ns the rescale by 1.0 is exact (`u64 -> f64` loses
        // nothing), so a healthy link skips it; the result is the same.
        if self.fault_factor != 1.0 || wire.as_nanos() >= 1 << 53 {
            wire = wire.mul_f64(self.fault_factor);
        }
        let done = start + wire;
        cloudchar_simcore::audit::check(
            "hw.nic.tx_monotonic",
            now.as_nanos(),
            done >= self.tx_busy_until && done >= now,
            || {
                format!(
                    "tx completion {} ns before busy horizon {} ns",
                    done.as_nanos(),
                    self.tx_busy_until.as_nanos()
                )
            },
        );
        self.tx_busy_until = done;
        self.tx_bytes.add(bytes);
        self.tx_packets.add(bytes.div_ceil(1448).max(1));
        self.tx_busy_until + self.spec.latency
    }

    /// Record reception of a message (called by the peer's delivery
    /// event).
    pub fn receive(&mut self, bytes: Bytes) {
        self.rx_bytes.add(bytes);
        self.rx_packets.add(bytes.div_ceil(1448).max(1));
    }

    /// Cumulative transmitted-bytes counter.
    pub fn tx_bytes(&mut self) -> &mut Counter {
        &mut self.tx_bytes
    }

    /// Cumulative received-bytes counter.
    pub fn rx_bytes(&mut self) -> &mut Counter {
        &mut self.rx_bytes
    }

    /// Cumulative transmitted-packets counter.
    pub fn tx_packets(&mut self) -> &mut Counter {
        &mut self.tx_packets
    }

    /// Cumulative received-packets counter.
    pub fn rx_packets(&mut self) -> &mut Counter {
        &mut self.rx_packets
    }

    /// Totals without consuming deltas: (rx bytes, tx bytes).
    pub fn totals(&self) -> (u64, u64) {
        (self.rx_bytes.total(), self.tx_bytes.total())
    }

    /// Absolute time the transmit side becomes idle.
    pub fn tx_busy_until(&self) -> SimTime {
        self.tx_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_includes_overhead() {
        let spec = NicSpec::gigabit();
        // 1448 bytes => 1 segment => 1526 wire bytes => 12.208 µs at 1 Gb/s
        let t = spec.wire_time(1448);
        assert!((t.as_secs_f64() - 1526.0 * 8.0 / 1e9).abs() < 1e-12);
        // Empty payload still costs one frame.
        assert!(spec.wire_time(0) > SimDuration::ZERO);
    }

    #[test]
    fn transmit_serializes_back_to_back() {
        let mut nic = Nic::new(NicSpec::gigabit());
        let t0 = SimTime::ZERO;
        let d1 = nic.transmit(t0, 1_000_000);
        let d2 = nic.transmit(t0, 1_000_000);
        assert!(d2 > d1);
        // Both include exactly one latency, so the gap is pure wire time.
        let gap = (d2 - d1).as_secs_f64();
        let wire = NicSpec::gigabit().wire_time(1_000_000).as_secs_f64();
        assert!((gap - wire).abs() < 1e-9);
    }

    #[test]
    fn idle_nic_delivers_after_wire_plus_latency() {
        let mut nic = Nic::new(NicSpec::gigabit());
        let now = SimTime::from_secs(5);
        let done = nic.transmit(now, 1448);
        let expect = NicSpec::gigabit().wire_time(1448) + NicSpec::gigabit().latency;
        assert_eq!((done - now).as_nanos(), expect.as_nanos());
    }

    #[test]
    fn fault_inflates_wire_time_and_clears() {
        let mut nic = Nic::new(NicSpec::gigabit());
        let healthy = (nic.transmit(SimTime::ZERO, 1_000_000) - SimTime::ZERO).as_secs_f64();
        let mut degraded = Nic::new(NicSpec::gigabit());
        degraded.set_fault(0.5, 0.5); // 2× retransmit × 2× slower link = 4×
        let t = degraded.transmit(SimTime::ZERO, 1_000_000);
        let latency = NicSpec::gigabit().latency.as_secs_f64();
        let slow = (t - SimTime::ZERO).as_secs_f64();
        assert!(
            (slow - latency - 4.0 * (healthy - latency)).abs() < 1e-9,
            "slow {slow} healthy {healthy}"
        );
        degraded.set_fault(0.0, 1.0);
        assert_eq!(degraded.fault_factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid NIC loss")]
    fn fault_rejects_total_loss() {
        let mut nic = Nic::new(NicSpec::gigabit());
        nic.set_fault(1.0, 1.0);
    }

    #[test]
    fn counters() {
        let mut nic = Nic::new(NicSpec::gigabit());
        nic.transmit(SimTime::ZERO, 3000);
        nic.receive(500);
        assert_eq!(nic.totals(), (500, 3000));
        assert_eq!(nic.tx_packets().total(), 3); // ceil(3000/1448)
        assert_eq!(nic.rx_packets().total(), 1);
        assert_eq!(nic.tx_bytes().take_delta(), 3000);
        assert_eq!(nic.rx_bytes().take_delta(), 500);
    }
}
