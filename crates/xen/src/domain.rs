//! Xen domains.
//!
//! A [`Domain`] is one guest (or dom0): its VCPUs, its memory view, its
//! virtual block device and virtual network interface statistics, and the
//! kernel activity counters a sysstat running *inside* the guest would
//! sample. Domain 0 is the driver domain: it owns the physical devices
//! and performs backend I/O work on behalf of the guests.

use cloudchar_hw::memory::{Bytes, MemoryPool, MemorySpec};
use cloudchar_hw::server::KernelActivity;
use cloudchar_hw::{WorkQueue, WorkToken};
use cloudchar_simcore::round_u64;
use cloudchar_simcore::stats::Counter;
use serde::{Deserialize, Serialize};

/// Domain identifier. Dom0 is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DomId(pub u32);

impl DomId {
    /// The driver domain.
    pub const DOM0: DomId = DomId(0);

    /// Whether this is dom0.
    pub fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

/// Static configuration of a domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainConfig {
    /// Human-readable name (e.g. "web-app", "mysql").
    pub name: String,
    /// Number of VCPUs (paper: up to 2 per VM).
    pub vcpus: u32,
    /// Memory allocated to the VM (paper: 2 GB).
    pub memory: MemorySpec,
    /// Credit-scheduler weight (Xen default 256).
    pub weight: u32,
    /// Credit-scheduler cap as a percentage of one physical CPU
    /// (`None` = uncapped; `Some(100)` = at most one full core).
    pub cap_percent: Option<u32>,
}

impl DomainConfig {
    /// The paper's guest VM shape: 2 VCPUs, 2 GB RAM, default weight,
    /// uncapped.
    pub fn paper_vm(name: &str) -> Self {
        DomainConfig {
            name: name.to_string(),
            vcpus: 2,
            memory: MemorySpec::vm_2gb(),
            weight: 256,
            cap_percent: None,
        }
    }

    /// Dom0: boosted weight, host-visible memory reservation.
    pub fn dom0(memory: MemorySpec) -> Self {
        DomainConfig {
            name: "Domain-0".to_string(),
            vcpus: 2,
            memory,
            weight: 512,
            cap_percent: None,
        }
    }
}

/// Virtual block device statistics (frontend view).
#[derive(Debug, Default)]
pub struct VbdStats {
    /// Bytes read through the frontend.
    pub bytes_read: Counter,
    /// Bytes written through the frontend.
    pub bytes_written: Counter,
    /// Read operations.
    pub reads: Counter,
    /// Write operations.
    pub writes: Counter,
}

/// Virtual network interface statistics (frontend view).
#[derive(Debug, Default)]
pub struct VifStats {
    /// Bytes received by the guest.
    pub rx_bytes: Counter,
    /// Bytes transmitted by the guest.
    pub tx_bytes: Counter,
    /// Packets received.
    pub rx_packets: Counter,
    /// Packets transmitted.
    pub tx_packets: Counter,
}

/// One Xen domain.
#[derive(Debug)]
pub struct Domain {
    /// Identifier (0 = dom0).
    pub id: DomId,
    /// Static configuration.
    pub config: DomainConfig,
    /// Application CPU work awaiting VCPU time.
    pub work: WorkQueue,
    /// I/O-path and housekeeping CPU work (cycles) not tied to a request
    /// completion; drained with priority before application work.
    pub overhead_cycles: f64,
    /// The guest's memory view.
    pub memory: MemoryPool,
    /// Virtual block device counters.
    pub vbd: VbdStats,
    /// Virtual NIC counters.
    pub vif: VifStats,
    /// Guest-kernel activity counters.
    pub kernel: KernelActivity,
    /// Cumulative *virtualized* CPU cycles the guest believes it has
    /// executed (what sysstat inside the VM reports).
    pub virt_cycles: Counter,
    /// Cumulative nanoseconds of physical core time actually received.
    pub run_ns: Counter,
    /// Cumulative nanoseconds runnable-but-not-running (steal time).
    pub steal_ns: Counter,
    /// Crashed (fault injection): excluded from scheduling until
    /// restarted.
    pub(crate) down: bool,
}

impl Domain {
    /// Create a domain from its config.
    pub fn new(id: DomId, config: DomainConfig) -> Self {
        let memory = MemoryPool::new(config.memory);
        Domain {
            id,
            config,
            work: WorkQueue::new(),
            overhead_cycles: 0.0,
            memory,
            vbd: VbdStats::default(),
            vif: VifStats::default(),
            kernel: KernelActivity::new(),
            virt_cycles: Counter::new(),
            run_ns: Counter::new(),
            steal_ns: Counter::new(),
            down: false,
        }
    }

    /// Add I/O-path / housekeeping cycles to be executed before
    /// application work.
    pub fn add_overhead_cycles(&mut self, cycles: f64) {
        assert!(cycles.is_finite() && cycles >= 0.0);
        self.overhead_cycles += cycles;
    }

    /// Total CPU demand in cycles (overhead + application backlog).
    pub fn demand_cycles(&self) -> f64 {
        self.overhead_cycles + self.work.backlog_cycles()
    }

    /// Execute up to `budget` cycles: overhead first, then application
    /// work FIFO. Completed application tokens are appended to `out`.
    /// Returns the cycles actually executed, exact and rounded (the
    /// rounded count is what `virt_cycles` was charged).
    #[inline]
    pub fn execute(&mut self, budget: f64, out: &mut Vec<WorkToken>) -> (f64, u64) {
        let overhead_part = self.overhead_cycles.min(budget);
        self.overhead_cycles -= overhead_part;
        let app_part = self.work.drain(budget - overhead_part, out);
        let total = overhead_part + app_part;
        // No clock here: domains execute inside a scheduler slice, so the
        // audit is stamped at 0 (see audit module docs on clockless sites).
        cloudchar_simcore::audit::check(
            "xen.domain.execute_within_budget",
            0,
            total <= budget * (1.0 + 1e-9) && self.overhead_cycles >= 0.0,
            || {
                format!(
                    "executed {total} cycles against budget {budget} (overhead left {})",
                    self.overhead_cycles
                )
            },
        );
        let cycles = round_u64(total);
        self.virt_cycles.add(cycles);
        (total, cycles)
    }

    /// Record `bytes` of frontend disk traffic.
    pub fn record_vbd(&mut self, read: bool, bytes: Bytes) {
        if read {
            self.vbd.bytes_read.add(bytes);
            self.vbd.reads.add(1);
        } else {
            self.vbd.bytes_written.add(bytes);
            self.vbd.writes.add(1);
        }
    }

    /// Record guest NIC traffic. `rx = true` for received bytes.
    pub fn record_vif(&mut self, rx: bool, bytes: Bytes) {
        let packets = bytes.div_ceil(1448).max(1);
        if rx {
            self.vif.rx_bytes.add(bytes);
            self.vif.rx_packets.add(packets);
        } else {
            self.vif.tx_bytes.add(bytes);
            self.vif.tx_packets.add(packets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_identity() {
        assert!(DomId::DOM0.is_dom0());
        assert!(!DomId(3).is_dom0());
    }

    #[test]
    fn paper_vm_shape() {
        let c = DomainConfig::paper_vm("web");
        assert_eq!(c.vcpus, 2);
        assert_eq!(c.memory.total, 2 * 1024 * 1024 * 1024);
        assert_eq!(c.weight, 256);
        assert_eq!(c.cap_percent, None);
    }

    #[test]
    fn overhead_drains_before_app_work() {
        let mut d = Domain::new(DomId(1), DomainConfig::paper_vm("t"));
        d.add_overhead_cycles(100.0);
        d.work.push(WorkToken(1), 50.0);
        assert_eq!(d.demand_cycles(), 150.0);
        let mut out = Vec::new();
        let used = d.execute(120.0, &mut out);
        assert_eq!(used, (120.0, 120));
        assert!(out.is_empty()); // only 20 of the 50 app cycles ran
        assert_eq!(d.overhead_cycles, 0.0);
        let used2 = d.execute(100.0, &mut out);
        assert_eq!(used2, (30.0, 30));
        assert_eq!(out, vec![WorkToken(1)]);
        assert_eq!(d.virt_cycles.total(), 150);
    }

    #[test]
    fn vbd_vif_accounting() {
        let mut d = Domain::new(DomId(1), DomainConfig::paper_vm("t"));
        d.record_vbd(true, 4096);
        d.record_vbd(false, 1000);
        d.record_vif(true, 3000);
        d.record_vif(false, 50);
        assert_eq!(d.vbd.bytes_read.total(), 4096);
        assert_eq!(d.vbd.bytes_written.total(), 1000);
        assert_eq!(d.vif.rx_bytes.total(), 3000);
        assert_eq!(d.vif.rx_packets.total(), 3);
        assert_eq!(d.vif.tx_packets.total(), 1);
    }
}
