//! The platform abstraction: one RUBiS deployment's substrate.
//!
//! The same application logic (client emulator, web tier, MySQL tier)
//! runs over two substrates — VMs under a Xen hypervisor, or bare
//! physical servers. [`Platform`] is the seam: CPU work submission,
//! disk and network paths, periodic scheduling, and per-host sampling.

use crate::virt::VirtPlatform;
use cloudchar_hw::{IoRequest, WorkToken};
use cloudchar_monitor::{RawHostSample, Source};
use cloudchar_simcore::{FaultKind, FaultTier, SimDuration, SimTime};

pub use crate::phys::PhysPlatform;

/// Which application tier an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Apache + PHP web/application tier.
    Web,
    /// MySQL database tier.
    Db,
}

impl From<FaultTier> for Tier {
    fn from(t: FaultTier) -> Tier {
        match t {
            FaultTier::Web => Tier::Web,
            FaultTier::Db => Tier::Db,
        }
    }
}

/// Scheduler-visible load of one tier, supplied by the orchestrator for
/// sampling (run queues, task counts, sockets).
#[derive(Debug, Clone, Copy, Default)]
pub struct TierLoad {
    /// Runnable threads.
    pub runq: f64,
    /// Total tasks of the tier's processes.
    pub nproc: f64,
    /// Tasks blocked on I/O.
    pub blocked: f64,
    /// TCP connections opened since the last sample.
    pub tcp_active: f64,
    /// Open TCP sockets.
    pub tcp_sockets: f64,
    /// Processes forked since the last sample.
    pub forks: f64,
}

/// One monitored host's sample, tagged with the sysstat plane it reports
/// through and whether perf counters are collected there.
#[derive(Debug, Clone)]
pub struct HostSample {
    /// Host label used as the series key (e.g. `"web-vm"`, `"dom0"`).
    /// Static: all host names are fixed deployment constants, so the
    /// sampler never allocates for identity.
    pub host: &'static str,
    /// Raw activity for metric synthesis.
    pub raw: RawHostSample,
    /// Which sysstat plane this host reports through.
    pub sysstat_source: Source,
    /// Whether the modified perf collects counters on this host (dom0
    /// and physical machines; not inside guests).
    pub has_perf: bool,
}

/// A deployed substrate.
#[derive(Debug)]
pub enum Platform {
    /// Xen host with web and DB VMs plus dom0.
    Virt(Box<VirtPlatform>),
    /// Two physical servers.
    Phys(Box<PhysPlatform>),
}

impl Platform {
    /// Scheduling quantum the orchestrator should tick at.
    pub fn quantum(&self) -> SimDuration {
        match self {
            Platform::Virt(v) => v.quantum(),
            Platform::Phys(p) => p.quantum(),
        }
    }

    /// Submit application CPU work for a tier.
    pub fn submit_work(&mut self, tier: Tier, token: WorkToken, cycles: f64) {
        match self {
            Platform::Virt(v) => v.submit_work(tier, token, cycles),
            Platform::Phys(p) => p.submit_work(tier, token, cycles),
        }
    }

    /// Run one scheduling quantum; returns completed work tokens.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, out: &mut Vec<(Tier, WorkToken)>) {
        match self {
            Platform::Virt(v) => v.tick(now, dt, out),
            Platform::Phys(p) => p.tick(dt, out),
        }
    }

    /// Issue a disk I/O for a tier; returns the completion time.
    pub fn disk_io(&mut self, now: SimTime, tier: Tier, req: IoRequest) -> SimTime {
        match self {
            Platform::Virt(v) => v.disk_io(now, tier, req),
            Platform::Phys(p) => p.disk_io(now, tier, req),
        }
    }

    /// Client request entering the web tier; returns arrival time.
    pub fn net_client_to_web(&mut self, now: SimTime, bytes: u64) -> SimTime {
        match self {
            Platform::Virt(v) => v.net_client_to_web(now, bytes),
            Platform::Phys(p) => p.net_client_to_web(now, bytes),
        }
    }

    /// Response leaving the web tier; returns client delivery time.
    pub fn net_web_to_client(&mut self, now: SimTime, bytes: u64) -> SimTime {
        match self {
            Platform::Virt(v) => v.net_web_to_client(now, bytes),
            Platform::Phys(p) => p.net_web_to_client(now, bytes),
        }
    }

    /// Transfer between the tiers; `to_db` selects direction. Returns
    /// delivery time.
    pub fn net_web_db(&mut self, now: SimTime, to_db: bool, bytes: u64) -> SimTime {
        match self {
            Platform::Virt(v) => v.net_web_db(now, to_db, bytes),
            Platform::Phys(p) => p.net_web_db(now, to_db, bytes),
        }
    }

    /// Update the resident size of a tier's application processes.
    pub fn set_tier_memory(&mut self, tier: Tier, bytes: u64) {
        match self {
            Platform::Virt(v) => v.set_tier_memory(tier, bytes),
            Platform::Phys(p) => p.set_tier_memory(tier, bytes),
        }
    }

    /// Housekeeping hook, called about once per second (write-back
    /// flushes and similar platform-side periodic work).
    pub fn periodic(&mut self, now: SimTime) {
        match self {
            Platform::Virt(v) => v.periodic(now),
            Platform::Phys(p) => p.periodic(now),
        }
    }

    /// Collect per-host raw samples for one sampling interval.
    pub fn sample_hosts(
        &mut self,
        dt: SimDuration,
        web_load: TierLoad,
        db_load: TierLoad,
    ) -> Vec<HostSample> {
        let mut out = Vec::new();
        self.sample_hosts_into(dt, web_load, db_load, &mut out);
        out
    }

    /// [`Platform::sample_hosts`] into `out`, replacing its contents, so
    /// a caller that keeps the buffer samples without allocating.
    pub fn sample_hosts_into(
        &mut self,
        dt: SimDuration,
        web_load: TierLoad,
        db_load: TierLoad,
        out: &mut Vec<HostSample>,
    ) {
        match self {
            Platform::Virt(v) => v.sample_hosts_into(dt, web_load, db_load, out),
            Platform::Phys(p) => p.sample_hosts_into(dt, web_load, db_load, out),
        }
    }

    /// Apply or clear a platform-level fault. Returns the work tokens of
    /// any requests abandoned by the fault (a crashed tier's in-flight
    /// work) so the orchestrator can fail them. Application-level faults
    /// ([`FaultKind::TierErrors`]) are a no-op here — the workload layer
    /// handles them.
    pub fn apply_fault(&mut self, kind: &FaultKind, active: bool) -> Vec<(Tier, WorkToken)> {
        match self {
            Platform::Virt(v) => v.apply_fault(kind, active),
            Platform::Phys(p) => p.apply_fault(kind, active),
        }
    }

    /// Whether a tier's host/domain is currently up (not crash-injected).
    pub fn tier_up(&self, tier: Tier) -> bool {
        match self {
            Platform::Virt(v) => v.tier_up(tier),
            Platform::Phys(p) => p.tier_up(tier),
        }
    }

    /// Host labels in presentation order (front-end, back-end,
    /// hypervisor view if any).
    pub fn host_labels(&self) -> Vec<&'static str> {
        match self {
            Platform::Virt(_) => vec![
                VirtPlatform::WEB_HOST,
                VirtPlatform::DB_HOST,
                VirtPlatform::DOM0_HOST,
            ],
            Platform::Phys(_) => vec![PhysPlatform::WEB_HOST, PhysPlatform::DB_HOST],
        }
    }
}
