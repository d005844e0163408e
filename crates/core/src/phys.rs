//! The non-virtualized deployment (§4.2): the web/application tier and
//! the database tier on separate physical servers.
//!
//! The host OS runs the tier directly: CPU work drains against the full
//! 8-core package, disk I/O passes the host page cache (generous with
//! 32 GB of RAM: many reads hit, asynchronous writes gather in the
//! cache and flush on the ext3 5-second commit), and the NICs carry
//! client and inter-tier traffic over the LAN. The bursty journal
//! flushes are what give the paper's Figure 7 its higher variance
//! compared to the dom0-smoothed virtualized path.

use crate::platform::{HostSample, Tier, TierLoad};
use cloudchar_hw::memory::MIB;
use cloudchar_hw::{IoKind, IoRequest, PhysicalServer, ServerSpec, WorkQueue, WorkToken};
use cloudchar_monitor::{RawHostSample, Source};
use cloudchar_simcore::{round_u64, FaultKind, SimDuration, SimRng, SimTime};

/// Host-OS page-cache / journal behaviour.
#[derive(Debug, Clone, Copy)]
pub struct HostIoPolicy {
    /// Probability a read is served from the host page cache.
    pub read_cache_hit: f64,
    /// Interval between write-back flushes (ext3 commit).
    pub commit_interval: SimDuration,
    /// Journal overhead factor applied to flushed bytes.
    pub journal_factor: f64,
}

impl Default for HostIoPolicy {
    fn default() -> Self {
        HostIoPolicy {
            read_cache_hit: 0.32,
            commit_interval: SimDuration::from_secs(5),
            journal_factor: 1.30,
        }
    }
}

#[derive(Debug)]
struct TierHost {
    server: PhysicalServer,
    work: WorkQueue,
    /// Kernel-side cycles (net stack, block layer) owed before app work.
    kernel_cycles: f64,
    /// Write-back bytes awaiting the next commit.
    pending_writeback: u64,
    last_flush: SimTime,
    /// Fault injection: whether the machine is serving (crash fault).
    up: bool,
    /// Fault injection: CPU budget cap in percent of one core, the
    /// physical analog of a credit-scheduler cap (`None` = uncapped).
    cap_percent: Option<u32>,
    /// Completed tokens of one quantum, reused across ticks.
    done: Vec<WorkToken>,
}

impl TierHost {
    fn new(spec: ServerSpec) -> Self {
        let mut server = PhysicalServer::new(spec);
        // Host OS baseline (kernel, caches, daemons on a 32 GB box).
        server.memory.set_component("os", 480 * MIB);
        TierHost {
            server,
            work: WorkQueue::new(),
            kernel_cycles: 0.0,
            pending_writeback: 0,
            last_flush: SimTime::ZERO,
            up: true,
            cap_percent: None,
            done: Vec::new(),
        }
    }
}

/// The non-virtualized substrate.
#[derive(Debug)]
pub struct PhysPlatform {
    web: TierHost,
    db: TierHost,
    policy: HostIoPolicy,
    rng: SimRng,
    quantum: SimDuration,
    /// Fault injection: a co-scheduled CPU hog (fraction of one core per
    /// host), the physical analog of credit starvation.
    hog_core_util: f64,
}

impl PhysPlatform {
    /// Series label of the web/application physical machine.
    pub const WEB_HOST: &'static str = "web-pm";
    /// Series label of the MySQL physical machine.
    pub const DB_HOST: &'static str = "mysql-pm";

    /// Provision both servers.
    pub fn new(spec: ServerSpec, policy: HostIoPolicy, rng: SimRng) -> Self {
        PhysPlatform {
            web: TierHost::new(spec),
            db: TierHost::new(spec),
            policy,
            rng,
            quantum: SimDuration::from_millis(10),
            hog_core_util: 0.0,
        }
    }

    fn host_mut(&mut self, tier: Tier) -> &mut TierHost {
        match tier {
            Tier::Web => &mut self.web,
            Tier::Db => &mut self.db,
        }
    }

    /// Scheduling quantum (host OS tick).
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Submit application CPU work.
    pub fn submit_work(&mut self, tier: Tier, token: WorkToken, cycles: f64) {
        self.host_mut(tier).work.push(token, cycles);
    }

    /// Run one OS scheduling quantum on both hosts.
    pub fn tick(&mut self, dt: SimDuration, out: &mut Vec<(Tier, WorkToken)>) {
        let dt_s = dt.as_secs_f64();
        let hog = self.hog_core_util;
        for tier in [Tier::Web, Tier::Db] {
            let host = self.host_mut(tier);
            if !host.up {
                continue; // crashed machine: nothing runs until restart
            }
            let hz = host.server.spec().cpu.hz as f64;
            if hog > 0.0 {
                // The co-scheduled hog competes like kernel work.
                host.kernel_cycles += hog * hz * dt_s;
            }
            let mut budget = host.server.spec().cpu.capacity_cycles(dt_s);
            if let Some(cap) = host.cap_percent {
                budget = budget.min(f64::from(cap) / 100.0 * hz * dt_s);
            }
            // Kernel work (interrupt handlers, softirqs) preempts the app.
            let kernel_part = host.kernel_cycles.min(budget);
            host.kernel_cycles -= kernel_part;
            if kernel_part > 0.0 {
                host.server.cycles.add(round_u64(kernel_part));
            }
            let executed = host.work.drain(budget - kernel_part, &mut host.done);
            if executed > 0.0 {
                host.server.cycles.add(round_u64(executed));
                host.server.kernel.context_switches.add(
                    (executed / 5.0e6).ceil() as u64, // ~1 switch / 5M cycles
                );
                host.server.kernel.interrupts.add(2); // timer ticks
            }
            out.extend(host.done.drain(..).map(|t| (tier, t)));
        }
    }

    /// Issue disk I/O through the host page cache.
    pub fn disk_io(&mut self, now: SimTime, tier: Tier, req: IoRequest) -> SimTime {
        let hit = self.rng.chance(self.policy.read_cache_hit);
        let host = self.host_mut(tier);
        host.kernel_cycles += 30_000.0 + 0.15 * req.bytes as f64;
        host.server.memory.grow_page_cache(req.bytes / 6);
        host.server.kernel.page_faults.add(req.bytes / 4096 + 1);
        match req.kind {
            IoKind::Read => {
                if hit {
                    // Page-cache hit: a copy, essentially immediate.
                    now + SimDuration::from_micros(30)
                } else {
                    host.server.disk.submit(now, req)
                }
            }
            IoKind::Write => {
                if req.sequential && req.bytes <= 4096 {
                    // Synchronous journal record (fsync'd redo log).
                    host.server.disk.submit(now, req)
                } else {
                    // Write-back: gathers until the next commit.
                    host.pending_writeback += req.bytes;
                    now + SimDuration::from_micros(40)
                }
            }
        }
    }

    /// Kernel network-stack cycles for a transfer (per packet + copy).
    fn net_kernel_cycles(bytes: u64) -> f64 {
        9_000.0 * bytes.div_ceil(1448).max(1) as f64 + 0.5 * bytes as f64
    }

    /// Client request arriving at the web server's NIC.
    pub fn net_client_to_web(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.web.server.nic.receive(bytes);
        self.web
            .server
            .kernel
            .interrupts
            .add(bytes.div_ceil(1448).max(1));
        self.web.kernel_cycles += Self::net_kernel_cycles(bytes);
        now + self.web.server.spec().nic.latency
    }

    /// Response leaving the web server's NIC.
    pub fn net_web_to_client(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.web.server.kernel.interrupts.add(1);
        self.web.kernel_cycles += Self::net_kernel_cycles(bytes);
        self.web.server.nic.transmit(now, bytes)
    }

    /// Web ↔ DB transfer across the LAN (both NICs involved).
    pub fn net_web_db(&mut self, now: SimTime, to_db: bool, bytes: u64) -> SimTime {
        let (src, dst) = if to_db {
            (&mut self.web, &mut self.db)
        } else {
            (&mut self.db, &mut self.web)
        };
        let arrival = src.server.nic.transmit(now, bytes);
        src.kernel_cycles += Self::net_kernel_cycles(bytes);
        dst.server.nic.receive(bytes);
        dst.server
            .kernel
            .interrupts
            .add(bytes.div_ceil(1448).max(1));
        dst.kernel_cycles += Self::net_kernel_cycles(bytes);
        arrival
    }

    /// Update a tier's application resident set.
    pub fn set_tier_memory(&mut self, tier: Tier, bytes: u64) {
        self.host_mut(tier)
            .server
            .memory
            .set_component("app", bytes);
    }

    /// Periodic host work: ext3 commit flushes gathered write-back in a
    /// burst, giving the spiky non-virtualized write pattern.
    pub fn periodic(&mut self, now: SimTime) {
        let (interval, journal) = (self.policy.commit_interval, self.policy.journal_factor);
        for tier in [Tier::Web, Tier::Db] {
            let host = self.host_mut(tier);
            if now.duration_since(host.last_flush) >= interval && host.pending_writeback > 0 {
                let bytes = (host.pending_writeback as f64 * journal) as u64;
                host.pending_writeback = 0;
                host.last_flush = now;
                host.server.disk.submit(
                    now,
                    IoRequest {
                        kind: IoKind::Write,
                        bytes,
                        sequential: true,
                    },
                );
            }
        }
    }

    /// Whether a tier's machine is currently up (not crash-injected).
    pub fn tier_up(&self, tier: Tier) -> bool {
        match tier {
            Tier::Web => self.web.up,
            Tier::Db => self.db.up,
        }
    }

    /// Apply (`active`) or clear a fault, mapped to its physical analog:
    /// a "domain crash" takes the whole machine down, a "VCPU cap" limits
    /// the OS scheduler's CPU budget, "credit starvation" becomes a
    /// co-scheduled CPU hog, and the hardware faults hit both servers'
    /// devices. Returns the work tokens a crash dropped.
    pub fn apply_fault(&mut self, kind: &FaultKind, active: bool) -> Vec<(Tier, WorkToken)> {
        match *kind {
            FaultKind::DomainCrash { tier, boot_delay_s } => {
                let t = Tier::from(tier);
                let host = self.host_mut(t);
                if active {
                    host.up = false;
                    host.kernel_cycles = 0.0;
                    return host.work.clear().into_iter().map(|tok| (t, tok)).collect();
                }
                if !host.up {
                    host.up = true;
                    // Boot work (kernel init, service start-up) preempts
                    // application work until it drains.
                    let hz = host.server.spec().cpu.hz as f64;
                    host.kernel_cycles += boot_delay_s * hz;
                }
            }
            FaultKind::VcpuCap { tier, cap_percent } => {
                self.host_mut(Tier::from(tier)).cap_percent =
                    if active { Some(cap_percent) } else { None };
            }
            FaultKind::CreditStarve { util } => {
                self.hog_core_util = if active { util } else { 0.0 };
            }
            FaultKind::DiskSlow { factor } => {
                let f = if active { factor } else { 1.0 };
                for tier in [Tier::Web, Tier::Db] {
                    self.host_mut(tier).server.disk.set_fault_factor(f);
                }
            }
            FaultKind::NicDegrade {
                loss,
                bandwidth_factor,
            } => {
                let (l, b) = if active {
                    (loss, bandwidth_factor)
                } else {
                    (0.0, 1.0)
                };
                for tier in [Tier::Web, Tier::Db] {
                    self.host_mut(tier).server.nic.set_fault(l, b);
                }
            }
            FaultKind::MemPressure { bytes } => {
                let amount = if active { bytes } else { 0 };
                for tier in [Tier::Web, Tier::Db] {
                    self.host_mut(tier)
                        .server
                        .memory
                        .set_component("fault-pressure", amount);
                }
            }
            // Application-level errors are synthesized by the workload
            // layer; nothing changes on the platform.
            FaultKind::TierErrors { .. } => {}
        }
        Vec::new()
    }

    fn sample_one(&mut self, tier: Tier, dt: SimDuration, load: TierLoad) -> RawHostSample {
        let dt_s = dt.as_secs_f64();
        let host = self.host_mut(tier);
        let spec = host.server.spec();
        // Exercises the hw.memory.utilization_range audit check on the
        // live sampling path.
        let _ = host.server.memory.utilization();
        RawHostSample {
            dt_s,
            cpu_cycles: host.server.cycles.take_delta() as f64,
            cpu_capacity_cycles: spec.cpu.capacity_cycles(dt_s),
            user_frac: if tier == Tier::Web { 0.70 } else { 0.55 },
            steal_frac: 0.0,
            iowait_frac: (load.blocked * 0.01).min(0.3),
            mem_total_kb: spec.memory.total as f64 / 1024.0,
            mem_used_kb: host.server.memory.used() as f64 / 1024.0,
            mem_cached_kb: host.server.memory.page_cache() as f64 / 1024.0,
            mem_dirty_kb: host.pending_writeback as f64 / 1024.0,
            disk_read_bytes: host.server.disk.bytes_read().take_delta() as f64,
            disk_write_bytes: host.server.disk.bytes_written().take_delta() as f64,
            disk_reads: host.server.disk.reads().take_delta() as f64,
            disk_writes: host.server.disk.writes().take_delta() as f64,
            disk_busy_s: host.server.disk.busy_time().take_delta() as f64 / 1e9,
            net_rx_bytes: host.server.nic.rx_bytes().take_delta() as f64,
            net_tx_bytes: host.server.nic.tx_bytes().take_delta() as f64,
            net_rx_pkts: host.server.nic.rx_packets().take_delta() as f64,
            net_tx_pkts: host.server.nic.tx_packets().take_delta() as f64,
            cswch: host.server.kernel.context_switches.take_delta() as f64,
            intr: host.server.kernel.interrupts.take_delta() as f64,
            forks: load.forks,
            page_faults: host.server.kernel.page_faults.take_delta() as f64,
            runq: load.runq,
            nproc: load.nproc,
            blocked: load.blocked,
            tcp_active: load.tcp_active,
            tcp_sockets: load.tcp_sockets,
            cores: spec.cpu.cores,
            core_hz: spec.cpu.hz as f64,
        }
    }

    /// Collect both host samples. Physical machines report through the
    /// host-OS sysstat plane and carry perf directly.
    pub fn sample_hosts_into(
        &mut self,
        dt: SimDuration,
        web_load: TierLoad,
        db_load: TierLoad,
        out: &mut Vec<HostSample>,
    ) {
        let web = self.sample_one(Tier::Web, dt, web_load);
        let db = self.sample_one(Tier::Db, dt, db_load);
        out.clear();
        out.extend([
            HostSample {
                host: Self::WEB_HOST,
                raw: web,
                sysstat_source: Source::HypervisorSysstat,
                has_perf: true,
            },
            HostSample {
                host: Self::DB_HOST,
                raw: db,
                sysstat_source: Source::HypervisorSysstat,
                has_perf: true,
            },
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> PhysPlatform {
        PhysPlatform::new(
            ServerSpec::hp_proliant(),
            HostIoPolicy::default(),
            SimRng::new(1),
        )
    }

    #[test]
    fn work_completes_against_full_package() {
        let mut p = platform();
        // 8 cores × 2.8 GHz × 10 ms = 224M cycles per quantum.
        p.submit_work(Tier::Web, WorkToken(1), 200.0e6);
        let mut out = Vec::new();
        p.tick(SimDuration::from_millis(10), &mut out);
        assert_eq!(out, vec![(Tier::Web, WorkToken(1))]);
    }

    #[test]
    fn writeback_gathers_then_bursts() {
        let mut p = platform();
        for _ in 0..10 {
            p.disk_io(
                SimTime::from_secs(1),
                Tier::Web,
                IoRequest {
                    kind: IoKind::Write,
                    bytes: 50_000,
                    sequential: false,
                },
            );
        }
        // Nothing on the physical disk yet.
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        assert_eq!(s[0].raw.disk_write_bytes, 0.0);
        assert!(s[0].raw.mem_dirty_kb > 0.0);
        // Commit fires after the interval: one large sequential write.
        p.periodic(SimTime::from_secs(6));
        let mut s2 = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s2,
        );
        assert!(
            s2[0].raw.disk_write_bytes >= 500_000.0,
            "{}",
            s2[0].raw.disk_write_bytes
        );
    }

    #[test]
    fn sync_journal_writes_go_direct() {
        let mut p = platform();
        p.disk_io(
            SimTime::ZERO,
            Tier::Db,
            IoRequest {
                kind: IoKind::Write,
                bytes: 512,
                sequential: true,
            },
        );
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        assert_eq!(s[1].raw.disk_write_bytes, 512.0);
    }

    #[test]
    fn reads_sometimes_hit_cache() {
        let mut p = platform();
        let mut direct = 0;
        for i in 0..200 {
            let done = p.disk_io(
                SimTime::from_secs(i),
                Tier::Db,
                IoRequest {
                    kind: IoKind::Read,
                    bytes: 16_384,
                    sequential: false,
                },
            );
            if done.duration_since(SimTime::from_secs(i)) > SimDuration::from_micros(100) {
                direct += 1;
            }
        }
        // ~55% should go to disk with a 0.45 hit rate.
        assert!((70..=150).contains(&direct), "direct {direct}");
    }

    #[test]
    fn tier_traffic_lands_on_the_right_nics() {
        let mut p = platform();
        p.net_client_to_web(SimTime::ZERO, 1_000);
        p.net_web_db(SimTime::ZERO, true, 300);
        p.net_web_db(SimTime::ZERO, false, 900);
        p.net_web_to_client(SimTime::ZERO, 20_000);
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        let web = &s[0].raw;
        let db = &s[1].raw;
        assert_eq!(web.net_rx_bytes, 1_900.0); // client + db response
        assert_eq!(web.net_tx_bytes, 20_300.0); // response + query
        assert_eq!(db.net_rx_bytes, 300.0);
        assert_eq!(db.net_tx_bytes, 900.0);
    }

    #[test]
    fn crash_fault_stops_the_machine_until_restart() {
        use cloudchar_simcore::FaultTier;
        let mut p = platform();
        p.submit_work(Tier::Web, WorkToken(3), 1.0e12);
        let kind = FaultKind::DomainCrash {
            tier: FaultTier::Web,
            boot_delay_s: 0.5,
        };
        let dropped = p.apply_fault(&kind, true);
        assert_eq!(dropped, vec![(Tier::Web, WorkToken(3))]);
        assert!(!p.tier_up(Tier::Web));
        assert!(p.tier_up(Tier::Db));
        p.submit_work(Tier::Web, WorkToken(4), 1_000.0);
        let mut out = Vec::new();
        p.tick(SimDuration::from_millis(10), &mut out);
        assert!(out.is_empty(), "down host must not run work");
        // Restart: the boot cycles (0.5 s × 2.8 GHz = 1.4e9) preempt the
        // app, so the pending token needs several quanta to complete.
        p.apply_fault(&kind, false);
        assert!(p.tier_up(Tier::Web));
        let mut quanta = 0;
        while out.is_empty() {
            p.tick(SimDuration::from_millis(10), &mut out);
            quanta += 1;
            assert!(quanta < 100, "boot work never drained");
        }
        assert!(quanta > 1, "boot delay must cost at least one quantum");
        assert_eq!(out, vec![(Tier::Web, WorkToken(4))]);
    }

    #[test]
    fn cap_fault_limits_cpu_budget() {
        use cloudchar_simcore::FaultTier;
        let mut p = platform();
        p.apply_fault(
            &FaultKind::VcpuCap {
                tier: FaultTier::Web,
                cap_percent: 10,
            },
            true,
        );
        // 10% of one 2.8 GHz core over 10 ms = 2.8M cycles; 200M cycles
        // of work cannot finish in one quantum anymore.
        p.submit_work(Tier::Web, WorkToken(1), 200.0e6);
        let mut out = Vec::new();
        p.tick(SimDuration::from_millis(10), &mut out);
        assert!(out.is_empty(), "capped host finished 200M cycles in 2.8M");
        p.apply_fault(
            &FaultKind::VcpuCap {
                tier: FaultTier::Web,
                cap_percent: 10,
            },
            false,
        );
        p.tick(SimDuration::from_millis(10), &mut out);
        assert_eq!(out, vec![(Tier::Web, WorkToken(1))]);
    }

    #[test]
    fn hog_fault_steals_cycles_from_the_app() {
        let mut p = platform();
        p.apply_fault(&FaultKind::CreditStarve { util: 1.0 }, true);
        let mut out = Vec::new();
        p.tick(SimDuration::from_millis(10), &mut out);
        let hogged = p.web.server.cycles.total();
        // One full core of hog cycles burned with no app work queued.
        assert!(hogged as f64 >= 2.8e9 * 0.01 * 0.99, "hog {hogged}");
        p.apply_fault(&FaultKind::CreditStarve { util: 1.0 }, false);
        let before = p.web.server.cycles.total();
        p.tick(SimDuration::from_millis(10), &mut out);
        assert_eq!(p.web.server.cycles.total(), before, "hog must clear");
    }

    #[test]
    fn hosts_report_via_host_sysstat_with_perf() {
        let mut p = platform();
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        assert_eq!(s.len(), 2);
        for h in &s {
            assert_eq!(h.sysstat_source, Source::HypervisorSysstat);
            assert!(h.has_perf);
        }
    }
}
