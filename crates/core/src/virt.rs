//! The virtualized deployment (§4.1): one Xen host carrying the
//! web/application VM and the MySQL VM, with dom0 as the driver domain.
//!
//! Client traffic enters through the physical NIC and is bridged to the
//! web VM; web↔DB traffic crosses the dom0 software bridge without
//! touching the wire; all disk I/O funnels through dom0's backend
//! drivers. The monitors therefore see three hosts: the two guest
//! sysstat views and the dom0 view (sysstat + the modified perf), as in
//! the paper.

use crate::platform::{HostSample, Tier, TierLoad};
use cloudchar_hw::memory::MIB;
use cloudchar_hw::{IoRequest, ServerSpec, WorkToken};
use cloudchar_monitor::{RawHostSample, Source};
use cloudchar_simcore::{FaultKind, SimDuration, SimRng, SimTime};
use cloudchar_xen::{DomId, DomainConfig, Hypervisor, OverheadModel};

/// Options for provisioning the virtualized platform.
#[derive(Debug, Clone, Copy)]
pub struct VirtOptions {
    /// Virtualization cost model.
    pub overhead: OverheadModel,
    /// Credit-scheduler cap per guest VM (percent of one CPU).
    pub vm_cap_percent: Option<u32>,
    /// Colocated "noisy neighbour" VMs sharing the host (the paper's
    /// testbed hosts up to ten VMs per server; the base experiment uses
    /// two).
    pub background_vms: u32,
    /// CPU demand of each background VM as a fraction of one VCPU.
    pub background_util: f64,
    /// Disk I/O issued by each background VM (operations per second of
    /// 48 KB random I/O through dom0) — the interference channel that
    /// actually hurts a disk-bound web workload.
    pub background_iops: f64,
}

impl Default for VirtOptions {
    fn default() -> Self {
        VirtOptions {
            overhead: OverheadModel::default(),
            vm_cap_percent: None,
            background_vms: 0,
            background_util: 0.0,
            background_iops: 0.0,
        }
    }
}

/// The virtualized substrate.
#[derive(Debug)]
pub struct VirtPlatform {
    hv: Hypervisor,
    web_dom: DomId,
    db_dom: DomId,
    background: Vec<DomId>,
    background_util: f64,
    background_iops: f64,
    /// Configured credit-scheduler cap, restored when a cap fault clears.
    base_cap_percent: Option<u32>,
    rng: SimRng,
    /// Completions buffer reused across ticks.
    scratch: Vec<cloudchar_xen::Completion>,
}

impl VirtPlatform {
    /// Series label of the web/application VM.
    pub const WEB_HOST: &'static str = "web-vm";
    /// Series label of the MySQL VM.
    pub const DB_HOST: &'static str = "mysql-vm";
    /// Series label of the hypervisor (dom0) view.
    pub const DOM0_HOST: &'static str = "dom0";

    /// Boot the host and create the guest VMs.
    pub fn new(spec: ServerSpec, options: VirtOptions, rng: SimRng) -> Self {
        let platform_rng = rng.derive("virt-platform");
        let mut hv = Hypervisor::new(spec, 2 * cloudchar_hw::GIB, options.overhead, rng);
        let cap = |name: &str| DomainConfig {
            cap_percent: options.vm_cap_percent,
            ..DomainConfig::paper_vm(name)
        };
        let web_dom = hv.create_domain(cap("web-app"));
        let db_dom = hv.create_domain(cap("mysql"));
        // Guest OS baseline resident sets (Linux 2.6.18 + daemons).
        hv.domain_mut(web_dom).memory.set_component("os", 96 * MIB);
        hv.domain_mut(db_dom).memory.set_component("os", 60 * MIB);
        let background = (0..options.background_vms)
            .map(|i| {
                let dom = hv.create_domain(DomainConfig::paper_vm(&format!("bg-{i}")));
                hv.domain_mut(dom).memory.set_component("os", 96 * MIB);
                dom
            })
            .collect();
        VirtPlatform {
            hv,
            web_dom,
            db_dom,
            background,
            background_util: options.background_util.clamp(0.0, 1.0),
            background_iops: options.background_iops.max(0.0),
            base_cap_percent: options.vm_cap_percent,
            rng: platform_rng,
            scratch: Vec::new(),
        }
    }

    fn dom(&self, tier: Tier) -> DomId {
        match tier {
            Tier::Web => self.web_dom,
            Tier::Db => self.db_dom,
        }
    }

    /// Scheduling quantum (the hypervisor's tick).
    pub fn quantum(&self) -> SimDuration {
        self.hv.quantum()
    }

    /// Submit guest application work.
    pub fn submit_work(&mut self, tier: Tier, token: WorkToken, cycles: f64) {
        self.hv.submit_guest_work(self.dom(tier), token, cycles);
    }

    /// Run one credit-scheduler quantum.
    pub fn tick(&mut self, now: SimTime, dt: SimDuration, out: &mut Vec<(Tier, WorkToken)>) {
        // Background VMs demand CPU and disk every quantum (noisy
        // neighbours). Disk pressure funnels through dom0 and is what
        // actually degrades the disk-bound web workload.
        if !self.background.is_empty() {
            let hz = self.hv.host.spec().cpu.hz as f64;
            let cpu_demand = self.background_util * hz * dt.as_secs_f64();
            let io_prob = self.background_iops * dt.as_secs_f64();
            for i in 0..self.background.len() {
                let dom = self.background[i];
                if self.background_util > 0.0 {
                    self.hv.domain_mut(dom).add_overhead_cycles(cpu_demand);
                }
                if io_prob > 0.0 && self.rng.chance(io_prob) {
                    let write = self.rng.chance(0.5);
                    self.hv.guest_disk_io(
                        now,
                        dom,
                        IoRequest {
                            kind: if write {
                                cloudchar_hw::IoKind::Write
                            } else {
                                cloudchar_hw::IoKind::Read
                            },
                            bytes: 48 * 1024,
                            sequential: false,
                        },
                    );
                }
            }
        }
        self.scratch.clear();
        self.hv.quantum_tick(dt, &mut self.scratch);
        for c in &self.scratch {
            let tier = if c.dom == self.web_dom {
                Tier::Web
            } else if c.dom == self.db_dom {
                Tier::Db
            } else {
                continue; // dom0 has no tokened app work
            };
            out.push((tier, c.token));
        }
    }

    /// Guest disk I/O through the split driver.
    pub fn disk_io(&mut self, now: SimTime, tier: Tier, req: IoRequest) -> SimTime {
        let dom = self.dom(tier);
        // The guest's own page cache retains what it reads/writes.
        let d = self.hv.domain_mut(dom);
        // Guest page cache: session files and DB pages are rewritten in
        // place, so only a fraction of traffic is *new* cached data.
        d.memory.grow_page_cache(req.bytes / 6);
        d.kernel.page_faults.add(req.bytes / 4096 + 1);
        self.hv.guest_disk_io(now, dom, req)
    }

    /// Client request entering through the physical NIC.
    pub fn net_client_to_web(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let t = self.hv.guest_net_ingress(now, self.web_dom, bytes);
        self.hv.domain_mut(self.web_dom).kernel.syscalls.add(4);
        t
    }

    /// Response leaving through the physical NIC.
    pub fn net_web_to_client(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.hv.guest_net_egress(now, self.web_dom, bytes)
    }

    /// Inter-VM transfer across the dom0 bridge.
    pub fn net_web_db(&mut self, now: SimTime, to_db: bool, bytes: u64) -> SimTime {
        let (from, to) = if to_db {
            (self.web_dom, self.db_dom)
        } else {
            (self.db_dom, self.web_dom)
        };
        self.hv.intervm_transfer(now, from, to, bytes)
    }

    /// Update a tier's application resident set inside its VM.
    pub fn set_tier_memory(&mut self, tier: Tier, bytes: u64) {
        let dom = self.dom(tier);
        self.hv.domain_mut(dom).memory.set_component("app", bytes);
    }

    /// Dom0 write-back happens continuously through the backend path;
    /// nothing extra to do per second.
    pub fn periodic(&mut self, _now: SimTime) {}

    fn guest_sample(&mut self, tier: Tier, dt: SimDuration, load: TierLoad) -> RawHostSample {
        let dt_s = dt.as_secs_f64();
        let dom_id = self.dom(tier);
        let hz = self.hv.host.spec().cpu.hz as f64;
        let d = self.hv.domain_mut(dom_id);
        let vcpus = f64::from(d.config.vcpus);
        let steal_s = d.steal_ns.take_delta() as f64 / 1e9;
        // Exercises the hw.memory.utilization_range audit check on the
        // live sampling path.
        let _ = d.memory.utilization();
        RawHostSample {
            dt_s,
            cpu_cycles: d.virt_cycles.take_delta() as f64,
            // The guest believes it owns its VCPUs at full clock.
            cpu_capacity_cycles: vcpus * hz * dt_s,
            user_frac: if tier == Tier::Web { 0.72 } else { 0.58 },
            steal_frac: (steal_s / (vcpus * dt_s)).min(1.0),
            iowait_frac: (load.blocked * 0.01).min(0.3),
            mem_total_kb: d.memory.spec().total as f64 / 1024.0,
            mem_used_kb: d.memory.used() as f64 / 1024.0,
            mem_cached_kb: d.memory.page_cache() as f64 / 1024.0,
            mem_dirty_kb: d.memory.page_cache() as f64 / 1024.0 * 0.04,
            disk_read_bytes: d.vbd.bytes_read.take_delta() as f64,
            disk_write_bytes: d.vbd.bytes_written.take_delta() as f64,
            disk_reads: d.vbd.reads.take_delta() as f64,
            disk_writes: d.vbd.writes.take_delta() as f64,
            // Virtual device "busy" time is a fiction; approximate by
            // request count × typical virtual service time.
            disk_busy_s: 0.0,
            net_rx_bytes: d.vif.rx_bytes.take_delta() as f64,
            net_tx_bytes: d.vif.tx_bytes.take_delta() as f64,
            net_rx_pkts: d.vif.rx_packets.take_delta() as f64,
            net_tx_pkts: d.vif.tx_packets.take_delta() as f64,
            cswch: d.kernel.context_switches.take_delta() as f64,
            intr: d.kernel.interrupts.take_delta() as f64,
            forks: load.forks,
            page_faults: d.kernel.page_faults.take_delta() as f64,
            runq: load.runq,
            nproc: load.nproc,
            blocked: load.blocked,
            tcp_active: load.tcp_active,
            tcp_sockets: load.tcp_sockets,
            cores: d.config.vcpus,
            core_hz: hz,
        }
    }

    /// Collect the three host samples.
    pub fn sample_hosts_into(
        &mut self,
        dt: SimDuration,
        web_load: TierLoad,
        db_load: TierLoad,
        out: &mut Vec<HostSample>,
    ) {
        let dt_s = dt.as_secs_f64();
        let web = self.guest_sample(Tier::Web, dt, web_load);
        let db = self.guest_sample(Tier::Db, dt, db_load);

        // Dom0 view: its own cycles + hypervisor context, physical
        // devices, dom0 memory (base + backend page cache).
        let hz = self.hv.host.spec().cpu.hz as f64;
        let cores = self.hv.host.spec().cpu.cores;
        let hv_cycles = self.hv.hv_cycles().take_delta() as f64;
        let bridge = self.hv.bridge_bytes().take_delta() as f64;
        let host = &mut self.hv.host;
        let disk_read = host.disk.bytes_read().take_delta() as f64;
        let disk_write = host.disk.bytes_written().take_delta() as f64;
        let disk_reads = host.disk.reads().take_delta() as f64;
        let disk_writes = host.disk.writes().take_delta() as f64;
        let disk_busy = host.disk.busy_time().take_delta() as f64 / 1e9;
        let net_rx = host.nic.rx_bytes().take_delta() as f64;
        let net_tx = host.nic.tx_bytes().take_delta() as f64;
        let net_rxp = host.nic.rx_packets().take_delta() as f64;
        let net_txp = host.nic.tx_packets().take_delta() as f64;
        let dom0 = self.hv.domain_mut(DomId::DOM0);
        let _ = dom0.memory.utilization();
        let dom0_raw = RawHostSample {
            dt_s,
            cpu_cycles: dom0.virt_cycles.take_delta() as f64 + hv_cycles,
            cpu_capacity_cycles: f64::from(cores) * hz * dt_s,
            user_frac: 0.15, // dom0 work is kernel/backend dominated
            steal_frac: 0.0,
            iowait_frac: (disk_busy / dt_s * 0.3).min(0.5),
            mem_total_kb: dom0.memory.spec().total as f64 / 1024.0,
            mem_used_kb: dom0.memory.used() as f64 / 1024.0,
            mem_cached_kb: dom0.memory.page_cache() as f64 / 1024.0,
            mem_dirty_kb: dom0.memory.page_cache() as f64 / 1024.0 * 0.03,
            disk_read_bytes: disk_read,
            disk_write_bytes: disk_write,
            disk_reads,
            disk_writes,
            disk_busy_s: disk_busy,
            // Dom0's sar sees bridged inter-VM traffic on its vif
            // backends in both directions.
            net_rx_bytes: net_rx + bridge,
            net_tx_bytes: net_tx + bridge,
            net_rx_pkts: net_rxp + bridge / 1448.0,
            net_tx_pkts: net_txp + bridge / 1448.0,
            cswch: dom0.kernel.context_switches.take_delta() as f64,
            intr: dom0.kernel.interrupts.take_delta() as f64,
            forks: 0.5,
            page_faults: 200.0,
            runq: 1.0,
            nproc: 95.0,
            blocked: (disk_busy / dt_s * 2.0).min(4.0),
            tcp_active: 0.0,
            tcp_sockets: 12.0,
            cores,
            core_hz: hz,
        };

        out.clear();
        out.extend([
            HostSample {
                host: Self::WEB_HOST,
                raw: web,
                sysstat_source: Source::VmSysstat,
                has_perf: true, // the modified perf attributes per-domain
            },
            HostSample {
                host: Self::DB_HOST,
                raw: db,
                sysstat_source: Source::VmSysstat,
                has_perf: true,
            },
            HostSample {
                host: Self::DOM0_HOST,
                raw: dom0_raw,
                sysstat_source: Source::HypervisorSysstat,
                has_perf: true,
            },
        ]);
    }

    /// Whether a tier's VM is currently up (not crash-injected).
    pub fn tier_up(&self, tier: Tier) -> bool {
        !self.hv.is_down(self.dom(tier))
    }

    /// Apply (`active`) or clear a platform-level fault. A domain crash
    /// returns the tokens of the in-flight work it dropped so the
    /// orchestrator can fail those requests; every other fault returns
    /// nothing.
    pub fn apply_fault(&mut self, kind: &FaultKind, active: bool) -> Vec<(Tier, WorkToken)> {
        match *kind {
            FaultKind::DomainCrash { tier, boot_delay_s } => {
                let t = Tier::from(tier);
                let dom = self.dom(t);
                if active {
                    return self
                        .hv
                        .crash_domain(dom)
                        .into_iter()
                        .map(|tok| (t, tok))
                        .collect();
                }
                self.hv.restart_domain(dom, boot_delay_s);
            }
            FaultKind::VcpuCap { tier, cap_percent } => {
                let dom = self.dom(Tier::from(tier));
                let cap = if active {
                    Some(cap_percent)
                } else {
                    self.base_cap_percent
                };
                self.hv.set_domain_cap(dom, cap);
            }
            FaultKind::CreditStarve { util } => {
                self.hv.set_starvation(if active { util } else { 0.0 });
            }
            FaultKind::DiskSlow { factor } => {
                self.hv
                    .host
                    .disk
                    .set_fault_factor(if active { factor } else { 1.0 });
            }
            FaultKind::NicDegrade {
                loss,
                bandwidth_factor,
            } => {
                if active {
                    self.hv.host.nic.set_fault(loss, bandwidth_factor);
                } else {
                    self.hv.host.nic.set_fault(0.0, 1.0);
                }
            }
            FaultKind::MemPressure { bytes } => {
                let amount = if active { bytes } else { 0 };
                for dom in [self.web_dom, self.db_dom] {
                    self.hv
                        .domain_mut(dom)
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

    /// Direct hypervisor access for tests and ablation benches.
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudchar_hw::IoKind;

    fn platform() -> VirtPlatform {
        VirtPlatform::new(
            ServerSpec::hp_proliant(),
            VirtOptions::default(),
            SimRng::new(1),
        )
    }

    #[test]
    fn boot_creates_two_guests() {
        let p = platform();
        assert_eq!(p.hypervisor().domain_ids().len(), 3);
        assert!(p.hypervisor().domain(p.web_dom).memory.used() > 0);
    }

    #[test]
    fn work_round_trip() {
        let mut p = platform();
        p.submit_work(Tier::Web, WorkToken(9), 1_000_000.0);
        p.submit_work(Tier::Db, WorkToken(10), 500_000.0);
        let mut out = Vec::new();
        p.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&(Tier::Web, WorkToken(9))));
        assert!(out.contains(&(Tier::Db, WorkToken(10))));
    }

    #[test]
    fn sampling_resets_deltas() {
        let mut p = platform();
        p.net_client_to_web(SimTime::ZERO, 10_000);
        let mut s1 = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s1,
        );
        let web1 = &s1[0];
        assert_eq!(web1.raw.net_rx_bytes, 10_000.0);
        let mut s2 = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s2,
        );
        assert_eq!(s2[0].raw.net_rx_bytes, 0.0, "delta must reset");
    }

    #[test]
    fn dom0_sees_amplified_disk() {
        let mut p = platform();
        p.disk_io(
            SimTime::ZERO,
            Tier::Db,
            IoRequest {
                kind: IoKind::Write,
                bytes: 100_000,
                sequential: false,
            },
        );
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        let db = &s[1];
        let dom0 = &s[2];
        assert_eq!(db.raw.disk_write_bytes, 100_000.0);
        assert!(dom0.raw.disk_write_bytes > 100_000.0, "amplification");
        assert_eq!(dom0.sysstat_source, Source::HypervisorSysstat);
    }

    #[test]
    fn intervm_stays_off_the_wire() {
        let mut p = platform();
        p.net_web_db(SimTime::ZERO, true, 5_000);
        let mut s = Vec::new();
        p.sample_hosts_into(
            SimDuration::from_secs(2),
            TierLoad::default(),
            TierLoad::default(),
            &mut s,
        );
        assert_eq!(s[0].raw.net_tx_bytes, 5_000.0); // web vif tx
        assert_eq!(s[1].raw.net_rx_bytes, 5_000.0); // db vif rx
                                                    // The physical NIC is untouched, but dom0's sar sees the
                                                    // bridged bytes on its vif backends in both directions.
        assert_eq!(s[2].raw.net_rx_bytes, 5_000.0);
        assert_eq!(s[2].raw.net_tx_bytes, 5_000.0);
    }

    #[test]
    fn background_vms_consume_host_cycles() {
        let mut with_bg = VirtPlatform::new(
            ServerSpec::hp_proliant(),
            VirtOptions {
                background_vms: 4,
                background_util: 0.8,
                ..VirtOptions::default()
            },
            SimRng::new(1),
        );
        let mut out = Vec::new();
        for i in 0..100 {
            with_bg.tick(
                SimTime::from_millis(i * 10),
                SimDuration::from_millis(10),
                &mut out,
            );
        }
        assert!(out.is_empty(), "background work is untokened");
        // The host executed roughly 4 × 0.8 VCPU of background demand.
        let host_cycles = with_bg.hypervisor().host.cycles.total() as f64;
        let expect = 4.0 * 0.8 * 2.8e9 * 1.0;
        assert!(
            host_cycles > expect * 0.8,
            "host {host_cycles} expect ≥ {expect}"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(VirtPlatform::WEB_HOST, "web-vm");
        assert_eq!(VirtPlatform::DB_HOST, "mysql-vm");
        assert_eq!(VirtPlatform::DOM0_HOST, "dom0");
    }

    #[test]
    fn crash_fault_drops_in_flight_work_and_restores() {
        use cloudchar_simcore::FaultTier;
        let mut p = platform();
        p.submit_work(Tier::Db, WorkToken(7), 1.0e12);
        let kind = FaultKind::DomainCrash {
            tier: FaultTier::Db,
            boot_delay_s: 1.0,
        };
        let dropped = p.apply_fault(&kind, true);
        assert_eq!(dropped, vec![(Tier::Db, WorkToken(7))]);
        assert!(!p.tier_up(Tier::Db));
        assert!(p.tier_up(Tier::Web));
        // While down, submitted work never completes.
        p.submit_work(Tier::Db, WorkToken(8), 1_000.0);
        let mut out = Vec::new();
        p.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut out);
        assert!(out.is_empty());
        // Restart pays the boot delay, then the domain serves again.
        assert!(p.apply_fault(&kind, false).is_empty());
        assert!(p.tier_up(Tier::Db));
    }

    #[test]
    fn cap_fault_restores_configured_cap() {
        use cloudchar_simcore::FaultTier;
        let mut p = VirtPlatform::new(
            ServerSpec::hp_proliant(),
            VirtOptions {
                vm_cap_percent: Some(80),
                ..VirtOptions::default()
            },
            SimRng::new(1),
        );
        let kind = FaultKind::VcpuCap {
            tier: FaultTier::Web,
            cap_percent: 25,
        };
        p.apply_fault(&kind, true);
        // Re-setting the same cap is a no-op probe returning the current value.
        assert_eq!(p.hv.set_domain_cap(p.web_dom, Some(25)), Some(25));
        p.apply_fault(&kind, false);
        assert_eq!(p.hv.set_domain_cap(p.web_dom, Some(80)), Some(80));
    }

    #[test]
    fn hardware_faults_toggle_and_clear() {
        let mut p = platform();
        p.apply_fault(&FaultKind::DiskSlow { factor: 4.0 }, true);
        assert_eq!(p.hv.host.disk.fault_factor(), 4.0);
        p.apply_fault(&FaultKind::DiskSlow { factor: 4.0 }, false);
        assert_eq!(p.hv.host.disk.fault_factor(), 1.0);
        let nic = FaultKind::NicDegrade {
            loss: 0.5,
            bandwidth_factor: 0.5,
        };
        p.apply_fault(&nic, true);
        assert_eq!(p.hv.host.nic.fault_factor(), 4.0);
        p.apply_fault(&nic, false);
        assert_eq!(p.hv.host.nic.fault_factor(), 1.0);
        let before = p.hv.domain(p.db_dom).memory.used();
        p.apply_fault(&FaultKind::MemPressure { bytes: 256 * MIB }, true);
        assert_eq!(p.hv.domain(p.db_dom).memory.used(), before + 256 * MIB);
        p.apply_fault(&FaultKind::MemPressure { bytes: 256 * MIB }, false);
        assert_eq!(p.hv.domain(p.db_dom).memory.used(), before);
    }
}
