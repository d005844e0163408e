//! The hypervisor: domains + credit scheduler + split-driver I/O paths
//! on one physical host.
//!
//! The [`Hypervisor`] is driven by a periodic *scheduling quantum* (10 ms
//! by default, Xen's tick). Each quantum it:
//!
//! 1. accrues hypervisor and dom0 housekeeping cycles,
//! 2. collects each domain's CPU demand (I/O backend overhead first,
//!    then application work),
//! 3. asks the [`CreditScheduler`] for a
//!    weighted, capped, two-class allocation of physical core time, and
//! 4. executes the granted cycles, returning completed application work
//!    tokens so the caller can resume request processing.
//!
//! Guest disk and network operations are routed through dom0 exactly as
//! Xen's split drivers do: the frontend records virtual-device traffic,
//! dom0 is charged backend cycles, and the *physical* devices see the
//! (amplified) traffic — which is how the paper's dom0 panels differ
//! from its VM panels.

use crate::domain::{DomId, Domain, DomainConfig};
use crate::overhead::OverheadModel;
use crate::sched::{Allocation, CreditScheduler, Demand, SchedParams};
use cloudchar_hw::memory::Bytes;
use cloudchar_hw::server::{PhysicalServer, ServerSpec};
use cloudchar_hw::{IoKind, IoRequest, WorkToken};
use cloudchar_simcore::audit;
use cloudchar_simcore::stats::Counter;
use cloudchar_simcore::{round_u64, SimDuration, SimRng, SimTime};

/// Direction of external guest traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDirection {
    /// From the outside world into the guest.
    Ingress,
    /// From the guest to the outside world.
    Egress,
}

/// A completed unit of guest application work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Domain whose work completed.
    pub dom: DomId,
    /// Token supplied at submission.
    pub token: WorkToken,
}

/// One virtualized host.
#[derive(Debug)]
pub struct Hypervisor {
    /// The physical machine under the hypervisor.
    pub host: PhysicalServer,
    /// Domains indexed by `DomId.0`: ids are handed out densely by
    /// `next_dom` and never removed, so dom0 sits at index 0.
    domains: Vec<Domain>,
    sched: CreditScheduler,
    /// Cost parameters. Private so that `consts`, which is derived from
    /// them, cannot go stale.
    overhead: OverheadModel,
    rng: SimRng,
    next_dom: u32,
    /// Cycles executed in hypervisor context (not attributable to any
    /// domain). Together with dom0's cycles this is what a perf running
    /// in dom0 observes as "physical" CPU activity.
    hv_cycles: Counter,
    /// Bytes crossing the dom0 software bridge (inter-VM traffic),
    /// which dom0's own sar sees on its vif backend interfaces.
    bridge_bytes: Counter,
    quantum: SimDuration,
    /// Extra dom0 housekeeping load, as a fraction of one core
    /// (credit-starvation fault; 0.0 = healthy).
    starve_core_util: f64,
    /// Housekeeping of one quantum, derived from its length, the domain
    /// count, the starvation load and the overhead model.
    consts: QuantumConsts,
    /// Per-quantum buffers reused by [`Hypervisor::quantum_tick`].
    demands: Vec<Demand>,
    allocations: Vec<Allocation>,
    tokens: Vec<WorkToken>,
}

/// The fixed housekeeping of a quantum of length `dt`, computed when one
/// of its inputs changes instead of every quantum.
#[derive(Debug, Clone, Copy, Default)]
struct QuantumConsts {
    dt: SimDuration,
    dt_secs: f64,
    /// Host core clock in Hz.
    hz: f64,
    /// Hypervisor-context cycles, rounded.
    hv_cycles: u64,
    /// Dom0 journaling bytes written.
    log_bytes: u64,
    /// Dom0 housekeeping cycles, including the starvation load.
    dom0_base: f64,
}

impl QuantumConsts {
    fn new(dt: SimDuration, hv: &Hypervisor) -> Self {
        let dt_secs = dt.as_secs_f64();
        let hz = hv.host.spec().cpu.hz as f64;
        let o = &hv.overhead;
        let n_doms = hv.domains.len() as f64;
        let hv_cycles = o.hypervisor_cycles_per_sec * dt_secs
            + o.hypervisor_cycles_per_sec_per_dom * n_doms * dt_secs;
        QuantumConsts {
            dt,
            dt_secs,
            hz,
            hv_cycles: round_u64(hv_cycles),
            log_bytes: (o.dom0_log_bytes_per_sec * dt_secs) as u64,
            // The credit-starvation fault inflates dom0's demand by a
            // fraction of one core; its boosted weight turns that demand
            // into credit the guests no longer receive.
            dom0_base: o.dom0_cycles_per_sec * dt_secs + hv.starve_core_util * hz * dt_secs,
        }
    }
}

impl Hypervisor {
    /// Install a hypervisor on a host. `dom0_memory` is the memory
    /// reservation of the driver domain.
    pub fn new(spec: ServerSpec, dom0_memory: Bytes, overhead: OverheadModel, rng: SimRng) -> Self {
        overhead.validate().expect("invalid overhead model");
        let host = PhysicalServer::new(spec);
        let mut sched = CreditScheduler::new(spec.cpu.cores);
        let dom0_cfg = DomainConfig::dom0(cloudchar_hw::MemorySpec { total: dom0_memory });
        sched.add_domain(
            DomId::DOM0,
            SchedParams {
                weight: dom0_cfg.weight,
                cap_percent: dom0_cfg.cap_percent,
                vcpus: dom0_cfg.vcpus,
            },
        );
        let mut dom0 = Domain::new(DomId::DOM0, dom0_cfg);
        // Dom0 kernel + daemons baseline resident set.
        dom0.memory
            .set_component("dom0-base", 650 * cloudchar_hw::MIB);
        let quantum = SimDuration::from_millis(10);
        let mut hv = Hypervisor {
            host,
            domains: vec![dom0],
            sched,
            overhead,
            rng,
            next_dom: 1,
            hv_cycles: Counter::new(),
            bridge_bytes: Counter::new(),
            quantum,
            starve_core_util: 0.0,
            consts: QuantumConsts::default(),
            demands: Vec::new(),
            allocations: Vec::new(),
            tokens: Vec::new(),
        };
        hv.consts = QuantumConsts::new(quantum, &hv);
        hv
    }

    /// The scheduling quantum length.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Create a guest domain; returns its id.
    pub fn create_domain(&mut self, config: DomainConfig) -> DomId {
        let id = DomId(self.next_dom);
        self.next_dom += 1;
        self.sched.add_domain(
            id,
            SchedParams {
                weight: config.weight,
                cap_percent: config.cap_percent,
                vcpus: config.vcpus,
            },
        );
        self.domains.push(Domain::new(id, config));
        self.consts = QuantumConsts::new(self.consts.dt, self);
        id
    }

    /// Immutable access to a domain.
    pub fn domain(&self, id: DomId) -> &Domain {
        self.domains
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown domain {id:?}"))
    }

    /// Mutable access to a domain.
    pub fn domain_mut(&mut self, id: DomId) -> &mut Domain {
        self.domains
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown domain {id:?}"))
    }

    fn dom0_mut(&mut self) -> &mut Domain {
        &mut self.domains[0]
    }

    /// All domain ids, dom0 first.
    pub fn domain_ids(&self) -> Vec<DomId> {
        self.domains.iter().map(|d| d.id).collect()
    }

    /// Cycles executed in hypervisor context so far.
    pub fn hv_cycles_total(&self) -> u64 {
        self.hv_cycles.total()
    }

    /// Mutable hypervisor-cycles counter (for monitor delta sampling).
    pub fn hv_cycles(&mut self) -> &mut Counter {
        &mut self.hv_cycles
    }

    /// Mutable bridge-traffic counter (for monitor delta sampling).
    pub fn bridge_bytes(&mut self) -> &mut Counter {
        &mut self.bridge_bytes
    }

    /// Whether a domain is currently crashed (fault injection).
    pub fn is_down(&self, dom: DomId) -> bool {
        self.domains.get(dom.0 as usize).is_some_and(|d| d.down)
    }

    /// Crash a guest domain (fault injection): it stops receiving CPU
    /// time and all queued work — application items and pending
    /// housekeeping — is lost. Returns the tokens of the abandoned
    /// application work so the caller can fail the requests they belong
    /// to. Dom0 cannot crash (the host would be gone with it).
    pub fn crash_domain(&mut self, dom: DomId) -> Vec<WorkToken> {
        assert!(!dom.is_dom0(), "dom0 cannot be crash-injected");
        let d = self.domain_mut(dom);
        d.overhead_cycles = 0.0;
        d.down = true;
        d.work.clear()
    }

    /// Restart a crashed domain. It rejoins scheduling immediately but is
    /// charged `boot_delay_s` of one-core kernel boot work, which drains
    /// ahead of any application request (so service resumes only once the
    /// simulated boot completes). A no-op if the domain is not down.
    pub fn restart_domain(&mut self, dom: DomId, boot_delay_s: f64) {
        assert!(
            boot_delay_s.is_finite() && boot_delay_s >= 0.0,
            "invalid boot delay: {boot_delay_s}"
        );
        let hz = self.consts.hz;
        if let Some(d) = self.domains.get_mut(dom.0 as usize).filter(|d| d.down) {
            d.down = false;
            d.add_overhead_cycles(boot_delay_s * hz);
        }
    }

    /// Change a domain's credit-scheduler cap at runtime (fault
    /// injection): `Some(pct)` throttles, `None` uncaps. Returns the
    /// previous cap.
    pub fn set_domain_cap(&mut self, dom: DomId, cap_percent: Option<u32>) -> Option<u32> {
        self.sched.set_cap(dom, cap_percent)
    }

    /// Inflate dom0's housekeeping demand by `util` of one core
    /// (credit-starvation fault). Dom0's boosted weight lets it preempt
    /// the guests, starving them of scheduler credit. `0.0` restores
    /// healthy housekeeping.
    pub fn set_starvation(&mut self, util: f64) {
        assert!(
            util.is_finite() && (0.0..=1.0).contains(&util),
            "invalid starvation utilisation: {util}"
        );
        self.starve_core_util = util;
        self.consts = QuantumConsts::new(self.consts.dt, self);
    }

    /// Submit guest application CPU work. The demand is multiplied by the
    /// PV inflation factor before queueing.
    pub fn submit_guest_work(&mut self, dom: DomId, token: WorkToken, cycles: f64) {
        let inflated = cycles * self.overhead.guest_cpu_inflation;
        self.domain_mut(dom).work.push(token, inflated);
    }

    /// Run one scheduling quantum of length `dt`. Completed application
    /// work tokens are appended to `completions`.
    pub fn quantum_tick(&mut self, dt: SimDuration, completions: &mut Vec<Completion>) {
        if dt != self.consts.dt {
            self.consts = QuantumConsts::new(dt, self);
        }
        let QuantumConsts {
            dt_secs,
            hz,
            hv_cycles,
            log_bytes,
            dom0_base,
            ..
        } = self.consts;

        // 1. Hypervisor housekeeping (timer ticks, scheduler runs).
        self.hv_cycles.add(hv_cycles);
        self.host.cycles.add(hv_cycles);

        // 2. Dom0 housekeeping, including its own journaling writes and
        // any credit-starvation load.
        if log_bytes > 0 {
            self.host.disk.bytes_written().add(log_bytes);
            self.host.disk.writes().add(1);
        }
        self.dom0_mut().add_overhead_cycles(dom0_base);

        // 3. Collect demands (core-seconds) in id order, as the
        // scheduler requires. Crashed domains hold no VCPUs and are
        // skipped entirely.
        self.demands.clear();
        self.demands
            .extend(self.domains.iter().filter(|d| !d.down).map(|d| Demand {
                dom: d.id,
                core_secs: d.demand_cycles() / hz,
            }));

        // 4. Allocate and execute.
        self.sched
            .allocate_into(dt_secs, &self.demands, &mut self.allocations);
        let mut executed_cycles_total = 0.0;
        for alloc in &self.allocations {
            if alloc.core_secs <= 0.0 && alloc.starved_core_secs <= 0.0 {
                continue;
            }
            let dom = &mut self.domains[alloc.dom.0 as usize];
            let budget_cycles = alloc.core_secs * hz;
            let (executed, executed_cycles) = dom.execute(budget_cycles, &mut self.tokens);
            // Guest sysstat over-reports cycle usage (steal-time
            // misattribution); dom0's accounting is physical.
            if !alloc.dom.is_dom0() {
                let extra = executed * (self.overhead.guest_cycle_accounting_scale - 1.0);
                dom.virt_cycles.add(round_u64(extra));
            }
            dom.run_ns.add(round_u64(alloc.core_secs * 1e9));
            dom.steal_ns.add(round_u64(alloc.starved_core_secs * 1e9));
            if executed > 0.0 {
                // Roughly one context switch per quantum per busy VCPU.
                dom.kernel
                    .context_switches
                    .add((alloc.core_secs / dt_secs).ceil().max(1.0) as u64);
                dom.kernel.interrupts.add(1); // timer tick
            }
            self.host.cycles.add(executed_cycles);
            executed_cycles_total += executed;
            completions.extend(self.tokens.drain(..).map(|token| Completion {
                dom: alloc.dom,
                token,
            }));
        }

        if audit::is_enabled() {
            // Guest execution is bounded by the machine: the sum of what
            // all domains ran this quantum may not exceed the physical
            // CPU capacity. The hypervisor/dom0 housekeeping cycles are
            // modeled overhead on top and accounted separately above.
            let capacity_cycles = self.host.spec().cpu.capacity_cycles(dt_secs);
            audit::check(
                "xen.hv.cpu_capacity",
                0,
                executed_cycles_total <= capacity_cycles * (1.0 + 1e-9) + 1.0,
                || {
                    format!(
                        "domains executed {executed_cycles_total} cycles in one quantum, \
                         physical capacity is {capacity_cycles}"
                    )
                },
            );
        }
    }

    fn vif_accounting_phantom(&mut self, dom: DomId, bytes: Bytes) {
        let phantom = bytes as f64 * self.overhead.guest_accounting_cycles_per_vif_byte;
        self.domain_mut(dom).virt_cycles.add(round_u64(phantom));
    }

    /// Guest disk I/O through the split block driver. Returns the
    /// absolute completion time (event-channel notification back to the
    /// guest).
    pub fn guest_disk_io(&mut self, now: SimTime, dom: DomId, req: IoRequest) -> SimTime {
        assert!(!dom.is_dom0(), "dom0 uses host_disk_io");
        // Frontend accounting + a little guest-side driver work.
        {
            let d = self.domain_mut(dom);
            d.record_vbd(matches!(req.kind, IoKind::Read), req.bytes);
            d.add_overhead_cycles(5_000.0 + 0.05 * req.bytes as f64);
            d.kernel.interrupts.add(1);
        }
        // Backend (dom0) CPU work.
        let backend = self.overhead.disk_backend_cycles(req.bytes);
        let dom0 = self.dom0_mut();
        dom0.add_overhead_cycles(backend);
        dom0.kernel.interrupts.add(1);
        dom0.kernel.context_switches.add(1);
        // Dom0 page cache absorbs guest image pages generously:
        // readahead plus image-file metadata caching.
        dom0.memory.grow_page_cache(req.bytes.saturating_mul(3));

        let ec = SimDuration::from_secs_f64(self.overhead.event_channel_latency_s);
        match req.kind {
            IoKind::Read => {
                if self.rng.chance(self.overhead.dom0_read_cache_hit) {
                    // Served from dom0's page cache; no physical I/O.
                    now + ec + ec
                } else {
                    let phys_bytes =
                        (req.bytes as f64 * self.overhead.disk_read_amplification) as u64;
                    let done = self.host.disk.submit(
                        now + ec,
                        IoRequest {
                            kind: IoKind::Read,
                            bytes: phys_bytes,
                            sequential: req.sequential,
                        },
                    );
                    done + ec
                }
            }
            IoKind::Write => {
                let phys_bytes = (req.bytes as f64 * self.overhead.disk_write_amplification) as u64;
                let done = self.host.disk.submit(
                    now + ec,
                    IoRequest {
                        kind: IoKind::Write,
                        bytes: phys_bytes,
                        sequential: req.sequential,
                    },
                );
                // Writes complete to the guest once dom0 has them queued
                // (write-back), but we conservatively signal at physical
                // completion, matching Xen 3.1's default barrier-honouring
                // blkback behaviour.
                done + ec
            }
        }
    }

    /// External traffic arriving for a guest: physical NIC → bridge →
    /// netback → guest. Returns delivery time into the guest.
    pub fn guest_net_ingress(&mut self, now: SimTime, dom: DomId, bytes: Bytes) -> SimTime {
        self.host.nic.receive(bytes);
        let backend = self.overhead.net_backend_cycles(bytes);
        let dom0 = self.dom0_mut();
        dom0.add_overhead_cycles(backend);
        dom0.kernel.interrupts.add(bytes.div_ceil(1448).max(1));
        let d = self.domain_mut(dom);
        d.record_vif(true, bytes);
        d.add_overhead_cycles(2_000.0 + 0.1 * bytes as f64);
        self.vif_accounting_phantom(dom, bytes);
        now + SimDuration::from_secs_f64(
            self.overhead.event_channel_latency_s + self.overhead.bridge_latency_s,
        )
    }

    /// Guest traffic leaving the host: guest → netback → bridge →
    /// physical NIC. Returns delivery time at the external destination.
    pub fn guest_net_egress(&mut self, now: SimTime, dom: DomId, bytes: Bytes) -> SimTime {
        {
            let d = self.domain_mut(dom);
            d.record_vif(false, bytes);
            d.add_overhead_cycles(2_000.0 + 0.1 * bytes as f64);
        }
        self.vif_accounting_phantom(dom, bytes);
        let backend = self.overhead.net_backend_cycles(bytes);
        let dom0 = self.dom0_mut();
        dom0.add_overhead_cycles(backend);
        dom0.kernel.interrupts.add(bytes.div_ceil(1448).max(1));
        let bridge = SimDuration::from_secs_f64(self.overhead.bridge_latency_s);
        self.host.nic.transmit(now + bridge, bytes)
    }

    /// Traffic between two guests on this host: crosses the software
    /// bridge in dom0, never touches the wire. Returns delivery time.
    pub fn intervm_transfer(
        &mut self,
        now: SimTime,
        from: DomId,
        to: DomId,
        bytes: Bytes,
    ) -> SimTime {
        {
            let src = self.domain_mut(from);
            src.record_vif(false, bytes);
            src.add_overhead_cycles(2_000.0 + 0.1 * bytes as f64);
        }
        {
            let dst = self.domain_mut(to);
            dst.record_vif(true, bytes);
            dst.add_overhead_cycles(2_000.0 + 0.1 * bytes as f64);
        }
        self.vif_accounting_phantom(from, bytes);
        self.vif_accounting_phantom(to, bytes);
        // Bridge copy costs dom0 twice the single-hop backend work
        // (receive from one vif, transmit into the other).
        let backend = 2.0 * self.overhead.net_backend_cycles(bytes);
        self.bridge_bytes.add(bytes);
        let dom0 = self.dom0_mut();
        dom0.add_overhead_cycles(backend);
        dom0.kernel.context_switches.add(2);
        now + SimDuration::from_secs_f64(
            2.0 * self.overhead.event_channel_latency_s + self.overhead.bridge_latency_s,
        )
    }

    /// Balloon a guest domain to a new memory target. Returns the
    /// applied total (the balloon driver cannot reclaim anonymous guest
    /// memory). Dom0 cannot be ballooned.
    pub fn balloon(&mut self, dom: DomId, target: Bytes) -> Bytes {
        assert!(!dom.is_dom0(), "dom0 memory is not ballooned");
        // Balloon operations cost dom0 a little backend work.
        let applied = self.domain_mut(dom).memory.balloon_to(target);
        self.dom0_mut().add_overhead_cycles(500_000.0);
        applied
    }

    /// Physical CPU cycles a perf session in dom0 would have observed:
    /// dom0's own cycles plus hypervisor-context cycles.
    pub fn dom0_visible_physical_cycles(&self) -> u64 {
        self.domains[0].virt_cycles.total() + self.hv_cycles.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv() -> Hypervisor {
        Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            OverheadModel::default(),
            SimRng::new(1),
        )
    }

    #[test]
    fn dom0_exists_at_boot() {
        let h = hv();
        assert_eq!(h.domain_ids(), vec![DomId::DOM0]);
        assert!(h.domain(DomId::DOM0).memory.used() > 0);
    }

    #[test]
    fn create_domains_get_sequential_ids() {
        let mut h = hv();
        let a = h.create_domain(DomainConfig::paper_vm("web"));
        let b = h.create_domain(DomainConfig::paper_vm("db"));
        assert_eq!(a, DomId(1));
        assert_eq!(b, DomId(2));
        assert_eq!(h.domain(a).config.name, "web");
    }

    #[test]
    fn quantum_executes_guest_work_with_inflation() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        h.submit_guest_work(web, WorkToken(1), 1_000_000.0);
        let mut done = Vec::new();
        // One quantum at 10 ms: 2 VCPUs × 2.8 GHz × 10 ms ≫ demand.
        h.quantum_tick(SimDuration::from_millis(10), &mut done);
        assert_eq!(
            done,
            vec![Completion {
                dom: web,
                token: WorkToken(1)
            }]
        );
        // Reported (virtualized) cycles ≈ demand × inflation × accounting
        // scale.
        let reported = h.domain(web).virt_cycles.total() as f64;
        let o = OverheadModel::default();
        let expect = 1_000_000.0 * o.guest_cpu_inflation * o.guest_cycle_accounting_scale;
        assert!(
            (reported - expect).abs() / expect < 0.01,
            "reported {reported}"
        );
    }

    #[test]
    fn housekeeping_accrues_without_guest_work() {
        let mut h = hv();
        let mut done = Vec::new();
        for _ in 0..100 {
            h.quantum_tick(SimDuration::from_millis(10), &mut done);
        }
        assert!(done.is_empty());
        assert!(h.hv_cycles_total() > 0);
        // Dom0 base work executed (1 s of dom0_cycles_per_sec).
        let dom0_cycles = h.domain(DomId::DOM0).virt_cycles.total() as f64;
        let expect = OverheadModel::default().dom0_cycles_per_sec;
        assert!(
            (dom0_cycles - expect).abs() / expect < 0.05,
            "{dom0_cycles}"
        );
        assert!(h.dom0_visible_physical_cycles() > h.hv_cycles_total());
    }

    #[test]
    fn disk_io_routes_through_dom0() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        let before = h.domain(DomId::DOM0).overhead_cycles;
        let done = h.guest_disk_io(
            SimTime::ZERO,
            web,
            IoRequest {
                kind: IoKind::Write,
                bytes: 100_000,
                sequential: false,
            },
        );
        assert!(done > SimTime::ZERO);
        // Frontend counters show the virtual bytes.
        assert_eq!(h.domain(web).vbd.bytes_written.total(), 100_000);
        // Physical disk saw amplified bytes.
        let (r, w) = h.host.disk.totals();
        assert_eq!(r, 0);
        let expect = (100_000.0 * OverheadModel::default().disk_write_amplification) as u64;
        assert_eq!(w, expect);
        // Dom0 was charged backend cycles.
        assert!(h.domain(DomId::DOM0).overhead_cycles > before);
    }

    #[test]
    fn read_cache_hits_skip_physical_disk() {
        let mut h = Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            OverheadModel {
                dom0_read_cache_hit: 1.0,
                ..OverheadModel::default()
            },
            SimRng::new(1),
        );
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        h.guest_disk_io(
            SimTime::ZERO,
            web,
            IoRequest {
                kind: IoKind::Read,
                bytes: 8192,
                sequential: false,
            },
        );
        assert_eq!(h.domain(web).vbd.bytes_read.total(), 8192);
        assert_eq!(h.host.disk.totals(), (0, 0));
    }

    #[test]
    fn net_paths_account_both_sides() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        let db = h.create_domain(DomainConfig::paper_vm("db"));
        h.guest_net_ingress(SimTime::ZERO, web, 1000);
        h.guest_net_egress(SimTime::ZERO, web, 5000);
        h.intervm_transfer(SimTime::ZERO, web, db, 300);
        assert_eq!(h.domain(web).vif.rx_bytes.total(), 1000);
        assert_eq!(h.domain(web).vif.tx_bytes.total(), 5300);
        assert_eq!(h.domain(db).vif.rx_bytes.total(), 300);
        // Physical NIC only saw external traffic.
        assert_eq!(h.host.nic.totals(), (1000, 5000));
    }

    #[test]
    fn steal_time_appears_under_contention() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        // Demand far beyond 2 VCPUs' capacity in one quantum.
        let capacity_2vcpu_10ms = 2.0 * 2.8e9 * 0.01;
        h.submit_guest_work(web, WorkToken(1), capacity_2vcpu_10ms * 5.0);
        let mut done = Vec::new();
        h.quantum_tick(SimDuration::from_millis(10), &mut done);
        assert!(done.is_empty());
        assert!(h.domain(web).steal_ns.total() > 0);
        assert!(h.domain(web).run_ns.total() > 0);
    }

    #[test]
    fn balloon_reshapes_guest_memory() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        h.domain_mut(web)
            .memory
            .set_component("app", cloudchar_hw::GIB / 2);
        let applied = h.balloon(web, cloudchar_hw::GIB);
        assert_eq!(applied, cloudchar_hw::GIB);
        assert_eq!(h.domain(web).memory.spec().total, cloudchar_hw::GIB);
        // Dom0 was charged for the operation.
        assert!(h.domain(DomId::DOM0).overhead_cycles >= 500_000.0);
    }

    #[test]
    fn crash_drops_work_and_restart_pays_boot_delay() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        h.submit_guest_work(web, WorkToken(1), 1_000_000.0);
        h.submit_guest_work(web, WorkToken(2), 1_000_000.0);
        let dropped = h.crash_domain(web);
        assert_eq!(dropped, vec![WorkToken(1), WorkToken(2)]);
        assert!(h.is_down(web));
        // A down domain executes nothing even with queued demand.
        h.submit_guest_work(web, WorkToken(3), 1_000.0);
        let mut done = Vec::new();
        h.quantum_tick(SimDuration::from_millis(10), &mut done);
        assert!(done.is_empty());
        // Restart charges boot cycles that drain before app work: with a
        // 1 s boot on 2 VCPUs, token 3 cannot complete in one 10 ms
        // quantum.
        h.restart_domain(web, 1.0);
        assert!(!h.is_down(web));
        h.quantum_tick(SimDuration::from_millis(10), &mut done);
        assert!(done.is_empty());
        // ~1 s of quanta later, boot work is done and the token emerges.
        for _ in 0..60 {
            h.quantum_tick(SimDuration::from_millis(10), &mut done);
        }
        assert_eq!(
            done,
            vec![Completion {
                dom: web,
                token: WorkToken(3)
            }]
        );
    }

    #[test]
    fn restart_when_not_down_is_noop() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        let before = h.domain(web).overhead_cycles;
        h.restart_domain(web, 5.0);
        assert_eq!(h.domain(web).overhead_cycles, before);
    }

    #[test]
    fn runtime_cap_throttles_guest() {
        let mut h = hv();
        let web = h.create_domain(DomainConfig::paper_vm("web"));
        assert_eq!(h.set_domain_cap(web, Some(25)), None);
        // Saturating demand against a 25%-of-one-core cap: one 10 ms
        // quantum executes at most 0.25 × 2.8 GHz × 10 ms cycles.
        h.submit_guest_work(web, WorkToken(1), 1e9);
        let mut done = Vec::new();
        h.quantum_tick(SimDuration::from_millis(10), &mut done);
        let executed = h.domain(web).virt_cycles.total() as f64;
        let cap_cycles = 0.25 * 2.8e9 * 0.01;
        let o = OverheadModel::default();
        let ceiling = cap_cycles * o.guest_cycle_accounting_scale * 1.01;
        assert!(executed <= ceiling, "{executed} vs cap {ceiling}");
        assert!(h.domain(web).steal_ns.total() > 0);
        assert_eq!(h.set_domain_cap(web, None), Some(25));
    }

    #[test]
    fn starvation_inflates_dom0_and_steals_from_guests() {
        let mut starved = hv();
        let web = starved.create_domain(DomainConfig::paper_vm("web"));
        starved.set_starvation(0.8);
        let mut done = Vec::new();
        for _ in 0..100 {
            starved.quantum_tick(SimDuration::from_millis(10), &mut done);
        }
        let dom0_cycles = starved.domain(DomId::DOM0).virt_cycles.total() as f64;
        // 1 s at 80% of one 2.8 GHz core on top of the healthy baseline.
        let base = OverheadModel::default().dom0_cycles_per_sec;
        let expect = base + 0.8 * 2.8e9;
        assert!(
            (dom0_cycles - expect).abs() / expect < 0.05,
            "dom0 ran {dom0_cycles:.3e}, expected ~{expect:.3e}"
        );
        // Clearing the fault returns dom0 to baseline housekeeping.
        starved.set_starvation(0.0);
        let before = starved.domain(DomId::DOM0).virt_cycles.total();
        for _ in 0..100 {
            starved.quantum_tick(SimDuration::from_millis(10), &mut done);
        }
        let after_delta = (starved.domain(DomId::DOM0).virt_cycles.total() - before) as f64;
        assert!(
            (after_delta - base).abs() / base < 0.05,
            "post-clear dom0 delta {after_delta:.3e}"
        );
        let _ = web;
    }

    #[test]
    #[should_panic(expected = "dom0 cannot be crash-injected")]
    fn dom0_crash_rejected() {
        let mut h = hv();
        h.crash_domain(DomId::DOM0);
    }

    #[test]
    #[should_panic(expected = "dom0 uses host_disk_io")]
    fn dom0_disk_io_rejected() {
        let mut h = hv();
        h.guest_disk_io(
            SimTime::ZERO,
            DomId::DOM0,
            IoRequest {
                kind: IoKind::Read,
                bytes: 1,
                sequential: false,
            },
        );
    }
}
