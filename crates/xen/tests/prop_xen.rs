//! Property-based tests for the Xen substrate: scheduler conservation,
//! bit-exact agreement with a reference credit scheduler, and
//! hypervisor accounting invariants.

use cloudchar_hw::{IoKind, IoRequest, ServerSpec, WorkToken};
use cloudchar_simcore::{round_u64, SimDuration, SimRng, SimTime};
use cloudchar_xen::{
    Allocation, CreditScheduler, Demand, DomId, DomainConfig, Hypervisor, OverheadModel,
    SchedParams,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The map-based credit scheduler the dense one replaced: per-domain
/// state and per-quantum grants in `BTreeMap`s, fresh buffers every
/// quantum. It is the reference the dense scheduler must match bit for
/// bit (same weights, same clamping, same water-filling order).
struct RefScheduler {
    physical_cores: u32,
    doms: BTreeMap<DomId, (SchedParams, f64)>,
    period_secs: f64,
}

impl RefScheduler {
    fn new(physical_cores: u32) -> Self {
        RefScheduler {
            physical_cores,
            doms: BTreeMap::new(),
            period_secs: 0.030,
        }
    }

    fn add_domain(&mut self, dom: DomId, params: SchedParams) {
        self.doms.insert(dom, (params, 0.0));
    }

    fn remove_domain(&mut self, dom: DomId) {
        self.doms.remove(&dom);
    }

    fn set_cap(&mut self, dom: DomId, cap_percent: Option<u32>) {
        self.doms.get_mut(&dom).expect("registered").0.cap_percent = cap_percent;
    }

    fn credits(&self, dom: DomId) -> f64 {
        self.doms[&dom].1
    }

    fn weight(&self, dom: DomId) -> f64 {
        f64::from(self.doms[&dom].0.weight)
    }

    fn allocate(&mut self, dt_secs: f64, demands: &[Demand]) -> Vec<Allocation> {
        let capacity = self.physical_cores as f64 * dt_secs;
        let total_weight: f64 = self.doms.values().map(|d| f64::from(d.0.weight)).sum();
        if total_weight > 0.0 {
            let clamp = self.physical_cores as f64 * self.period_secs;
            for (params, credits) in self.doms.values_mut() {
                *credits += capacity * f64::from(params.weight) / total_weight;
                *credits = credits.clamp(-clamp, clamp);
            }
        }
        let mut ceilings: Vec<(DomId, f64)> = demands
            .iter()
            .map(|d| {
                let params = self.doms[&d.dom].0;
                let mut ceil = d.core_secs.max(0.0);
                ceil = ceil.min(f64::from(params.vcpus) * dt_secs);
                if let Some(cap) = params.cap_percent {
                    ceil = ceil.min(f64::from(cap) / 100.0 * dt_secs);
                }
                (d.dom, ceil)
            })
            .collect();
        let mut granted: BTreeMap<DomId, f64> = ceilings.iter().map(|(d, _)| (*d, 0.0)).collect();
        let mut remaining = capacity;
        for under_class in [true, false] {
            if remaining <= 1e-15 {
                break;
            }
            let mut class: Vec<&mut (DomId, f64)> = ceilings
                .iter_mut()
                .filter(|(d, ceil)| *ceil > 1e-15 && (self.doms[d].1 >= 0.0) == under_class)
                .collect();
            while !class.is_empty() && remaining > 1e-15 {
                let wsum: f64 = class.iter().map(|(d, _)| self.weight(*d)).sum();
                let mut saturated = false;
                class.retain_mut(|entry| {
                    let (d, ceil) = (entry.0, entry.1);
                    let share = remaining * self.weight(d) / wsum;
                    if share >= ceil {
                        *granted.get_mut(&d).expect("granted") += ceil;
                        entry.1 = 0.0;
                        saturated = true;
                        false
                    } else {
                        true
                    }
                });
                let taken: f64 = granted.values().sum::<f64>();
                remaining = capacity - taken;
                if !saturated {
                    let wsum: f64 = class.iter().map(|(d, _)| self.weight(*d)).sum();
                    for entry in &mut class {
                        let share = remaining * self.weight(entry.0) / wsum;
                        *granted.get_mut(&entry.0).expect("granted") += share;
                        entry.1 -= share;
                    }
                    remaining = 0.0;
                    break;
                }
            }
        }
        demands
            .iter()
            .map(|d| {
                let got = granted[&d.dom];
                self.doms.get_mut(&d.dom).expect("registered").1 -= got;
                Allocation {
                    dom: d.dom,
                    core_secs: got,
                    starved_core_secs: (d.core_secs.max(0.0) - got).max(0.0),
                }
            })
            .collect()
    }
}

proptest! {
    /// The credit scheduler never over-allocates capacity, never gives a
    /// domain more than its demand/vcpu/cap ceiling, and is
    /// work-conserving when demand saturates the host.
    #[test]
    fn scheduler_conservation(
        cores in 1u32..16,
        doms in proptest::collection::vec(
            (1u32..1024, proptest::option::of(1u32..200), 1u32..8),
            1..6
        ),
        demand_scale in 0.0f64..4.0,
        quanta in 1usize..60,
    ) {
        let mut sched = CreditScheduler::new(cores);
        for (i, &(weight, cap, vcpus)) in doms.iter().enumerate() {
            sched.add_domain(
                DomId(i as u32),
                SchedParams { weight, cap_percent: cap, vcpus },
            );
        }
        let dt = 0.01;
        for step in 0..quanta {
            let demands: Vec<Demand> = doms
                .iter()
                .enumerate()
                .map(|(i, _)| Demand {
                    dom: DomId(i as u32),
                    core_secs: demand_scale * dt * ((step + i) % 3) as f64,
                })
                .collect();
            let allocs = sched.allocate(dt, &demands);
            let capacity = f64::from(cores) * dt;
            let total: f64 = allocs.iter().map(|a| a.core_secs).sum();
            prop_assert!(total <= capacity + 1e-9, "over-allocated {total} > {capacity}");
            for (a, d) in allocs.iter().zip(&demands) {
                prop_assert!(a.core_secs >= 0.0);
                prop_assert!(a.core_secs <= d.core_secs + 1e-9, "alloc beyond demand");
                prop_assert!(a.starved_core_secs >= -1e-9);
                let (_, cap, vcpus) = doms[usize::try_from(a.dom.0).unwrap()];
                prop_assert!(a.core_secs <= f64::from(vcpus) * dt + 1e-9);
                if let Some(cap) = cap {
                    prop_assert!(a.core_secs <= f64::from(cap) / 100.0 * dt + 1e-9);
                }
                // Accounting identity: allocation + starvation = demand
                // (within ceiling effects).
                prop_assert!(a.core_secs + a.starved_core_secs >= d.core_secs - 1e-9);
            }
        }
    }

    /// The dense scheduler equals the map-based reference bit for bit
    /// over random multi-quantum runs: sparse domain ids, caps changed
    /// mid-run, domains dropping out of (and back into) the demand
    /// list, zero demands, and one reused output buffer throughout.
    /// Each quantum's length is drawn from {dt, 5 ms, 10 ms, 30 ms}, and
    /// domains are removed and re-registered mid-run, so anything the
    /// scheduler keeps between quanta sees both its length and its
    /// total weight change under it.
    #[test]
    fn scheduler_matches_reference_bit_for_bit(
        cores in 1u32..8,
        doms in proptest::collection::vec(
            (1u32..1024, proptest::option::of(1u32..200), 1u32..8),
            1..6
        ),
        stride in 1u32..4,
        dt in 0.001f64..0.03,
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..4, 0.0f64..0.1), 6..7),
                proptest::option::of((0usize..6, proptest::option::of(1u32..200))),
                0usize..4,
                proptest::option::of(0usize..6),
            ),
            1..80
        ),
    ) {
        let id = |i: usize| DomId(i as u32 * stride);
        let lengths = [dt, 0.005, 0.010, 0.030];
        let mut dense = CreditScheduler::new(cores);
        let mut reference = RefScheduler::new(cores);
        let mut registered = vec![true; doms.len()];
        for (i, &(weight, cap_percent, vcpus)) in doms.iter().enumerate() {
            let params = SchedParams { weight, cap_percent, vcpus };
            dense.add_domain(id(i), params);
            reference.add_domain(id(i), params);
        }
        let mut out = Vec::new();
        for (step, (per_dom, cap_change, length, toggle)) in steps.iter().enumerate() {
            // Remove a registered domain, or re-register a removed one
            // with fresh credits and its original parameters.
            if let Some(i) = toggle.filter(|&i| i < doms.len()) {
                if registered[i] {
                    dense.remove_domain(id(i));
                    reference.remove_domain(id(i));
                } else {
                    let (weight, cap_percent, vcpus) = doms[i];
                    let params = SchedParams { weight, cap_percent, vcpus };
                    dense.add_domain(id(i), params);
                    reference.add_domain(id(i), params);
                }
                registered[i] = !registered[i];
            }
            if let Some((i, cap)) = *cap_change {
                if i < doms.len() && registered[i] {
                    dense.set_cap(id(i), cap);
                    reference.set_cap(id(i), cap);
                }
            }
            // Kind 0 drops the domain from this quantum's demand list,
            // kind 1 lists it idle, kinds 2–3 give it work.
            let demands: Vec<Demand> = per_dom
                .iter()
                .take(doms.len())
                .enumerate()
                .filter(|&(i, &(kind, _))| kind != 0 && registered[i])
                .map(|(i, &(kind, cs))| Demand {
                    dom: id(i),
                    core_secs: if kind == 1 { 0.0 } else { cs },
                })
                .collect();
            let dt = lengths[*length];
            dense.allocate_into(dt, &demands, &mut out);
            let want = reference.allocate(dt, &demands);
            prop_assert_eq!(out.len(), want.len());
            for (a, b) in out.iter().zip(&want) {
                prop_assert_eq!(a.dom, b.dom);
                prop_assert_eq!(
                    a.core_secs.to_bits(),
                    b.core_secs.to_bits(),
                    "step {}: {:?} granted {} vs reference {}",
                    step, a.dom, a.core_secs, b.core_secs
                );
                prop_assert_eq!(
                    a.starved_core_secs.to_bits(),
                    b.starved_core_secs.to_bits(),
                    "step {}: {:?} starved {} vs reference {}",
                    step, a.dom, a.starved_core_secs, b.starved_core_secs
                );
            }
            for i in (0..doms.len()).filter(|&i| registered[i]) {
                let got = dense.credits(id(i)).expect("registered");
                prop_assert_eq!(
                    got.to_bits(),
                    reference.credits(id(i)).to_bits(),
                    "step {}: {:?} credits {} vs reference {}",
                    step, id(i), got, reference.credits(id(i))
                );
            }
        }
    }

    /// Saturated uncapped domains share the full machine.
    #[test]
    fn scheduler_work_conserving_under_saturation(
        cores in 1u32..8,
        weights in proptest::collection::vec(1u32..512, 2..5),
    ) {
        let mut sched = CreditScheduler::new(cores);
        for (i, &w) in weights.iter().enumerate() {
            sched.add_domain(
                DomId(i as u32),
                SchedParams { weight: w, cap_percent: None, vcpus: 16 },
            );
        }
        let dt = 0.01;
        let demands: Vec<Demand> = (0..weights.len())
            .map(|i| Demand { dom: DomId(i as u32), core_secs: 10.0 })
            .collect();
        // Skip the first quantum (credit bootstrap), then check.
        sched.allocate(dt, &demands);
        let allocs = sched.allocate(dt, &demands);
        let total: f64 = allocs.iter().map(|a| a.core_secs).sum();
        let capacity = f64::from(cores) * dt;
        prop_assert!((total - capacity).abs() < 1e-9, "not work conserving: {total} vs {capacity}");
    }

    /// The hypervisor's housekeeping tracks its inputs quantum by
    /// quantum: with quantum lengths alternating between 5 and 10 ms and
    /// guests created mid-run, the hypervisor-context cycles equal the
    /// per-quantum rounded cost at that quantum's length and domain
    /// count, and the physical disk sees exactly dom0's log bytes.
    #[test]
    fn hypervisor_housekeeping_follows_quantum_and_domain_count(
        steps in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..120),
    ) {
        let o = OverheadModel::default();
        let mut hv = Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            o,
            SimRng::new(3),
        );
        let mut done = Vec::new();
        let (mut want_cycles, mut want_log) = (0u64, 0u64);
        let mut n_doms = 1.0;
        for (step, &(short, create)) in steps.iter().enumerate() {
            if create && n_doms < 8.0 {
                hv.create_domain(DomainConfig::paper_vm(&format!("g{step}")));
                n_doms += 1.0;
            }
            let dt = SimDuration::from_millis(if short { 5 } else { 10 });
            let dt_secs = dt.as_secs_f64();
            hv.quantum_tick(dt, &mut done);
            want_cycles += round_u64(
                o.hypervisor_cycles_per_sec * dt_secs
                    + o.hypervisor_cycles_per_sec_per_dom * n_doms * dt_secs,
            );
            want_log += (o.dom0_log_bytes_per_sec * dt_secs) as u64;
            prop_assert_eq!(hv.hv_cycles_total(), want_cycles, "step {}", step);
            prop_assert_eq!(hv.host.disk.totals(), (0, want_log), "step {}", step);
        }
    }

    /// Hypervisor guest work conservation: cycles in == cycles executed,
    /// and every submitted token eventually completes.
    #[test]
    fn hypervisor_completes_all_work(
        jobs in proptest::collection::vec(1.0e3f64..5.0e7, 1..40),
        seed in any::<u64>(),
    ) {
        let mut hv = Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            OverheadModel::default(),
            SimRng::new(seed),
        );
        let dom = hv.create_domain(DomainConfig::paper_vm("t"));
        for (i, &cycles) in jobs.iter().enumerate() {
            hv.submit_guest_work(dom, WorkToken(i as u64), cycles);
        }
        let mut done = Vec::new();
        for _ in 0..10_000 {
            hv.quantum_tick(SimDuration::from_millis(10), &mut done);
            if done.len() == jobs.len() {
                break;
            }
        }
        prop_assert_eq!(done.len(), jobs.len(), "not all jobs completed");
        let mut tokens: Vec<u64> = done.iter().map(|c| c.token.0).collect();
        tokens.sort_unstable();
        let expect: Vec<u64> = (0..jobs.len() as u64).collect();
        prop_assert_eq!(tokens, expect);
    }

    /// Disk I/O accounting: virtual bytes on the frontend, amplified
    /// bytes on the physical disk, monotone completion times per kind.
    #[test]
    fn hypervisor_disk_accounting(
        ios in proptest::collection::vec((any::<bool>(), 1u64..1_000_000), 1..50),
        seed in any::<u64>(),
    ) {
        let overhead = OverheadModel { dom0_read_cache_hit: 0.0, ..OverheadModel::default() };
        let mut hv = Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            overhead,
            SimRng::new(seed),
        );
        let dom = hv.create_domain(DomainConfig::paper_vm("t"));
        let mut virt_total = 0u64;
        for &(read, bytes) in &ios {
            let kind = if read { IoKind::Read } else { IoKind::Write };
            let done = hv.guest_disk_io(
                SimTime::ZERO,
                dom,
                IoRequest { kind, bytes, sequential: false },
            );
            prop_assert!(done > SimTime::ZERO);
            virt_total += bytes;
        }
        let d = hv.domain(dom);
        prop_assert_eq!(
            d.vbd.bytes_read.total() + d.vbd.bytes_written.total(),
            virt_total
        );
        let (pr, pw) = hv.host.disk.totals();
        // Physical ≥ virtual for every mix of reads and writes (both
        // amplifications ≥ 1, no cache hits configured).
        prop_assert!(pr + pw >= virt_total, "physical {} < virtual {}", pr + pw, virt_total);
    }

    /// Network paths never lose bytes between vif counters.
    #[test]
    fn hypervisor_net_accounting(
        transfers in proptest::collection::vec((0u8..3, 1u64..500_000), 1..60),
    ) {
        let mut hv = Hypervisor::new(
            ServerSpec::hp_proliant(),
            2 * cloudchar_hw::GIB,
            OverheadModel::default(),
            SimRng::new(1),
        );
        let a = hv.create_domain(DomainConfig::paper_vm("a"));
        let b = hv.create_domain(DomainConfig::paper_vm("b"));
        let (mut a_rx, mut a_tx, mut b_rx) = (0u64, 0u64, 0u64);
        let (mut ext_rx, mut ext_tx) = (0u64, 0u64);
        for &(kind, bytes) in &transfers {
            match kind {
                0 => {
                    hv.guest_net_ingress(SimTime::ZERO, a, bytes);
                    a_rx += bytes;
                    ext_rx += bytes;
                }
                1 => {
                    hv.guest_net_egress(SimTime::ZERO, a, bytes);
                    a_tx += bytes;
                    ext_tx += bytes;
                }
                _ => {
                    hv.intervm_transfer(SimTime::ZERO, a, b, bytes);
                    a_tx += bytes;
                    b_rx += bytes;
                }
            }
        }
        prop_assert_eq!(hv.domain(a).vif.rx_bytes.total(), a_rx);
        prop_assert_eq!(hv.domain(a).vif.tx_bytes.total(), a_tx);
        prop_assert_eq!(hv.domain(b).vif.rx_bytes.total(), b_rx);
        let (nr, nt) = hv.host.nic.totals();
        prop_assert_eq!(nr, ext_rx);
        prop_assert_eq!(nt, ext_tx);
    }
}
