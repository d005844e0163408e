//! The Xen credit scheduler (fluid approximation).
//!
//! Xen 3.x's default scheduler gives each domain *credits* in proportion
//! to its weight every accounting period (30 ms), debits credits as
//! VCPUs consume physical CPU, and schedules VCPUs with positive credits
//! (**UNDER**) ahead of those that have overdrawn (**OVER**). A domain
//! may also carry a *cap*, an upper bound on CPU consumption expressed
//! as a percentage of one physical CPU.
//!
//! Our model allocates physical core-time per scheduling quantum with a
//! two-class weighted max-min (water-filling) share: UNDER domains are
//! served first in proportion to weight, then OVER domains share the
//! remainder. Credits are refilled continuously (scaled by quantum
//! length) and clamped to one period's worth, matching Xen's cap on
//! credit accumulation.

use crate::domain::DomId;
use cloudchar_simcore::audit;
use serde::{Deserialize, Serialize};

/// Per-domain scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedParams {
    /// Proportional-share weight (Xen default 256).
    pub weight: u32,
    /// Cap in percent of one physical CPU (`None` = uncapped).
    pub cap_percent: Option<u32>,
    /// Number of VCPUs (a domain can never exceed `vcpus` core-seconds
    /// per second).
    pub vcpus: u32,
}

/// A domain's CPU demand for one quantum, in core-seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Which domain.
    pub dom: DomId,
    /// Core-seconds of runnable work this quantum.
    pub core_secs: f64,
}

/// An allocation decision for one quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Which domain.
    pub dom: DomId,
    /// Core-seconds granted.
    pub core_secs: f64,
    /// Core-seconds of unmet demand (runnable but not run → steal time).
    pub starved_core_secs: f64,
}

#[derive(Debug, Clone)]
struct DomState {
    params: SchedParams,
    credits: f64,
    /// Credits added per quantum of length `refill_dt`.
    refill: f64,
}

/// One demanding domain's water-filling state for the current quantum,
/// in demand order. The slots are kept across quanta so the steady
/// state allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Effective ceiling: demand ∧ vcpus·dt ∧ cap·dt.
    ceiling: f64,
    /// Scheduling weight.
    weight: f64,
    /// Core-seconds granted so far this quantum.
    granted: f64,
    /// Whether the domain is UNDER (non-negative credits) this quantum.
    under: bool,
    /// Still being water-filled in the current class.
    open: bool,
}

/// The credit scheduler.
#[derive(Debug, Clone)]
pub struct CreditScheduler {
    physical_cores: u32,
    /// Per-domain state indexed by `DomId.0`; `None` marks an id that
    /// was never registered or has been removed.
    doms: Vec<Option<DomState>>,
    /// Credit clamp: one credit period (Xen: 30 ms) of the machine.
    clamp: f64,
    /// Quantum length of every `refill`; NaN after a (de)registration.
    refill_dt: f64,
    slots: Vec<Slot>,
}

impl CreditScheduler {
    /// A scheduler for a host with `physical_cores` cores.
    pub fn new(physical_cores: u32) -> Self {
        assert!(physical_cores > 0);
        CreditScheduler {
            physical_cores,
            doms: Vec::new(),
            clamp: physical_cores as f64 * 0.030,
            refill_dt: f64::NAN,
            slots: Vec::new(),
        }
    }

    fn state(&self, dom: DomId) -> Option<&DomState> {
        self.doms.get(dom.0 as usize).and_then(Option::as_ref)
    }

    fn state_mut(&mut self, dom: DomId) -> &mut DomState {
        self.doms
            .get_mut(dom.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("unregistered domain {dom:?}"))
    }

    /// Register a domain.
    pub fn add_domain(&mut self, dom: DomId, params: SchedParams) {
        assert!(params.weight > 0, "weight must be positive");
        assert!(params.vcpus > 0, "vcpus must be positive");
        let i = dom.0 as usize;
        if i >= self.doms.len() {
            self.doms.resize(i + 1, None);
        }
        self.doms[i] = Some(DomState {
            params,
            credits: 0.0,
            refill: 0.0,
        });
        self.refill_dt = f64::NAN;
    }

    /// Remove a domain (e.g. VM destroyed).
    pub fn remove_domain(&mut self, dom: DomId) {
        if let Some(slot) = self.doms.get_mut(dom.0 as usize) {
            *slot = None;
        }
        self.refill_dt = f64::NAN;
    }

    /// Change a registered domain's cap at runtime (the model of
    /// `xm sched-credit -c`, used by fault injection). Returns the
    /// previous cap. Panics on an unregistered domain.
    pub fn set_cap(&mut self, dom: DomId, cap_percent: Option<u32>) -> Option<u32> {
        std::mem::replace(&mut self.state_mut(dom).params.cap_percent, cap_percent)
    }

    /// Registered domains, in id order.
    pub fn domains(&self) -> impl Iterator<Item = DomId> + '_ {
        self.doms
            .iter()
            .enumerate()
            .filter(|(_, st)| st.is_some())
            .map(|(i, _)| DomId(i as u32))
    }

    /// Current credit balance of a domain (core-seconds).
    pub fn credits(&self, dom: DomId) -> Option<f64> {
        self.state(dom).map(|d| d.credits)
    }

    /// Allocate physical core-time for one quantum of length `dt_secs`;
    /// a convenience wrapper around [`CreditScheduler::allocate_into`].
    pub fn allocate(&mut self, dt_secs: f64, demands: &[Demand]) -> Vec<Allocation> {
        let mut out = Vec::with_capacity(demands.len());
        self.allocate_into(dt_secs, demands, &mut out);
        out
    }

    /// Allocate physical core-time for one quantum of length `dt_secs`.
    ///
    /// `demands` lists runnable domains with their core-second demands,
    /// unique and in ascending id order; domains not listed are idle.
    /// `out` is overwritten with one [`Allocation`] per demanding domain
    /// (same order). Idle capacity is simply unused.
    ///
    /// Every floating-point sum runs in domain-id order, so results are
    /// bit-identical however the caller's buffers were reused.
    pub fn allocate_into(&mut self, dt_secs: f64, demands: &[Demand], out: &mut Vec<Allocation>) {
        assert!(dt_secs > 0.0 && dt_secs.is_finite());
        assert!(
            demands.windows(2).all(|w| w[0].dom < w[1].dom),
            "demands must be unique and sorted by domain id"
        );
        // 1. Refill credits in proportion to weight, scaled to quantum
        //    length (recomputed only when the length or the registered
        //    set changes); clamp to ±1 period of full-machine capacity.
        let capacity = self.physical_cores as f64 * dt_secs;
        if dt_secs != self.refill_dt {
            let total_weight: f64 = self
                .doms
                .iter()
                .flatten()
                .map(|d| f64::from(d.params.weight))
                .sum();
            for st in self.doms.iter_mut().flatten() {
                st.refill = capacity * f64::from(st.params.weight) / total_weight;
            }
            self.refill_dt = dt_secs;
        }
        for st in self.doms.iter_mut().flatten() {
            st.credits = (st.credits + st.refill).clamp(-self.clamp, self.clamp);
        }

        // 2. Effective per-domain ceiling: demand ∧ vcpus·dt ∧ cap·dt.
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.extend(demands.iter().map(|d| {
            let st = self
                .state(d.dom)
                .unwrap_or_else(|| panic!("unregistered domain {:?}", d.dom));
            let mut ceil = d.core_secs.max(0.0);
            ceil = ceil.min(f64::from(st.params.vcpus) * dt_secs);
            if let Some(cap) = st.params.cap_percent {
                ceil = ceil.min(f64::from(cap) / 100.0 * dt_secs);
            }
            Slot {
                ceiling: ceil,
                weight: f64::from(st.params.weight),
                granted: 0.0,
                under: st.credits >= 0.0,
                open: false,
            }
        }));

        // 3. Two-class weighted water-filling, in demand order. A
        //    domain's class is fixed for the quantum (credits move only
        //    in steps 1 and 4), so each demand is granted at most once.
        let mut remaining = capacity;
        for under_class in [true, false] {
            if remaining <= 1e-15 {
                break;
            }
            for s in slots.iter_mut() {
                s.open = s.ceiling > 1e-15 && s.under == under_class;
            }
            while remaining > 1e-15 && slots.iter().any(|s| s.open) {
                let wsum: f64 = slots.iter().filter(|s| s.open).map(|s| s.weight).sum();
                // Close the slots whose fair share covers their ceiling.
                let mut saturated = false;
                for s in slots.iter_mut().filter(|s| s.open) {
                    if remaining * s.weight / wsum >= s.ceiling {
                        s.granted = s.ceiling;
                        s.open = false;
                        saturated = true;
                    }
                }
                // Deduct what saturated domains took (summed in id order).
                let taken: f64 = slots.iter().map(|s| s.granted).sum();
                remaining = capacity - taken;
                if !saturated {
                    // No one saturates: give proportional shares (of the
                    // unchanged open set's `wsum`) and stop.
                    for s in slots.iter_mut().filter(|s| s.open) {
                        s.granted = remaining * s.weight / wsum;
                    }
                    remaining = 0.0;
                    break;
                }
            }
        }

        // 4. Debit credits and produce allocations.
        out.clear();
        for (d, s) in demands.iter().zip(&slots) {
            self.state_mut(d.dom).credits -= s.granted;
            out.push(Allocation {
                dom: d.dom,
                core_secs: s.granted,
                starved_core_secs: (d.core_secs.max(0.0) - s.granted).max(0.0),
            });
        }
        self.slots = slots;

        if audit::is_enabled() {
            let total: f64 = out.iter().map(|a| a.core_secs).sum();
            audit::check(
                "xen.sched.capacity",
                0,
                total <= capacity * (1.0 + 1e-9) + 1e-12,
                || format!("granted {total} core-s exceeds capacity {capacity} core-s"),
            );
            for a in out.iter() {
                audit::check(
                    "xen.sched.allocation_nonnegative",
                    0,
                    a.core_secs >= 0.0
                        && a.core_secs.is_finite()
                        && a.starved_core_secs >= 0.0
                        && a.starved_core_secs.is_finite(),
                    || {
                        format!(
                            "domain {:?}: granted {} core-s, starved {} core-s",
                            a.dom, a.core_secs, a.starved_core_secs
                        )
                    },
                );
            }
            for (id, st) in self.doms.iter().enumerate() {
                let Some(st) = st else { continue };
                audit::check(
                    "xen.sched.credits_finite",
                    0,
                    st.credits.is_finite(),
                    || {
                        format!(
                            "domain {:?} credit balance is {}",
                            DomId(id as u32),
                            st.credits
                        )
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(cores: u32, doms: &[(u32, u32, Option<u32>, u32)]) -> CreditScheduler {
        // (id, weight, cap, vcpus)
        let mut s = CreditScheduler::new(cores);
        for &(id, weight, cap_percent, vcpus) in doms {
            s.add_domain(
                DomId(id),
                SchedParams {
                    weight,
                    cap_percent,
                    vcpus,
                },
            );
        }
        s
    }

    fn demand(id: u32, cs: f64) -> Demand {
        Demand {
            dom: DomId(id),
            core_secs: cs,
        }
    }

    #[test]
    fn single_domain_gets_its_demand() {
        let mut s = sched(8, &[(1, 256, None, 2)]);
        let a = s.allocate(0.01, &[demand(1, 0.015)]);
        assert_eq!(a.len(), 1);
        assert!((a[0].core_secs - 0.015).abs() < 1e-12);
        assert_eq!(a[0].starved_core_secs, 0.0);
    }

    #[test]
    fn vcpu_count_limits_allocation() {
        let mut s = sched(8, &[(1, 256, None, 2)]);
        // Demand 5 core-quanta but only 2 VCPUs → at most 2·dt.
        let a = s.allocate(0.01, &[demand(1, 0.05)]);
        assert!((a[0].core_secs - 0.02).abs() < 1e-12);
        assert!((a[0].starved_core_secs - 0.03).abs() < 1e-12);
    }

    #[test]
    fn cap_limits_allocation() {
        let mut s = sched(8, &[(1, 256, Some(50), 2)]);
        let a = s.allocate(0.01, &[demand(1, 0.02)]);
        // 50% of one CPU → 0.005 core-seconds per 10 ms quantum.
        assert!((a[0].core_secs - 0.005).abs() < 1e-12);
    }

    #[test]
    fn weights_split_contended_capacity() {
        // 1 core, two saturating domains with 2:1 weights.
        let mut s = sched(1, &[(1, 512, None, 4), (2, 256, None, 4)]);
        let mut got = [0.0, 0.0];
        for _ in 0..300 {
            let a = s.allocate(0.01, &[demand(1, 1.0), demand(2, 1.0)]);
            got[0] += a[0].core_secs;
            got[1] += a[1].core_secs;
        }
        let ratio = got[0] / got[1];
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
        // Work-conserving: total equals capacity.
        let total = got[0] + got[1];
        assert!((total - 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn work_conserving_when_one_domain_idle() {
        let mut s = sched(2, &[(1, 256, None, 4), (2, 256, None, 4)]);
        let a = s.allocate(0.01, &[demand(1, 0.02), demand(2, 0.0)]);
        assert!((a[0].core_secs - 0.02).abs() < 1e-12);
        assert_eq!(a[1].core_secs, 0.0);
    }

    #[test]
    fn under_class_preempts_over_class() {
        let mut s = sched(1, &[(1, 256, None, 1), (2, 256, None, 1)]);
        // Let dom1 burn its credits while dom2 idles.
        for _ in 0..100 {
            s.allocate(0.01, &[demand(1, 1.0)]);
        }
        assert!(s.credits(DomId(1)).unwrap() < 0.0);
        assert!(s.credits(DomId(2)).unwrap() >= 0.0);
        // Now both demand; dom2 (UNDER) should win most of the quantum.
        let a = s.allocate(0.01, &[demand(1, 1.0), demand(2, 0.008)]);
        assert!((a[1].core_secs - 0.008).abs() < 1e-9, "dom2 {:?}", a[1]);
        // dom1 (OVER) picks up the remainder (work conserving).
        assert!(a[0].core_secs > 0.0);
    }

    #[test]
    fn credits_clamped_to_one_period() {
        let mut s = sched(4, &[(1, 256, None, 2)]);
        for _ in 0..10_000 {
            s.allocate(0.01, &[]); // idle: credits accrue but clamp
        }
        let c = s.credits(DomId(1)).unwrap();
        assert!(c <= 4.0 * 0.030 + 1e-9, "credits {c}");
    }

    #[test]
    fn conservation_never_over_allocates() {
        let mut s = sched(
            2,
            &[(1, 100, None, 2), (2, 300, None, 2), (3, 600, Some(25), 1)],
        );
        for step in 0..1000 {
            let d = [
                demand(1, 0.001 * (step % 30) as f64),
                demand(2, 0.02),
                demand(3, 0.01),
            ];
            let a = s.allocate(0.01, &d);
            let total: f64 = a.iter().map(|x| x.core_secs).sum();
            assert!(total <= 2.0 * 0.01 + 1e-9, "over-allocated {total}");
            for (alloc, dem) in a.iter().zip(&d) {
                assert!(alloc.core_secs <= dem.core_secs + 1e-9);
                assert!(alloc.core_secs >= 0.0);
            }
        }
    }

    #[test]
    fn set_cap_applies_and_clears_at_runtime() {
        let mut s = sched(8, &[(1, 256, None, 2)]);
        assert_eq!(s.set_cap(DomId(1), Some(50)), None);
        let a = s.allocate(0.01, &[demand(1, 0.02)]);
        assert!((a[0].core_secs - 0.005).abs() < 1e-12, "{:?}", a[0]);
        assert_eq!(s.set_cap(DomId(1), None), Some(50));
        let a = s.allocate(0.01, &[demand(1, 0.02)]);
        assert!((a[0].core_secs - 0.02).abs() < 1e-12, "{:?}", a[0]);
    }

    #[test]
    fn removed_domain_is_gone() {
        let mut s = sched(4, &[(1, 256, None, 2), (2, 256, None, 2)]);
        assert_eq!(s.domains().count(), 2);
        s.remove_domain(DomId(1));
        assert_eq!(s.domains().count(), 1);
        assert!(s.credits(DomId(1)).is_none());
        // Remaining domain still schedulable.
        let a = s.allocate(0.01, &[demand(2, 0.01)]);
        assert!(a[0].core_secs > 0.0);
    }

    #[test]
    fn zero_demand_allocates_zero() {
        let mut s = sched(4, &[(1, 256, None, 2)]);
        let a = s.allocate(0.01, &[demand(1, 0.0)]);
        assert_eq!(a[0].core_secs, 0.0);
        assert_eq!(a[0].starved_core_secs, 0.0);
    }

    #[test]
    fn empty_demand_list_is_fine() {
        let mut s = sched(4, &[(1, 256, None, 2)]);
        assert!(s.allocate(0.01, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "unique and sorted")]
    fn duplicate_demands_panic() {
        // Two demands for one domain used to merge into one grant that
        // both reported, over-allocating and debiting credits twice.
        let mut s = sched(1, &[(0, 256, None, 2)]);
        s.allocate(0.01, &[demand(0, 0.008), demand(0, 0.008)]);
    }

    #[test]
    #[should_panic(expected = "unique and sorted")]
    fn unsorted_demands_panic() {
        let mut s = sched(1, &[(1, 256, None, 2), (2, 256, None, 2)]);
        s.allocate(0.01, &[demand(2, 0.005), demand(1, 0.005)]);
    }

    #[test]
    #[should_panic(expected = "unregistered domain")]
    fn unknown_domain_panics() {
        let mut s = sched(1, &[]);
        s.allocate(0.01, &[demand(9, 0.01)]);
    }
}
