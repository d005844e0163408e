//! CPU modelling.
//!
//! The testbed expresses computation as **cycle demands**. Work items
//! (request processing steps) carry a number of cycles; a CPU executes
//! cycles at `cores × hz` per second of wall time it is allocated. The
//! scheduler layers (the Xen credit scheduler for VMs, the host OS
//! scheduler for physical machines) decide how much CPU time each
//! consumer receives per scheduling quantum and drain the consumer's
//! [`WorkQueue`] by the corresponding number of cycles.
//!
//! This fluid, quantum-based model is far cheaper than simulating core
//! occupancy per request, yet produces exactly the observable the paper
//! plots: cycles consumed per 2-second sample.

use cloudchar_simcore::round_u64;
use cloudchar_simcore::stats::Counter;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static description of a processor package.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Number of physical cores.
    pub cores: u32,
    /// Core clock in Hz.
    pub hz: u64,
}

impl CpuSpec {
    /// The paper's cloud servers: 8 Intel Xeon cores at 2.8 GHz.
    pub fn xeon_2_8ghz_8core() -> Self {
        CpuSpec {
            cores: 8,
            hz: 2_800_000_000,
        }
    }

    /// Total cycles the package can execute in `seconds` of wall time.
    pub fn capacity_cycles(&self, seconds: f64) -> f64 {
        self.cores as f64 * self.hz as f64 * seconds
    }
}

/// Opaque completion token carried by a work item; the owner maps tokens
/// back to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkToken(pub u64);

/// One unit of CPU work awaiting execution.
#[derive(Debug, Clone)]
struct WorkItem {
    token: WorkToken,
    cycles_remaining: f64,
}

/// FIFO queue of cycle demands belonging to one consumer (a domain, or a
/// process class on a physical host).
///
/// Draining is fluid: a drain of `c` cycles completes zero or more items
/// and may leave the head item partially executed.
#[derive(Debug, Default)]
pub struct WorkQueue {
    items: VecDeque<WorkItem>,
    /// Total cycles currently enqueued (including partial head).
    backlog_cycles: f64,
    /// Cumulative cycles executed from this queue.
    executed: Counter,
    /// Cumulative work items completed.
    completed: Counter,
}

impl WorkQueue {
    /// Fresh empty queue.
    pub fn new() -> Self {
        WorkQueue::default()
    }

    /// Enqueue a demand of `cycles` tagged with `token`.
    ///
    /// Panics if `cycles` is negative or not finite.
    #[inline]
    pub fn push(&mut self, token: WorkToken, cycles: f64) {
        assert!(
            cycles.is_finite() && cycles >= 0.0,
            "invalid cycle demand: {cycles}"
        );
        self.backlog_cycles += cycles;
        self.items.push_back(WorkItem {
            token,
            cycles_remaining: cycles,
        });
    }

    /// Execute up to `budget` cycles of queued work, FIFO. Completed
    /// tokens are appended to `completed_out`. Returns the number of
    /// cycles actually executed (≤ budget; less when the queue drains).
    #[inline]
    pub fn drain(&mut self, budget: f64, completed_out: &mut Vec<WorkToken>) -> f64 {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "invalid budget: {budget}"
        );
        if self.items.is_empty() {
            // Nothing runs: `executed` stays 0, and the backlog is >= 0
            // on entry (`push` adds non-negative demands to it, `clear`
            // zeroes it, and every drain ends by clamping it at 0), so
            // the clamp below would leave it alone. The audit still sees
            // both checks, which hold.
            if cloudchar_simcore::audit::is_enabled() {
                self.audit_drain(0.0, budget);
            }
            return 0.0;
        }
        // Accumulate executed cycles directly rather than via
        // `budget - remaining`: with very large budgets, subtracting a
        // small job from the budget is absorbed by floating point and
        // the difference would misreport zero work.
        let mut remaining = budget;
        let mut executed = 0.0;
        while remaining > 0.0 {
            let Some(head) = self.items.front_mut() else {
                break;
            };
            if head.cycles_remaining <= remaining {
                remaining -= head.cycles_remaining;
                executed += head.cycles_remaining;
                self.backlog_cycles -= head.cycles_remaining;
                completed_out.push(head.token);
                self.completed.add(1);
                self.items.pop_front();
            } else {
                head.cycles_remaining -= remaining;
                self.backlog_cycles -= remaining;
                executed += remaining;
                remaining = 0.0;
                // Floating-point subtraction can strand a sub-cycle
                // residue that schedulers with epsilon guards would
                // never allocate time for; sub-cycle work is complete.
                if head.cycles_remaining < 1e-6 {
                    self.backlog_cycles -= head.cycles_remaining;
                    completed_out.push(head.token);
                    self.completed.add(1);
                    self.items.pop_front();
                }
            }
        }
        self.executed.add(round_u64(executed));
        self.audit_drain(executed, budget);
        // Guard against floating-point drift pushing the backlog negative.
        if self.backlog_cycles < 0.0 {
            self.backlog_cycles = 0.0;
        }
        executed
    }

    /// The two invariants of a drain that executed `executed` cycles
    /// against `budget`.
    fn audit_drain(&self, executed: f64, budget: f64) {
        cloudchar_simcore::audit::check(
            "hw.cpu.budget_respected",
            0,
            executed <= budget * (1.0 + 1e-9) + 1.0,
            || format!("queue executed {executed} cycles against a budget of {budget}"),
        );
        cloudchar_simcore::audit::check(
            "hw.cpu.backlog_nonnegative",
            0,
            // Tolerate sub-cycle floating-point residue; anything larger
            // means accounting lost track of queued work.
            self.backlog_cycles > -1.0,
            || format!("backlog drifted to {} cycles", self.backlog_cycles),
        );
    }

    /// Drop all queued work (a crash): returns the tokens of every
    /// abandoned item — including a partially executed head — so the
    /// owner can fail the requests they belong to. Cumulative counters
    /// are untouched; only pending demand is lost.
    pub fn clear(&mut self) -> Vec<WorkToken> {
        let dropped = self.items.drain(..).map(|item| item.token).collect();
        self.backlog_cycles = 0.0;
        dropped
    }

    /// Cycles currently waiting (demand not yet executed).
    pub fn backlog_cycles(&self) -> f64 {
        self.backlog_cycles
    }

    /// Number of queued work items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no work is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Cumulative executed-cycles counter (sysstat-style monotone source).
    pub fn executed_counter(&mut self) -> &mut Counter {
        &mut self.executed
    }

    /// Cumulative completed-items counter.
    pub fn completed_counter(&mut self) -> &mut Counter {
        &mut self.completed
    }

    /// Total cycles executed so far.
    pub fn executed_total(&self) -> u64 {
        self.executed.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_capacity() {
        let s = CpuSpec::xeon_2_8ghz_8core();
        assert_eq!(s.cores, 8);
        assert_eq!(s.capacity_cycles(1.0), 8.0 * 2.8e9);
        assert_eq!(s.capacity_cycles(0.5), 4.0 * 2.8e9);
    }

    #[test]
    fn drain_completes_fifo() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), 100.0);
        q.push(WorkToken(2), 50.0);
        q.push(WorkToken(3), 200.0);
        assert_eq!(q.backlog_cycles(), 350.0);
        let mut done = Vec::new();
        let used = q.drain(160.0, &mut done);
        assert_eq!(used, 160.0);
        assert_eq!(done, vec![WorkToken(1), WorkToken(2)]);
        assert_eq!(q.len(), 1);
        assert!((q.backlog_cycles() - 190.0).abs() < 1e-9);
    }

    #[test]
    fn drain_partial_head_resumes() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(7), 100.0);
        let mut done = Vec::new();
        q.drain(40.0, &mut done);
        assert!(done.is_empty());
        q.drain(60.0, &mut done);
        assert_eq!(done, vec![WorkToken(7)]);
        assert!(q.is_empty());
        assert_eq!(q.backlog_cycles(), 0.0);
    }

    #[test]
    fn drain_underrun_returns_actual() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), 30.0);
        let mut done = Vec::new();
        let used = q.drain(100.0, &mut done);
        assert_eq!(used, 30.0);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), 100.0);
        q.push(WorkToken(2), 100.0);
        let mut done = Vec::new();
        q.drain(150.0, &mut done);
        assert_eq!(q.executed_total(), 150);
        assert_eq!(q.completed_counter().total(), 1);
        assert_eq!(q.executed_counter().take_delta(), 150);
        q.drain(50.0, &mut done);
        assert_eq!(q.executed_counter().take_delta(), 50);
    }

    #[test]
    fn zero_cycle_items_complete_immediately_on_drain() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), 0.0);
        let mut done = Vec::new();
        // Zero-budget drain must not complete anything with positive work...
        q.drain(0.0, &mut done);
        // ...but a zero-cycle item needs an actual drain call with budget.
        q.drain(1.0, &mut done);
        assert_eq!(done, vec![WorkToken(1)]);
    }

    #[test]
    fn empty_drain_changes_nothing_and_is_still_audited() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), 100.0);
        let mut done = Vec::new();
        q.drain(60.0, &mut done);
        q.drain(40.0, &mut done);
        let backlog = q.backlog_cycles();
        cloudchar_simcore::audit::enable();
        assert_eq!(q.drain(1e9, &mut done), 0.0);
        let report = cloudchar_simcore::audit::take_report();
        assert_eq!((report.checks, report.violations_total), (2, 0));
        assert_eq!(q.backlog_cycles().to_bits(), backlog.to_bits());
        assert_eq!(done, vec![WorkToken(1)]);
        assert_eq!(q.executed_total(), 100);
        assert_eq!(q.drain(0.0, &mut done), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid budget")]
    fn empty_drain_still_rejects_a_nan_budget() {
        WorkQueue::new().drain(f64::NAN, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "invalid cycle demand")]
    fn rejects_nan_demand() {
        let mut q = WorkQueue::new();
        q.push(WorkToken(1), f64::NAN);
    }
}
