//! Sharded discrete-event execution with conservative cross-shard
//! synchronization.
//!
//! A [`ShardedEngine`] partitions the simulated world into *shards* —
//! one per physical host plus a client/generator shard — each owning
//! its own pending-event set and clock (a [`ShardLogic`]
//! implementation, typically wrapping an [`crate::Engine`]). Shards are
//! connected by typed channels declared in a [`Topology`]; every
//! channel carries a *minimum latency*, the physical network/disk delay
//! below which no message can travel. That latency is the protocol's
//! **lookahead**.
//!
//! ## Horizon protocol
//!
//! Execution proceeds in rounds. Each round the runner computes, per
//! shard `i`, a conservative horizon
//!
//! ```text
//! bound[i] = min over shards k of ( next[k] + shortest_path(k → i) )
//! ```
//!
//! where `next[k]` is the timestamp of shard `k`'s earliest pending
//! unit (local event or undelivered message) and `shortest_path` is the
//! minimum summed channel latency over every ≥ 1-edge route — the
//! transitive closure, so multi-hop chains through otherwise idle
//! shards are accounted for. Any message shard `k` will ever emit is
//! timestamped at or after `next[k]`, so nothing can arrive at `i`
//! before `bound[i]`: every shard with work strictly below its horizon
//! executes that window without coordination. When no shard clears its
//! horizon (a zero-lookahead cycle), the runner degrades to a serial
//! fallback step — it executes exactly the globally minimal unit's
//! timestamp on its owning shard — instead of deadlocking.
//! [`RunMode::SingleQueue`] forces the fallback on every step, which is
//! the single-queue oracle the differential tests compare against.
//!
//! ## Merge-order rule
//!
//! Event order must be a pure function of the plan, never of thread
//! timing. Every unit has a total-order key `(time, src_shard, seq)`:
//! local events use the owning shard's id and its engine sequence,
//! cross-shard messages use the *sender's* id and a per-sender send
//! counter. A shard drains its inbox and local queue as one merged
//! stream under that key — a message from shard `j` at time `t` is
//! delivered before shard `i`'s own events at `t` iff `j < i` — so
//! replay is byte-identical at any worker count. An audited `floor`
//! per shard asserts no straggler: once a shard has executed past `t`,
//! a delivery timestamped below `t` is a protocol violation
//! (`shard.merge_order`), and sends below the declared channel latency
//! are rejected (`shard.lookahead`).

use crate::audit;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;

/// Identifier of a shard: its index in the [`Topology`].
pub type ShardId = u32;

/// Directed channel graph between shards, with per-channel minimum
/// latencies (the conservative protocol's lookahead).
#[derive(Debug, Clone)]
pub struct Topology {
    n: u32,
    latency: Vec<Option<SimDuration>>,
}

impl Topology {
    /// A topology of `shards` shards with no channels.
    pub fn new(shards: u32) -> Topology {
        assert!(shards >= 1, "a topology needs at least one shard");
        Topology {
            n: shards,
            latency: vec![None; (shards as usize) * (shards as usize)],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.n
    }

    fn idx(&self, src: ShardId, dst: ShardId) -> usize {
        assert!(src < self.n && dst < self.n, "shard id out of range");
        (src as usize) * (self.n as usize) + (dst as usize)
    }

    /// Declare a directed channel `src → dst` whose messages take at
    /// least `min_latency` to arrive. Declaring the same channel twice
    /// keeps the smaller latency.
    pub fn link(&mut self, src: ShardId, dst: ShardId, min_latency: SimDuration) {
        assert!(src != dst, "a shard does not message itself");
        let at = self.idx(src, dst);
        let cur = self.latency[at];
        self.latency[at] = Some(cur.map_or(min_latency, |c| c.min(min_latency)));
    }

    /// Declare channels in both directions with the same latency.
    pub fn link_both(&mut self, a: ShardId, b: ShardId, min_latency: SimDuration) {
        self.link(a, b, min_latency);
        self.link(b, a, min_latency);
    }

    /// The declared minimum latency of channel `src → dst`, if present.
    pub fn min_latency(&self, src: ShardId, dst: ShardId) -> Option<SimDuration> {
        self.latency[self.idx(src, dst)]
    }

    /// Shortest ≥ 1-edge path latency for every ordered shard pair,
    /// flattened `[src * n + dst]`. `None` means no route. This is the
    /// transitive lookahead matrix the horizon computation uses.
    fn path_matrix(&self) -> Vec<Option<SimDuration>> {
        let n = self.n as usize;
        // Closure allowing zero-edge self paths…
        let mut c = self.latency.clone();
        for i in 0..n {
            c[i * n + i] = Some(SimDuration::ZERO);
        }
        for k in 0..n {
            for i in 0..n {
                let Some(ik) = c[i * n + k] else { continue };
                for j in 0..n {
                    let Some(kj) = c[k * n + j] else { continue };
                    let via = ik + kj;
                    if c[i * n + j].map_or(true, |cur| via < cur) {
                        c[i * n + j] = Some(via);
                    }
                }
            }
        }
        // …then force at least one edge: path(s→d) = min over direct
        // links j→d of closure(s→j) + latency(j→d).
        let mut p = vec![None; n * n];
        for s in 0..n {
            for j in 0..n {
                let Some(sj) = c[s * n + j] else { continue };
                for d in 0..n {
                    let Some(l) = self.latency[j * n + d] else {
                        continue;
                    };
                    let via = sj + l;
                    if p[s * n + d].map_or(true, |cur| via < cur) {
                        p[s * n + d] = Some(via);
                    }
                }
            }
        }
        p
    }
}

/// One undelivered cross-shard message, ordered by the global merge key
/// `(time, src, seq)`.
struct InboxItem<M> {
    time: SimTime,
    src: ShardId,
    seq: u64,
    msg: M,
}

impl<M> InboxItem<M> {
    fn key(&self) -> (SimTime, ShardId, u64) {
        (self.time, self.src, self.seq)
    }
}

impl<M> PartialEq for InboxItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for InboxItem<M> {}
impl<M> PartialOrd for InboxItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InboxItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A message en route to another shard.
struct Outgoing<M> {
    dst: ShardId,
    item: InboxItem<M>,
}

/// Per-unit execution context handed to [`ShardLogic`] callbacks: the
/// only legal way for shard-owned state to reach another shard.
pub struct ShardCtx<'a, M> {
    shard: ShardId,
    now: SimTime,
    limit: SimTime,
    topo: &'a Topology,
    seq: &'a mut u64,
    out: &'a mut Vec<Outgoing<M>>,
}

impl<M> ShardCtx<'_, M> {
    /// The shard this context belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Timestamp of the unit being executed: the delivery time inside
    /// [`ShardLogic::on_message`], the earliest pending local event at
    /// the start of [`ShardLogic::run_local`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Exclusive horizon for [`ShardLogic::run_local`]: every local
    /// event strictly below it must execute, nothing at or beyond it
    /// may. Batched handlers (the timer wheel) must also cap any manual
    /// clock advance here.
    pub fn limit(&self) -> SimTime {
        self.limit
    }

    /// Declared minimum latency of this shard's channel to `dst`, if
    /// one exists — the smallest legal send delay.
    pub fn channel_latency(&self, dst: ShardId) -> Option<SimDuration> {
        self.topo.min_latency(self.shard, dst)
    }

    /// Send `msg` over the channel to `dst`, departing at simulated
    /// instant `origin` (the current event's time) and arriving at
    /// `origin + delay`.
    ///
    /// The channel must exist in the topology and `delay` must be at
    /// least its declared minimum latency — that floor is what makes
    /// the conservative horizons sound, so violating it is rejected
    /// (and recorded under the `shard.lookahead` audit invariant).
    pub fn send(&mut self, origin: SimTime, dst: ShardId, delay: SimDuration, msg: M) {
        assert!(
            dst != self.shard,
            "self-sends are local events, not channel messages"
        );
        let lat = self.topo.min_latency(self.shard, dst);
        assert!(
            lat.is_some(),
            "no channel from shard {} to shard {dst}",
            self.shard
        );
        let floor = lat.unwrap_or(SimDuration::ZERO);
        audit::check("shard.lookahead", origin.as_nanos(), delay >= floor, || {
            format!(
                "shard {} sent to {dst} with delay {delay} below the channel's min latency {floor}",
                self.shard
            )
        });
        assert!(
            delay >= floor,
            "channel {} -> {dst} declares min latency {floor} but message departs with delay {delay}",
            self.shard
        );
        let seq = *self.seq;
        *self.seq += 1;
        self.out.push(Outgoing {
            dst,
            item: InboxItem {
                time: origin + delay,
                src: self.shard,
                seq,
                msg,
            },
        });
    }
}

/// The event-processing half of a shard: its own pending-event set and
/// clock, driven by the [`ShardedEngine`] runner.
///
/// Implementations own *all* of their state — queue, clock, RNG lanes —
/// and exchange nothing with other shards except typed messages through
/// [`ShardCtx::send`] (lint rule CL013 enforces this statically for the
/// fleet worlds).
pub trait ShardLogic: Send {
    /// Typed payload carried on this shard's channels.
    type Msg: Send;

    /// Timestamp of the earliest pending local event, if any.
    fn next_local(&mut self) -> Option<SimTime>;

    /// Execute every pending local event with `time < ctx.limit()`, in
    /// local `(time, seq)` order, timestamping any [`ShardCtx::send`]
    /// with the emitting event's time. Returns the number of events
    /// executed.
    fn run_local(&mut self, ctx: &mut ShardCtx<'_, Self::Msg>) -> u64;

    /// Deliver one cross-shard message timestamped `ctx.now()`. The
    /// runner guarantees deliveries arrive in global
    /// `(time, src, seq)` order relative to this shard's local events.
    fn on_message(&mut self, ctx: &mut ShardCtx<'_, Self::Msg>, src: ShardId, msg: Self::Msg);
}

/// How [`ShardedEngine::run`] schedules shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The equivalence oracle: every step executes only the globally
    /// minimal `(time, src, seq)` unit's timestamp, exactly as one
    /// merged calendar queue would.
    SingleQueue,
    /// Conservative lookahead windows; `jobs ≤ 1` runs the rounds
    /// serially, `jobs > 1` spreads shards over that many persistent
    /// worker threads. Replay is byte-identical across all values.
    Windowed {
        /// Worker-thread count (clamped to the shard count).
        jobs: usize,
    },
}

/// Counters describing how a sharded run executed. Replay-affecting
/// state never feeds back from these; they are observability only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windowed rounds in which at least one shard cleared its horizon.
    pub rounds: u64,
    /// Serial fallback steps (all of them, in [`RunMode::SingleQueue`]).
    pub serial_steps: u64,
    /// Local events plus message deliveries executed.
    pub units: u64,
    /// Critical-path units: per round, the largest unit count any one
    /// shard (serial modes) or worker (parallel mode) executed, summed
    /// over the run. `units / critical_units` is the speedup an ideal
    /// zero-overhead parallel execution of the same round schedule
    /// achieves — a machine-independent ceiling the benches report
    /// alongside measured wall-clock.
    pub critical_units: u64,
    /// Cross-shard messages routed.
    pub messages: u64,
}

struct ShardCell<S: ShardLogic> {
    logic: S,
    inbox: BinaryHeap<Reverse<InboxItem<S::Msg>>>,
    send_seq: u64,
    /// Execution floor: the shard has run everything below this time;
    /// a delivery timestamped earlier is a straggler.
    floor: SimTime,
}

/// Key of a shard's next unit under the global merge order: the
/// timestamp plus the effective source shard (itself for a local event,
/// the sender for a queued delivery).
fn next_key<S: ShardLogic>(id: ShardId, cell: &mut ShardCell<S>) -> Option<(SimTime, ShardId)> {
    let local = cell.logic.next_local().map(|t| (t, id));
    let inbox = cell.inbox.peek().map(|Reverse(m)| (m.time, m.src));
    match (local, inbox) {
        (None, m) => m,
        (l, None) => l,
        (Some(l), Some(m)) => Some(l.min(m)),
    }
}

/// Drain one shard up to the exclusive `bound`: merge queued deliveries
/// and local events under the `(time, src, seq)` order and execute
/// them. Outbound messages accumulate in `out`. Returns units executed.
fn drain_cell<S: ShardLogic>(
    id: ShardId,
    cell: &mut ShardCell<S>,
    topo: &Topology,
    bound: SimTime,
    out: &mut Vec<Outgoing<S::Msg>>,
) -> u64 {
    let mut units = 0u64;
    loop {
        let local = cell.logic.next_local();
        let inbox = cell.inbox.peek().map(|Reverse(m)| (m.time, m.src));
        let take_msg = match (local, inbox) {
            (_, None) => false,
            (None, Some(_)) => true,
            // A delivery from src j at time t precedes locals at t iff
            // j < this shard's id — the global merge-order rule.
            (Some(tl), Some(mk)) => mk < (tl, id),
        };
        if take_msg {
            let Some(Reverse(head)) = cell.inbox.pop() else {
                break;
            };
            if head.time >= bound {
                cell.inbox.push(Reverse(head));
                break;
            }
            // `floor` is exclusive: every unit strictly below it has
            // executed. Same-timestamp deliveries are legal (the merge
            // rule orders them after lower-src units at that instant);
            // a *strictly earlier* delivery is a causality straggler.
            let on_time = head.time.saturating_add(SimDuration::from_nanos(1)) >= cell.floor;
            audit::check("shard.merge_order", head.time.as_nanos(), on_time, || {
                format!(
                    "straggler: delivery from {} at {} reached shard {id} after it ran past {}",
                    head.src, head.time, cell.floor
                )
            });
            debug_assert!(on_time, "straggler delivery on shard {id}");
            cell.floor = cell
                .floor
                .max(head.time.saturating_add(SimDuration::from_nanos(1)));
            let mut ctx = ShardCtx {
                shard: id,
                now: head.time,
                limit: head.time,
                topo,
                seq: &mut cell.send_seq,
                out,
            };
            cell.logic.on_message(&mut ctx, head.src, head.msg);
            units += 1;
        } else {
            let Some(tl) = local else { break };
            if tl >= bound {
                break;
            }
            // Run locals only up to the next queued delivery: exactly
            // to it when the sender orders first (src < id), through
            // its timestamp when the sender orders after (src > id).
            let cut = match inbox {
                None => bound,
                Some((tm, src)) if src < id => bound.min(tm),
                Some((tm, _)) => bound.min(tm.saturating_add(SimDuration::from_nanos(1))),
            };
            let mut ctx = ShardCtx {
                shard: id,
                now: tl,
                limit: cut,
                topo,
                seq: &mut cell.send_seq,
                out,
            };
            units += cell.logic.run_local(&mut ctx);
            let after = cell.logic.next_local();
            assert!(
                after.map_or(true, |t| t >= cut),
                "shard {id} run_local left an event at {after:?} below its limit {cut}"
            );
            cell.floor = cell.floor.max(cut);
        }
    }
    units
}

/// Per-shard conservative horizons given every shard's next-unit key.
fn horizons(
    paths: &[Option<SimDuration>],
    n: usize,
    keys: &[Option<(SimTime, ShardId)>],
) -> Vec<SimTime> {
    (0..n)
        .map(|i| {
            let mut b = SimTime::MAX;
            for (k, key) in keys.iter().enumerate() {
                let Some((t, _)) = key else { continue };
                if let Some(p) = paths[k * n + i] {
                    b = b.min(t.saturating_add(p));
                }
            }
            b
        })
        .collect()
}

/// Globally minimal `(time, src, shard)` across every shard's next
/// unit — the fallback step's target and the termination check.
fn global_min(keys: &[Option<(SimTime, ShardId)>]) -> Option<(SimTime, ShardId, usize)> {
    keys.iter()
        .enumerate()
        .filter_map(|(i, k)| k.map(|(t, s)| (t, s, i)))
        .min()
}

/// One round's instructions for a worker: horizons for the shards it
/// must drain plus deliveries bound for shards it owns. Workers exit
/// when the command channel hangs up.
struct Round<M> {
    work: Vec<(usize, SimTime)>,
    deliveries: Vec<(usize, InboxItem<M>)>,
}

struct Reply<M> {
    out: Vec<Outgoing<M>>,
    keys: Vec<(usize, Option<(SimTime, ShardId)>)>,
    units: u64,
}

/// The sharded runner: owns every shard's [`ShardLogic`], the
/// [`Topology`], and the undelivered-message heaps, and executes the
/// conservative protocol in any [`RunMode`].
pub struct ShardedEngine<S: ShardLogic> {
    topo: Topology,
    paths: Vec<Option<SimDuration>>,
    cells: Vec<ShardCell<S>>,
    stats: ShardStats,
}

impl<S: ShardLogic> ShardedEngine<S> {
    /// Build a runner over `shards`, whose index order is the
    /// tie-breaking `src_shard` order of the merge rule.
    pub fn new(topo: Topology, shards: Vec<S>) -> Self {
        assert_eq!(
            shards.len(),
            topo.shards() as usize,
            "one ShardLogic per topology shard"
        );
        let paths = topo.path_matrix();
        let cells = shards
            .into_iter()
            .map(|logic| ShardCell {
                logic,
                inbox: BinaryHeap::new(),
                send_seq: 0,
                floor: SimTime::ZERO,
            })
            .collect();
        ShardedEngine {
            topo,
            paths,
            cells,
            stats: ShardStats::default(),
        }
    }

    /// The shard logic at `id`.
    pub fn logic(&self, id: ShardId) -> &S {
        &self.cells[id as usize].logic
    }

    /// Mutable access to the shard logic at `id` (setup only; calling
    /// this mid-run from another shard's handler is what CL013 bans).
    pub fn logic_mut(&mut self, id: ShardId) -> &mut S {
        &mut self.cells[id as usize].logic
    }

    /// Consume the runner, returning every shard's logic in id order.
    pub fn into_logics(self) -> Vec<S> {
        self.cells.into_iter().map(|c| c.logic).collect()
    }

    /// Counters from the run so far.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Execute every unit timestamped at or before `end` (inclusive,
    /// matching [`crate::Engine::run_until`]) under `mode`. Returns the
    /// accumulated [`ShardStats`].
    pub fn run(&mut self, end: SimTime, mode: RunMode) -> ShardStats {
        match mode {
            RunMode::SingleQueue => self.run_serial(end, true),
            RunMode::Windowed { jobs } if jobs <= 1 => self.run_serial(end, false),
            RunMode::Windowed { jobs } => self.run_parallel(end, jobs),
        }
        self.stats
    }

    fn route(&mut self, out: &mut Vec<Outgoing<S::Msg>>) {
        for o in out.drain(..) {
            self.stats.messages += 1;
            self.cells[o.dst as usize].inbox.push(Reverse(o.item));
        }
    }

    fn run_serial(&mut self, end: SimTime, force_fallback: bool) {
        let n = self.cells.len();
        // Exclusive execution cap: units at exactly `end` still run.
        let hard = end.saturating_add(SimDuration::from_nanos(1));
        let mut out: Vec<Outgoing<S::Msg>> = Vec::new();
        loop {
            let keys: Vec<_> = (0..n)
                .map(|i| next_key(i as ShardId, &mut self.cells[i]))
                .collect();
            let Some((gt, _gs, gi)) = global_min(&keys) else {
                break;
            };
            if gt > end {
                break;
            }
            let mut progressed = false;
            if !force_fallback {
                let hz = horizons(&self.paths, n, &keys);
                let mut round_max = 0u64;
                for (i, key) in keys.iter().enumerate() {
                    let Some((t, _)) = key else { continue };
                    let b = hz[i].min(hard);
                    if *t < b {
                        progressed = true;
                        let units =
                            drain_cell(i as ShardId, &mut self.cells[i], &self.topo, b, &mut out);
                        self.stats.units += units;
                        round_max = round_max.max(units);
                    }
                }
                if progressed {
                    self.stats.rounds += 1;
                    self.stats.critical_units += round_max;
                }
            }
            if !progressed {
                // Zero-lookahead (or oracle mode): execute exactly the
                // globally minimal timestamp on its shard.
                let b = gt.saturating_add(SimDuration::from_nanos(1)).min(hard);
                let units = drain_cell(gi as ShardId, &mut self.cells[gi], &self.topo, b, &mut out);
                self.stats.units += units;
                self.stats.critical_units += units;
                self.stats.serial_steps += 1;
            }
            self.route(&mut out);
        }
    }

    fn run_parallel(&mut self, end: SimTime, jobs: usize) {
        let n = self.cells.len();
        let jobs = jobs.clamp(1, n);
        let hard = end.saturating_add(SimDuration::from_nanos(1));
        let mut keys: Vec<Option<(SimTime, ShardId)>> = (0..n)
            .map(|i| next_key(i as ShardId, &mut self.cells[i]))
            .collect();
        // In-flight deliveries the owning worker has not been handed yet.
        let mut pending: Vec<Vec<InboxItem<S::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let owner: Vec<usize> = (0..n).map(|i| i % jobs).collect();
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); jobs];
        for i in 0..n {
            owned[owner[i]].push(i);
        }
        let topo = &self.topo;
        let paths = &self.paths;
        let stats = &mut self.stats;
        let audit_on = audit::is_enabled();
        let mut parts: Vec<Vec<(usize, &mut ShardCell<S>)>> =
            (0..jobs).map(|_| Vec::new()).collect();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            parts[i % jobs].push((i, cell));
        }
        let reports = std::thread::scope(|scope| {
            let mut cmd_txs = Vec::with_capacity(jobs);
            let mut rep_rxs = Vec::with_capacity(jobs);
            let mut handles = Vec::with_capacity(jobs);
            for part in parts {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Round<S::Msg>>();
                let (rep_tx, rep_rx) = mpsc::channel::<Reply<S::Msg>>();
                cmd_txs.push(cmd_tx);
                rep_rxs.push(rep_rx);
                handles.push(scope.spawn(move || worker(part, topo, audit_on, &cmd_rx, &rep_tx)));
            }
            'rounds: loop {
                let Some((gt, _gs, gi)) = global_min(&keys) else {
                    break;
                };
                if gt > end {
                    break;
                }
                let hz = horizons(paths, n, &keys);
                let mut work: Vec<Vec<(usize, SimTime)>> = vec![Vec::new(); jobs];
                let mut any = false;
                for (i, key) in keys.iter().enumerate() {
                    let Some((t, _)) = key else { continue };
                    let b = hz[i].min(hard);
                    if *t < b {
                        any = true;
                        work[owner[i]].push((i, b));
                    }
                }
                if any {
                    stats.rounds += 1;
                } else {
                    let b = gt.saturating_add(SimDuration::from_nanos(1)).min(hard);
                    work[owner[gi]].push((gi, b));
                    stats.serial_steps += 1;
                }
                let active: Vec<usize> = (0..jobs).filter(|&w| !work[w].is_empty()).collect();
                for &w in &active {
                    let mut deliveries = Vec::new();
                    for &i in &owned[w] {
                        for item in pending[i].drain(..) {
                            deliveries.push((i, item));
                        }
                    }
                    let cmd = Round {
                        work: std::mem::take(&mut work[w]),
                        deliveries,
                    };
                    if cmd_txs[w].send(cmd).is_err() {
                        break 'rounds; // worker died; scope join reports it
                    }
                }
                // Collect in worker-index order so audit absorption and
                // stats stay deterministic; message order itself is
                // already total under (time, src, seq). Key maintenance
                // is two-pass: apply every worker's fresh keys first,
                // THEN fold this round's messages in — a worker's
                // reported key cannot see messages other workers sent to
                // its shards (those sit in `pending` until next round),
                // so interleaving overwrite and fold would lose the
                // message minimum and over-open the next horizons.
                let mut replies = Vec::with_capacity(active.len());
                for &w in &active {
                    let Ok(rep) = rep_rxs[w].recv() else {
                        break 'rounds;
                    };
                    replies.push(rep);
                }
                stats.critical_units += replies.iter().map(|r| r.units).max().unwrap_or(0);
                for rep in &replies {
                    stats.units += rep.units;
                    for (i, key) in &rep.keys {
                        keys[*i] = *key;
                    }
                }
                for rep in replies {
                    for o in rep.out {
                        stats.messages += 1;
                        let dst = o.dst as usize;
                        let mk = (o.item.time, o.item.src);
                        keys[dst] = match keys[dst] {
                            None => Some(mk),
                            Some(cur) => Some(cur.min(mk)),
                        };
                        pending[dst].push(o.item);
                    }
                }
            }
            drop(cmd_txs); // workers see the hangup and exit
            let mut reports = Vec::with_capacity(jobs);
            for h in handles {
                match h.join() {
                    Ok(r) => reports.push(r),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
            reports
        });
        // Undelivered messages past `end` go back to the inboxes so a
        // later `run` call can continue where this one stopped.
        for (i, items) in pending.into_iter().enumerate() {
            for item in items {
                self.cells[i].inbox.push(Reverse(item));
            }
        }
        if audit_on {
            for r in reports {
                audit::absorb(r);
            }
        }
    }
}

fn worker<S: ShardLogic>(
    mut part: Vec<(usize, &mut ShardCell<S>)>,
    topo: &Topology,
    audit_on: bool,
    rx: &mpsc::Receiver<Round<S::Msg>>,
    tx: &mpsc::Sender<Reply<S::Msg>>,
) -> audit::AuditReport {
    if audit_on {
        audit::enable();
    }
    while let Ok(Round { work, deliveries }) = rx.recv() {
        for (shard, item) in deliveries {
            if let Some((_, cell)) = part.iter_mut().find(|(i, _)| *i == shard) {
                cell.inbox.push(Reverse(item));
            }
        }
        let mut out = Vec::new();
        let mut units = 0u64;
        for (shard, bound) in work {
            let Some((_, cell)) = part.iter_mut().find(|(i, _)| *i == shard) else {
                continue; // unreachable: the runner only routes owned shards
            };
            units += drain_cell(shard as ShardId, cell, topo, bound, &mut out);
        }
        let keys = part
            .iter_mut()
            .map(|(i, cell)| (*i, next_key(*i as ShardId, cell)))
            .collect();
        if tx.send(Reply { out, keys, units }).is_err() {
            break;
        }
    }
    audit::take_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted test shard: a heap of local events that log and may
    /// ping other shards; deliveries log and may pong back.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Note(&'static str),
        Ping {
            dst: ShardId,
            delay: SimDuration,
            hops: u32,
        },
    }

    struct TestShard {
        pending: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
        seq: u64,
        log: Vec<(u64, String)>,
    }

    impl TestShard {
        fn new() -> Self {
            TestShard {
                pending: BinaryHeap::new(),
                seq: 0,
                log: Vec::new(),
            }
        }

        fn at(mut self, t: SimTime, ev: Ev) -> Self {
            self.push(t, ev);
            self
        }

        fn push(&mut self, t: SimTime, ev: Ev) {
            self.pending.push(Reverse((t, self.seq, ev)));
            self.seq += 1;
        }
    }

    impl ShardLogic for TestShard {
        type Msg = u32; // remaining hops

        fn next_local(&mut self) -> Option<SimTime> {
            self.pending.peek().map(|Reverse((t, _, _))| *t)
        }

        fn run_local(&mut self, ctx: &mut ShardCtx<'_, u32>) -> u64 {
            let mut ran = 0;
            while let Some(Reverse((t, _, _))) = self.pending.peek() {
                if *t >= ctx.limit() {
                    break;
                }
                let Some(Reverse((t, _, ev))) = self.pending.pop() else {
                    break;
                };
                ran += 1;
                match ev {
                    Ev::Note(s) => self.log.push((t.as_nanos(), format!("local:{s}"))),
                    Ev::Ping { dst, delay, hops } => {
                        self.log.push((t.as_nanos(), format!("ping->{dst}")));
                        ctx.send(t, dst, delay, hops);
                    }
                }
            }
            ran
        }

        fn on_message(&mut self, ctx: &mut ShardCtx<'_, u32>, src: ShardId, hops: u32) {
            let t = ctx.now();
            self.log.push((t.as_nanos(), format!("recv<-{src}:{hops}")));
            if hops > 0 {
                // Pong straight back over the same channel.
                let Some(lat) = ctx.channel_latency(src) else {
                    return;
                };
                ctx.send(t, src, lat, hops - 1);
            }
        }
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_nanos(n * 1_000_000)
    }

    fn tms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    fn logs(engine: ShardedEngine<TestShard>) -> Vec<Vec<(u64, String)>> {
        engine.into_logics().into_iter().map(|s| s.log).collect()
    }

    fn ping_pong_world(lat: SimDuration) -> ShardedEngine<TestShard> {
        let mut topo = Topology::new(2);
        topo.link_both(0, 1, lat);
        let s0 = TestShard::new().at(
            tms(1),
            Ev::Ping {
                dst: 1,
                delay: lat.max(ms(1)),
                hops: 5,
            },
        );
        let s1 = TestShard::new().at(tms(2), Ev::Note("t2"));
        ShardedEngine::new(topo, vec![s0, s1])
    }

    #[test]
    fn ping_pong_identical_across_modes() {
        let end = SimTime::from_secs(1);
        let mut oracle = ping_pong_world(ms(1));
        oracle.run(end, RunMode::SingleQueue);
        let oracle_logs = logs(oracle);
        for jobs in [1usize, 2] {
            let mut e = ping_pong_world(ms(1));
            let stats = e.run(end, RunMode::Windowed { jobs });
            assert_eq!(logs(e), oracle_logs, "jobs={jobs} diverged from oracle");
            assert!(stats.messages >= 6, "ping-pong routed {stats:?}");
        }
    }

    #[test]
    fn zero_lookahead_degrades_to_serial_order() {
        let end = SimTime::from_secs(1);
        let mut oracle = ping_pong_world(SimDuration::ZERO);
        oracle.run(end, RunMode::SingleQueue);
        let oracle_logs = logs(oracle);
        let mut e = ping_pong_world(SimDuration::ZERO);
        let stats = e.run(end, RunMode::Windowed { jobs: 2 });
        assert_eq!(logs(e), oracle_logs, "zero lookahead diverged");
        assert!(
            stats.serial_steps > 0,
            "zero-lookahead topology must fall back: {stats:?}"
        );
    }

    #[test]
    fn merge_order_prefers_lower_source_at_equal_time() {
        // Shards 1 and 2 both message shard 0 arriving at t=5ms, where
        // shard 0 also has two local events. Global order at t=5ms:
        // shard 0's locals (src 0), then src 1's delivery, then src 2's.
        let mut topo = Topology::new(3);
        topo.link(1, 0, ms(1));
        topo.link(2, 0, ms(1));
        for mode in [
            RunMode::SingleQueue,
            RunMode::Windowed { jobs: 1 },
            RunMode::Windowed { jobs: 3 },
        ] {
            let mut e = ShardedEngine::new(
                topo.clone(),
                vec![
                    TestShard::new()
                        .at(tms(5), Ev::Note("a"))
                        .at(tms(5), Ev::Note("b")),
                    TestShard::new().at(
                        tms(4),
                        Ev::Ping {
                            dst: 0,
                            delay: ms(1),
                            hops: 0,
                        },
                    ),
                    TestShard::new().at(
                        tms(4),
                        Ev::Ping {
                            dst: 0,
                            delay: ms(1),
                            hops: 0,
                        },
                    ),
                ],
            );
            e.run(SimTime::from_secs(1), mode);
            let all = logs(e);
            let got: Vec<&str> = all[0].iter().map(|(_, s)| s.as_str()).collect();
            assert_eq!(
                got,
                vec!["local:a", "local:b", "recv<-1:0", "recv<-2:0"],
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn windowed_rounds_exploit_lookahead() {
        // With a fat 10ms latency the ping-pong should complete in
        // conservative windows, not serial fallbacks.
        let end = SimTime::from_secs(1);
        let mut e = ping_pong_world(ms(10));
        let stats = e.run(end, RunMode::Windowed { jobs: 1 });
        assert!(stats.rounds > 0, "no windowed rounds: {stats:?}");
        assert_eq!(stats.serial_steps, 0, "lookahead was ignored: {stats:?}");
    }

    #[test]
    fn isolated_shard_runs_in_one_window() {
        // No in-links means an unbounded horizon: the whole schedule
        // executes in a single round.
        let topo = Topology::new(1);
        let s = TestShard::new()
            .at(tms(1), Ev::Note("x"))
            .at(tms(2), Ev::Note("y"));
        let mut e = ShardedEngine::new(topo, vec![s]);
        let stats = e.run(SimTime::from_secs(1), RunMode::Windowed { jobs: 1 });
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.units, 2);
    }

    #[test]
    fn end_is_inclusive_and_later_events_wait() {
        let topo = Topology::new(1);
        let s = TestShard::new()
            .at(tms(10), Ev::Note("in"))
            .at(tms(11), Ev::Note("out"));
        let mut e = ShardedEngine::new(topo, vec![s]);
        e.run(tms(10), RunMode::Windowed { jobs: 1 });
        let all = logs(e);
        let got: Vec<&str> = all[0].iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(got, vec!["local:in"]);
    }

    #[test]
    #[should_panic(expected = "no channel from shard")]
    fn sending_without_a_channel_panics() {
        let topo = Topology::new(2);
        let s0 = TestShard::new().at(
            tms(1),
            Ev::Ping {
                dst: 1,
                delay: ms(1),
                hops: 0,
            },
        );
        let mut e = ShardedEngine::new(topo, vec![s0, TestShard::new()]);
        e.run(SimTime::from_secs(1), RunMode::Windowed { jobs: 1 });
    }

    #[test]
    #[should_panic(expected = "min latency")]
    fn sending_below_channel_latency_panics() {
        let mut topo = Topology::new(2);
        topo.link(0, 1, ms(5));
        let s0 = TestShard::new().at(
            tms(1),
            Ev::Ping {
                dst: 1,
                delay: ms(1),
                hops: 0,
            },
        );
        let mut e = ShardedEngine::new(topo, vec![s0, TestShard::new()]);
        e.run(SimTime::from_secs(1), RunMode::Windowed { jobs: 1 });
    }

    #[test]
    fn multi_hop_horizons_are_transitive() {
        // 0 → 1 is instantaneous, 1 → 2 is slow. Shard 2's horizon must
        // use the 0→1→2 chain (0 + 10ms), not only the direct 1→2 link,
        // or a relayed message could straggle. The oracle comparison
        // catches any ordering break.
        let mut topo = Topology::new(3);
        topo.link(0, 1, SimDuration::ZERO);
        topo.link(1, 2, ms(10));
        let run = |mode: RunMode| {
            let s0 = TestShard::new().at(
                tms(1),
                Ev::Ping {
                    dst: 1,
                    delay: SimDuration::ZERO,
                    hops: 0,
                },
            );
            // Shard 1 fires a slow ping to 2 after the instant delivery
            // from 0; shard 2 has its own local event in between.
            let s1 = TestShard::new().at(
                tms(2),
                Ev::Ping {
                    dst: 2,
                    delay: ms(10),
                    hops: 0,
                },
            );
            let s2 = TestShard::new().at(tms(3), Ev::Note("late"));
            let mut e = ShardedEngine::new(topo.clone(), vec![s0, s1, s2]);
            e.run(SimTime::from_secs(1), mode);
            logs(e)
        };
        assert_eq!(
            run(RunMode::SingleQueue),
            run(RunMode::Windowed { jobs: 1 })
        );
        assert_eq!(
            run(RunMode::SingleQueue),
            run(RunMode::Windowed { jobs: 3 })
        );
    }

    #[test]
    fn audit_flags_lookahead_breaches_before_the_assert() {
        audit::enable();
        let mut topo = Topology::new(2);
        topo.link(0, 1, ms(5));
        let topo2 = topo.clone();
        let caught = std::panic::catch_unwind(move || {
            let s0 = TestShard::new().at(
                tms(1),
                Ev::Ping {
                    dst: 1,
                    delay: ms(1),
                    hops: 0,
                },
            );
            let mut e = ShardedEngine::new(topo2, vec![s0, TestShard::new()]);
            e.run(SimTime::from_secs(1), RunMode::Windowed { jobs: 1 });
        });
        assert!(caught.is_err(), "undersized delay must panic");
        let report = audit::take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "shard.lookahead"),
            "lookahead breach not audited: {report:?}"
        );
    }
}
