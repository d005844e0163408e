//! Multi-host fleet simulation over the sharded engine.
//!
//! The single-host experiment ([`crate::experiment::run`]) models the
//! paper's testbed: one physical server, both RUBiS tiers on it. The
//! fleet scales that out the way the production-like follow-up work
//! does — many identical serving hosts behind one client population —
//! and it is where single-run `--jobs` parallelism becomes real:
//!
//! * **shard 0** is the client/generator shard: it owns the whole
//!   [`ClientCohort`], every think timer, and the end-to-end latency
//!   and availability accounting;
//! * **shards 1..=P** are *pods* — one per physical host, each owning a
//!   full three-tier stack (Apache+PHP web VM, MySQL VM, dom0 view)
//!   wrapped around its own [`Engine`] and RNG lanes.
//!
//! Client→server traffic travels as typed [`wire`](cloudchar_rubis::wire)
//! envelopes over [`Topology`] channels whose minimum latency is the
//! client↔server network delay — the conservative protocol's lookahead.
//! Tier→tier (web↔MySQL) hops stay *inside* a pod, because the paper's
//! deployment co-locates both tiers on one physical host. A pod runs the
//! same request pipeline as the single-host world ([`crate::workload`]);
//! only the destination of a request's terminal outcome differs — the
//! channel back to the generator.
//!
//! Shard-ownership discipline (lint rule CL013): nothing in this module
//! or in the pipeline it embeds may share state across shards — no
//! `Arc`, locks, cells, statics or atomics. A shard's queue, clock and
//! RNG lanes are reachable from another shard only as messages through
//! [`ShardCtx::send`].

use crate::config::{Deployment, ExperimentConfig};
use crate::experiment::RunOptions;
use crate::online::OnlineReport;
use crate::workload::{admit, start, FailCause, Lanes, Outcomes, Request, Stack};
use cloudchar_monitor::SeriesStore;
use cloudchar_rubis::{
    ClientCohort, CompletionEnvelope, Outcome, RequestEnvelope, RetryDecision, RetryPolicy,
};
use cloudchar_simcore::shard::{
    RunMode, ShardCtx, ShardId, ShardLogic, ShardStats, ShardedEngine, Topology,
};
use cloudchar_simcore::stats::{IntervalTally, Welford};
use cloudchar_simcore::{Dist, Engine, Sample, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The generator shard's id (also the smallest id, so at equal
/// timestamps its sends order before every pod's local events).
pub const GEN_SHARD: ShardId = 0;

/// Sentinel "session" on the generator's wake heap marking an
/// availability-sampling tick (orders after real sessions at the same
/// instant).
const SAMPLE_WAKE: u32 = u32::MAX;

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-pod tier/platform configuration plus the run's totals:
    /// `base.clients` is the *fleet-wide* session count (distributed
    /// round-robin over pods), `base.duration`/`base.sample_interval`
    /// time the run, and `base.faults` is the chaos plan injected into
    /// [`FleetConfig::fault_pod`].
    pub base: ExperimentConfig,
    /// Number of serving pods (physical hosts); shard ids 1..=pods.
    pub pods: u32,
    /// Client↔server network latency: the channel lookahead.
    pub link_latency: SimDuration,
    /// Pod receiving `base.faults` (`None` = fault-free everywhere).
    pub fault_pod: Option<u32>,
}

impl FleetConfig {
    /// The 13-host paper topology: 4 pods × (web VM + MySQL VM + dom0)
    /// behind one generator shard.
    pub fn paper13() -> FleetConfig {
        let mut base = ExperimentConfig::fast(
            crate::config::Deployment::Virtualized,
            cloudchar_rubis::WorkloadMix::BROWSING,
        );
        base.seed = 777;
        base.clients = 240;
        FleetConfig {
            base,
            pods: 4,
            link_latency: SimDuration::from_nanos(5_000_000), // 5 ms WAN+LAN
            fault_pod: None,
        }
    }

    /// The 100-host fleet configuration: 33 pods (99 monitored hosts)
    /// plus the generator shard.
    pub fn fleet100() -> FleetConfig {
        let mut cfg = FleetConfig::paper13();
        cfg.pods = 33;
        cfg.base.clients = 1650;
        cfg.base.duration = SimDuration::from_secs(60);
        cfg
    }

    /// Monitored hosts plus the generator (the "N-host" in the name):
    /// each pod is a web VM, a MySQL VM and dom0.
    pub fn hosts(&self) -> u32 {
        1 + 3 * self.pods
    }

    /// End-of-run instant.
    pub fn end_time(&self) -> SimTime {
        self.base.end_time()
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.pods == 0 {
            return Err("a fleet needs at least one pod".into());
        }
        if self.base.clients < self.pods {
            return Err("fewer sessions than pods leaves idle pods".into());
        }
        if self.link_latency == SimDuration::ZERO {
            return Err("zero link latency gives the fleet no lookahead".into());
        }
        if let Some(p) = self.fault_pod {
            if p >= self.pods {
                return Err(format!("fault_pod {p} out of range (pods = {})", self.pods));
            }
        }
        if self.base.deployment != Deployment::Virtualized {
            return Err("a fleet pod is one Xen host (web VM + MySQL VM + dom0): \
                        base.deployment must be virtualized"
                .into());
        }
        self.base.validate()
    }
}

/// Typed payload on the fleet's channels.
#[derive(Debug, Clone, Copy)]
pub enum FleetMsg {
    /// Generator → pod: one page request on behalf of a session.
    Request(RequestEnvelope),
    /// Pod → generator: terminal outcome of a request.
    Done(CompletionEnvelope),
}

/// Outcome of a fleet run.
#[derive(Debug)]
pub struct FleetResult {
    /// Pods in the run (shard count minus the generator).
    pub pods: u32,
    /// Merged per-pod series, host labels prefixed `podNN/`.
    pub store: SeriesStore,
    /// Requests completed end-to-end.
    pub completed: u64,
    /// Requests that failed (fault-injected runs).
    pub failed: u64,
    /// Client retries after failures.
    pub retries: u64,
    /// Sessions that abandoned after repeated failures.
    pub abandons: u64,
    /// Mean end-to-end response time in seconds.
    pub response_time_mean_s: f64,
    /// Maximum end-to-end response time in seconds.
    pub response_time_max_s: f64,
    /// Availability per sampling interval (`ok / (ok + failed)`,
    /// 1.0 for idle intervals), sampled on the generator shard.
    pub availability: Vec<f64>,
    /// Per sampling interval, per pod: requests completed OK — the
    /// "neighbors keep serving through pod 0's crash" evidence.
    pub ok_by_pod: Vec<Vec<u64>>,
    /// Runner counters (rounds, units, critical path, messages).
    pub stats: ShardStats,
    /// Live per-pod online profiles (host labels prefixed `podNN/`);
    /// present when the run was armed with an online window. Kept out
    /// of [`FleetResult::fingerprint`] — online profiling observes the
    /// sampled rows, it never changes them.
    pub online: Option<OnlineReport>,
}

impl FleetResult {
    /// FNV-1a fold over every sampled series plus the client-side
    /// counters — the replay fingerprint the differential tests pin.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, _, series) in self.store.iter() {
            for &v in &series.values {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        self.counter_fingerprint(h)
    }

    /// Continue the replay fingerprint from `h` — the FNV fold of the
    /// sampled series (what [`FleetResult::fingerprint`] computes from
    /// `store`, or `TraceDir::fold_values` streams off disk for a
    /// traced run) — over the client-side counters.
    pub fn counter_fingerprint(&self, mut h: u64) -> u64 {
        let mut fold = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for &a in &self.availability {
            fold(a.to_bits());
        }
        for row in &self.ok_by_pod {
            for &n in row {
                fold(n);
            }
        }
        fold(self.completed);
        fold(self.failed);
        fold(self.retries);
        fold(self.abandons);
        fold(self.response_time_mean_s.to_bits());
        fold(self.response_time_max_s.to_bits());
        h
    }

    /// Mean availability over the sample-index window `[lo, hi)`.
    pub fn availability_over(&self, lo: usize, hi: usize) -> f64 {
        let lo = lo.min(self.availability.len());
        let hi = hi.min(self.availability.len());
        if hi <= lo {
            return 1.0;
        }
        self.availability[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }
}

// ---------------------------------------------------------------------
// Generator shard
// ---------------------------------------------------------------------

struct GenShard {
    cohort: ClientCohort,
    rng: SimRng,
    retry_rng: SimRng,
    policy: RetryPolicy,
    wakes: BinaryHeap<Reverse<(SimTime, u32)>>,
    issued: Vec<SimTime>,
    pods: u32,
    link: SimDuration,
    end: SimTime,
    sample_interval: SimDuration,
    completed: u64,
    failed: u64,
    retries: u64,
    abandons: u64,
    latency: Welford,
    /// Availability bucket of the current sampling interval — the same
    /// shared tally [`cloudchar_monitor::FaultMonitor`] uses, closed by
    /// [`GenShard::sample_tick`] with an identical ok/attempted fold,
    /// so the pinned availability fingerprints are unchanged.
    window: IntervalTally,
    window_ok_by_pod: Vec<u64>,
    availability: Vec<f64>,
    ok_by_pod: Vec<Vec<u64>>,
}

impl GenShard {
    /// Pod shard serving `session` (round-robin assignment).
    fn pod_of(&self, session: u32) -> ShardId {
        1 + session % self.pods
    }

    fn arm(&mut self, at: SimTime, session: u32) {
        self.wakes.push(Reverse((at, session)));
    }

    fn sample_tick(&mut self, t: SimTime) {
        let (avail, _err, _retries) = self.window.close();
        self.availability.push(avail);
        self.ok_by_pod.push(self.window_ok_by_pod.clone());
        self.window_ok_by_pod.iter_mut().for_each(|n| *n = 0);
        let next = t + self.sample_interval;
        if next <= self.end {
            self.arm(next, SAMPLE_WAKE);
        }
    }

    fn fire(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>, t: SimTime, session: u32) {
        if t >= self.end {
            return;
        }
        self.issued[session as usize] = t;
        let env = RequestEnvelope {
            session,
            epoch: self.cohort.epoch(session),
            interaction: self.cohort.current_interaction(session),
        };
        ctx.send(t, self.pod_of(session), self.link, FleetMsg::Request(env));
    }
}

impl ShardLogic for GenShard {
    type Msg = FleetMsg;

    fn next_local(&mut self) -> Option<SimTime> {
        self.wakes.peek().map(|Reverse((t, _))| *t)
    }

    fn run_local(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>) -> u64 {
        let mut ran = 0;
        loop {
            match self.wakes.peek() {
                Some(Reverse((t, _))) if *t < ctx.limit() => {}
                _ => break,
            }
            let Some(Reverse((t, who))) = self.wakes.pop() else {
                break;
            };
            ran += 1;
            if who == SAMPLE_WAKE {
                self.sample_tick(t);
            } else {
                self.fire(ctx, t, who);
            }
        }
        ran
    }

    fn on_message(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>, src: ShardId, msg: FleetMsg) {
        let FleetMsg::Done(env) = msg else {
            return; // requests never target the generator
        };
        if self.cohort.epoch(env.session) != env.epoch {
            return; // stale completion for a superseded session epoch
        }
        let now = ctx.now();
        let pause = match env.outcome {
            Outcome::Ok => {
                self.completed += 1;
                self.window.record_ok();
                let pod = (src.saturating_sub(1)) as usize;
                if let Some(n) = self.window_ok_by_pod.get_mut(pod) {
                    *n += 1;
                }
                let served = now.duration_since(self.issued[env.session as usize]);
                self.latency.push(served.as_secs_f64());
                self.cohort.on_success(env.session);
                self.cohort.advance(env.session, &mut self.rng);
                self.cohort.think_time(env.session, &mut self.rng)
            }
            Outcome::Failed => {
                self.failed += 1;
                self.window.record_fail();
                match self
                    .cohort
                    .on_failure(env.session, &self.policy, &mut self.retry_rng)
                {
                    RetryDecision::RetryAfter(d) => {
                        self.retries += 1;
                        d
                    }
                    RetryDecision::Abandon(d) => {
                        self.abandons += 1;
                        d
                    }
                }
            }
        };
        if now < self.end {
            self.arm(now + pause, env.session);
        }
    }
}

// ---------------------------------------------------------------------
// Pod shard: one physical host's three-tier stack around its own engine
// ---------------------------------------------------------------------

/// One pod's world: the shared server stack plus the completions
/// awaiting the channel back to the generator.
struct Pod {
    stack: Stack,
    /// `(event time, envelope)` pairs, flushed by `run_local`.
    outbox: Vec<(SimTime, CompletionEnvelope)>,
}

impl Pod {
    fn push_done(&mut self, at: SimTime, req: &Request, outcome: Outcome) {
        self.outbox.push((
            at,
            CompletionEnvelope {
                session: req.session,
                epoch: req.epoch,
                interaction: req.interaction,
                outcome,
            },
        ));
    }
}

impl Outcomes for Pod {
    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn served(engine: &mut Engine<Pod>, pod: &mut Pod, req: Request) {
        pod.push_done(engine.now(), &req, Outcome::Ok);
    }

    fn failed(engine: &mut Engine<Pod>, pod: &mut Pod, req: Request, _cause: FailCause) {
        pod.push_done(engine.now(), &req, Outcome::Failed);
    }
}

struct PodShard {
    engine: Engine<Pod>,
    pod: Pod,
}

impl ShardLogic for PodShard {
    type Msg = FleetMsg;

    fn next_local(&mut self) -> Option<SimTime> {
        self.engine.peek_next_time()
    }

    fn run_local(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>) -> u64 {
        let ran = self.engine.run_before(&mut self.pod, ctx.limit());
        let link = match ctx.channel_latency(GEN_SHARD) {
            Some(l) => l,
            None => return ran,
        };
        for (at, env) in self.pod.outbox.drain(..) {
            ctx.send(at, GEN_SHARD, link, FleetMsg::Done(env));
        }
        ran
    }

    fn on_message(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>, _src: ShardId, msg: FleetMsg) {
        let FleetMsg::Request(env) = msg else {
            return; // completions never target a pod
        };
        admit(
            &mut self.engine,
            &mut self.pod,
            ctx.now(),
            env.session,
            env.epoch,
            env.interaction,
        );
    }
}

// ---------------------------------------------------------------------
// Shard dispatch + runner
// ---------------------------------------------------------------------

/// One fleet shard: the generator or a pod.
enum FleetShard {
    Gen(GenShard),
    Pod(PodShard),
}

impl ShardLogic for FleetShard {
    type Msg = FleetMsg;

    fn next_local(&mut self) -> Option<SimTime> {
        match self {
            FleetShard::Gen(g) => g.next_local(),
            FleetShard::Pod(p) => p.next_local(),
        }
    }

    fn run_local(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>) -> u64 {
        match self {
            FleetShard::Gen(g) => g.run_local(ctx),
            FleetShard::Pod(p) => p.run_local(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>, src: ShardId, msg: FleetMsg) {
        match self {
            FleetShard::Gen(g) => g.on_message(ctx, src, msg),
            FleetShard::Pod(p) => p.on_message(ctx, src, msg),
        }
    }
}

fn build_pod(cfg: &FleetConfig, index: u32, master: &SimRng) -> PodShard {
    let base = &cfg.base;
    let lanes = Lanes {
        db: master.derive(&format!("pod{index}-db")),
        platform: master.derive(&format!("pod{index}-platform")),
        workload: master.derive(&format!("pod{index}-workload")),
        faults: master.derive(&format!("pod{index}-faults")),
    };
    let sessions = base.clients / cfg.pods + u32::from(index < base.clients % cfg.pods);
    let stack = Stack::new(base, lanes, sessions, cfg.fault_pod == Some(index));
    let mut pod = Pod {
        stack,
        outbox: Vec::new(),
    };
    let mut engine: Engine<Pod> = Engine::new();
    start(&mut engine, &mut pod);
    PodShard { engine, pod }
}

/// Run a fleet under an explicit [`RunMode`] with composable sinks and
/// observers. [`RunOptions::trace_out`] names a directory: every pod
/// streams its samples to `podNN.cctr` there instead of the resident
/// store (host labels pre-prefixed `podNN/`, so `TraceDir::open(dir)`
/// serves the same labels an untraced run's merged store carries).
/// [`RunOptions::online_window`] arms live profiling per pod, reported
/// in [`FleetResult::online`]. Neither option changes the simulation,
/// its counters or the replay fingerprint; tests use
/// [`RunMode::SingleQueue`] as the equivalence oracle.
pub fn run_fleet_opts(
    cfg: &FleetConfig,
    mode: RunMode,
    opts: &RunOptions,
) -> std::io::Result<FleetResult> {
    if let Err(e) = cfg.validate() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e));
    }
    if let Some(dir) = &opts.trace_out {
        std::fs::create_dir_all(dir)?;
    }
    let base = &cfg.base;
    let master = SimRng::new(base.seed);
    let mut client_rng = master.derive("fleet-clients");
    let mut gen = GenShard {
        cohort: ClientCohort::new(base.clients, base.mix, &mut client_rng),
        rng: master.derive("fleet-gen"),
        retry_rng: master.derive("fleet-retries"),
        policy: RetryPolicy::default(),
        wakes: BinaryHeap::new(),
        issued: vec![SimTime::ZERO; base.clients as usize],
        pods: cfg.pods,
        link: cfg.link_latency,
        end: base.end_time(),
        sample_interval: base.sample_interval,
        completed: 0,
        failed: 0,
        retries: 0,
        abandons: 0,
        latency: Welford::new(),
        window: IntervalTally::new(),
        window_ok_by_pod: vec![0; cfg.pods as usize],
        availability: Vec::new(),
        ok_by_pod: Vec::new(),
    };
    // Staggered session starts over the ramp-up window, plus the
    // availability sampling tick chain.
    let ramp = base.rampup.as_secs_f64().max(0.001);
    for session in 0..base.clients {
        let offset = Dist::Uniform { lo: 0.0, hi: ramp }.sample(&mut gen.rng);
        gen.arm(SimTime::from_secs_f64(offset), session);
    }
    gen.arm(SimTime::ZERO + base.sample_interval, SAMPLE_WAKE);

    let mut topo = Topology::new(1 + cfg.pods);
    let mut shards: Vec<FleetShard> = Vec::with_capacity(1 + cfg.pods as usize);
    shards.push(FleetShard::Gen(gen));
    for pod in 0..cfg.pods {
        topo.link_both(GEN_SHARD, 1 + pod, cfg.link_latency);
        let mut shard = build_pod(cfg, pod, &master);
        let path = opts
            .trace_out
            .as_ref()
            .map(|dir| dir.join(format!("pod{pod:02}.cctr")));
        let prefix = format!("pod{pod:02}/");
        let trace = path.as_deref().map(|path| (path, prefix.as_str()));
        shard.pod.stack.attach_sinks(trace, opts.online_window)?;
        shards.push(FleetShard::Pod(shard));
    }
    let mut engine = ShardedEngine::new(topo, shards);
    let stats = engine.run(cfg.end_time(), mode);

    let mut store = SeriesStore::new();
    let mut gen = None;
    let mut trace_err: Option<std::io::Error> = None;
    let mut online = opts.online_window.map(|w| OnlineReport {
        window: w,
        snapshots: Vec::new(),
    });
    for (i, shard) in engine.into_logics().into_iter().enumerate() {
        match shard {
            FleetShard::Gen(g) => gen = Some(g),
            FleetShard::Pod(p) => {
                let mut stack = p.pod.stack;
                let prefix = format!("pod{:02}/", i - 1);
                // Seal every pod's trace even after an error; the
                // first error wins.
                match stack.detach_sinks() {
                    Ok(pod_online) => {
                        if let (Some(report), Some(pod)) = (online.as_mut(), pod_online) {
                            report.absorb_renamed(pod, &prefix);
                        }
                    }
                    Err(e) => {
                        trace_err.get_or_insert(e);
                    }
                }
                store.merge_renamed(stack.store, &prefix);
            }
        }
    }
    if let Some(e) = trace_err {
        return Err(e);
    }
    let Some(g) = gen else {
        unreachable!("shard 0 is the generator");
    };
    Ok(FleetResult {
        pods: cfg.pods,
        store,
        completed: g.completed,
        failed: g.failed,
        retries: g.retries,
        abandons: g.abandons,
        response_time_mean_s: g.latency.mean(),
        response_time_max_s: g.latency.max().unwrap_or(0.0),
        availability: g.availability,
        ok_by_pod: g.ok_by_pod,
        stats,
        online,
    })
}

/// Run a fleet with `jobs` worker threads (1 = serial windowed rounds).
pub fn run_fleet(cfg: &FleetConfig, jobs: usize) -> FleetResult {
    let mode = RunMode::Windowed { jobs: jobs.max(1) };
    match run_fleet_opts(cfg, mode, &RunOptions::default()) {
        Ok(result) => result,
        // Without a trace sink the only error is a rejected config.
        Err(e) => panic!("invalid fleet config: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        let mut cfg = FleetConfig::paper13();
        cfg.pods = 2;
        cfg.base.clients = 24;
        cfg.base.duration = SimDuration::from_secs(30);
        cfg.base.rampup = SimDuration::from_secs(5);
        cfg
    }

    #[test]
    fn fleet_serves_requests_on_every_pod() {
        let r = run_fleet(&tiny(), 1);
        assert!(r.completed > 20, "completed {}", r.completed);
        assert_eq!(r.failed, 0);
        assert!(r.response_time_mean_s > 0.0);
        assert_eq!(r.availability.len(), 15);
        assert!(r.availability.iter().all(|&a| a == 1.0));
        let per_pod: Vec<u64> = (0..2)
            .map(|p| r.ok_by_pod.iter().map(|row| row[p]).sum())
            .collect();
        assert!(per_pod.iter().all(|&n| n > 0), "per-pod {per_pod:?}");
        // 2 pods × 3 hosts sampled at the configured cadence.
        assert_eq!(r.store.hosts().len(), 6);
        assert!(r.store.hosts().contains(&"pod00/web-vm"));
        assert!(r.store.hosts().contains(&"pod01/dom0"));
    }

    #[test]
    fn fleet_modes_are_byte_identical() {
        let cfg = tiny();
        let oracle = run_fleet_opts(&cfg, RunMode::SingleQueue, &RunOptions::default())
            .expect("valid fleet config");
        let serial = run_fleet(&cfg, 1);
        let parallel = run_fleet(&cfg, 4);
        assert_eq!(oracle.fingerprint(), serial.fingerprint(), "jobs=1");
        assert_eq!(oracle.fingerprint(), parallel.fingerprint(), "jobs=4");
        assert_eq!(oracle.completed, parallel.completed);
        assert!(parallel.stats.rounds > 0, "{:?}", parallel.stats);
    }

    #[test]
    fn config_validation_catches_nonsense() {
        let mut c = tiny();
        c.pods = 0;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.link_latency = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.fault_pod = Some(9);
        assert!(c.validate().is_err());
        // Pods are always Xen hosts: a bare-metal base is rejected, not
        // silently virtualized.
        let mut c = tiny();
        c.base.deployment = Deployment::NonVirtualized;
        assert!(c.validate().is_err());
        assert_eq!(FleetConfig::paper13().hosts(), 13);
        assert_eq!(FleetConfig::fleet100().hosts(), 100);
        FleetConfig::paper13().validate().expect("paper13 valid");
        FleetConfig::fleet100().validate().expect("fleet100 valid");
    }

    #[test]
    fn critical_path_shows_parallel_headroom() {
        let r = run_fleet(&tiny(), 4);
        assert!(r.stats.critical_units > 0);
        let speedup = r.stats.units as f64 / r.stats.critical_units as f64;
        assert!(
            speedup > 1.5,
            "ideal speedup {speedup:.2} from {:?}",
            r.stats
        );
    }
}
