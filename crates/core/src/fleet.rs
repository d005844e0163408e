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
//! deployment co-locates both tiers on one physical host; the
//! [`cloudchar_rubis::QueryEnvelope`] payload is the prepared wire
//! format for a future split-tier topology.
//!
//! Shard-ownership discipline (lint rule CL013): nothing in this module
//! may share state across shards — no `Arc`, locks, cells, statics or
//! atomics. A shard's queue, clock and RNG lanes are reachable from
//! another shard only as messages through [`ShardCtx::send`].

use crate::config::ExperimentConfig;
use crate::online::{OnlineBank, OnlineReport};
use crate::platform::{Platform, Tier, TierLoad};
use crate::virt::{VirtOptions, VirtPlatform};
use cloudchar_hw::{ServerSpec, WorkToken};
use cloudchar_monitor::{
    synthesize_perf_into, synthesize_sysstat_into, ChunkWriter, SampleRow, SeriesStore,
};
use cloudchar_rubis::interactions::EntityRanges;
use cloudchar_rubis::{
    queries_for, ClientCohort, CompletionEnvelope, Database, Interaction, InteractionProfile,
    MySqlServer, Outcome, Query, RequestEnvelope, RetryDecision, RetryPolicy, WebAppServer,
};
use cloudchar_simcore::shard::{
    RunMode, ShardCtx, ShardId, ShardLogic, ShardStats, ShardedEngine, Topology,
};
use cloudchar_simcore::stats::{IntervalTally, Welford};
use cloudchar_simcore::{
    fault, Dist, Engine, FaultKind, FaultPhase, IntMap, Sample, SimDuration, SimRng, SimTime,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

    /// Monitored hosts plus the generator (the "N-host" in the name).
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

/// Phase of an in-flight request inside a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PodPhase {
    Script,
    DbCpu,
    Render,
}

struct PodRequest {
    session: u32,
    epoch: u64,
    interaction: Interaction,
    profile: InteractionProfile,
    queries: VecDeque<Query>,
    db_bytes: u64,
    last_db_resp: u64,
    io_barrier: SimTime,
    phase: PodPhase,
    started: bool,
}

struct PodInner {
    platform: Platform,
    web: WebAppServer,
    mysql: MySqlServer,
    rng: SimRng,
    store: SeriesStore,
    sample_row: SampleRow,
    sample_interval: SimDuration,
    sessions: u32,
    inflight: IntMap<u64, PodRequest>,
    pending_web: VecDeque<u64>,
    next_req: u64,
    tcp_opened: u64,
    tier_error_p: [f64; 2],
    faults_enabled: bool,
    completions_scratch: Vec<(Tier, WorkToken)>,
    /// Completions awaiting the channel back to the generator:
    /// `(event time, envelope)`, flushed by `run_local`.
    outbox: Vec<(SimTime, CompletionEnvelope)>,
    /// Streaming trace sink: when set, samples bypass `store` and are
    /// appended to this pod's on-disk chunk file (labels pre-prefixed
    /// `podNN/`). Owned by the shard — no cross-shard sharing (CL013).
    trace: Option<ChunkWriter>,
    /// First trace I/O error, deferred to the end of the run (the
    /// sampling tick cannot abort the simulation mid-event).
    trace_err: Option<std::io::Error>,
    /// Live sliding-window profilers of this pod's hosts. Shard-owned
    /// like the trace writer (CL013): banks fan across the `--jobs`
    /// pool with the pods and merge only after `into_logics`.
    online: Option<OnlineBank>,
}

impl PodInner {
    fn ranges(&self) -> EntityRanges {
        let cards = self.mysql.db.cardinalities();
        let scale = self.mysql.db.scale();
        EntityRanges {
            users: cards[0] as u32,
            items: cards[1] as u32,
            categories: scale.categories,
            regions: scale.regions,
        }
    }

    fn push_done(&mut self, at: SimTime, req: &PodRequest, outcome: Outcome) {
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

struct PodShard {
    engine: Engine<PodInner>,
    inner: PodInner,
}

impl ShardLogic for PodShard {
    type Msg = FleetMsg;

    fn next_local(&mut self) -> Option<SimTime> {
        self.engine.peek_next_time()
    }

    fn run_local(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>) -> u64 {
        let ran = self.engine.run_before(&mut self.inner, ctx.limit());
        let link = match ctx.channel_latency(GEN_SHARD) {
            Some(l) => l,
            None => return ran,
        };
        for (at, env) in self.inner.outbox.drain(..) {
            ctx.send(at, GEN_SHARD, link, FleetMsg::Done(env));
        }
        ran
    }

    fn on_message(&mut self, ctx: &mut ShardCtx<'_, FleetMsg>, _src: ShardId, msg: FleetMsg) {
        let FleetMsg::Request(env) = msg else {
            return; // completions never target a pod
        };
        let w = &mut self.inner;
        let profile = InteractionProfile::of(env.interaction);
        let queries: VecDeque<Query> = queries_for(env.interaction, w.ranges(), &mut w.rng)
            .into_iter()
            .collect();
        let req_bytes = profile.sample_request_bytes(&mut w.rng);
        let id = w.next_req;
        w.next_req += 1;
        w.inflight.insert(
            id,
            PodRequest {
                session: env.session,
                epoch: env.epoch,
                interaction: env.interaction,
                profile,
                queries,
                db_bytes: 0,
                last_db_resp: 0,
                io_barrier: SimTime::ZERO,
                phase: PodPhase::Script,
                started: false,
            },
        );
        w.tcp_opened += 1;
        let arrive = w.platform.net_client_to_web(ctx.now(), req_bytes);
        self.engine
            .schedule_at(arrive, move |e, w| pod_arrival(e, w, id));
    }
}

fn pod_arrival(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    if !w.inflight.contains_key(&id) {
        return;
    }
    if w.faults_enabled {
        if !w.platform.tier_up(Tier::Web) {
            pod_fail(engine, w, id);
            return;
        }
        let p = w.tier_error_p[0];
        if p > 0.0 && w.rng.chance(p) {
            pod_fail(engine, w, id);
            return;
        }
    }
    if w.web.on_arrival() {
        pod_start_script(engine, w, id);
    } else {
        w.pending_web.push_back(id);
    }
}

fn pod_start_script(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.get_mut(&id) else {
        return;
    };
    req.phase = PodPhase::Script;
    req.started = true;
    let cycles = req.profile.sample_script_cycles(&mut w.rng);
    w.mysql.connections = w.web.busy();
    w.platform.submit_work(Tier::Web, WorkToken(id), cycles);
    let _ = engine; // CPU completion arrives via the quantum tick
}

fn pod_cpu_complete(engine: &mut Engine<PodInner>, w: &mut PodInner, tier: Tier, token: WorkToken) {
    let id = token.0;
    let Some(req) = w.inflight.get_mut(&id) else {
        return; // request already finished or failed
    };
    match (tier, req.phase) {
        (Tier::Web, PodPhase::Script) => match req.queries.pop_front() {
            Some(q) => pod_send_query(engine, w, id, q),
            None => pod_start_render(engine, w, id),
        },
        (Tier::Db, PodPhase::DbCpu) => {
            let barrier = req.io_barrier.max(engine.now());
            engine.schedule_at(barrier, move |e, w| pod_db_respond(e, w, id));
        }
        (Tier::Web, PodPhase::Render) => pod_finish(engine, w, id),
        _ => {} // stale completion for a failed request's token
    }
}

fn pod_send_query(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64, q: Query) {
    let bytes = 90 + w.rng.below(50);
    let arrive = w.platform.net_web_db(engine.now(), true, bytes);
    engine.schedule_at(arrive, move |e, w| pod_db_execute(e, w, id, q));
}

fn pod_db_execute(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64, q: Query) {
    if !w.inflight.contains_key(&id) {
        return;
    }
    if w.faults_enabled {
        if !w.platform.tier_up(Tier::Db) {
            pod_fail(engine, w, id);
            return;
        }
        let p = w.tier_error_p[1];
        if p > 0.0 && w.rng.chance(p) {
            pod_fail(engine, w, id);
            return;
        }
    }
    let now_s = engine.now().as_secs_f64() as u32;
    let work = w.mysql.execute(q, now_s);
    let mut barrier = engine.now();
    for io in work.ios {
        let done = w.platform.disk_io(engine.now(), Tier::Db, *io);
        barrier = barrier.max(done);
    }
    let Some(req) = w.inflight.get_mut(&id) else {
        return;
    };
    req.phase = PodPhase::DbCpu;
    req.io_barrier = barrier;
    req.db_bytes += work.response_bytes;
    req.last_db_resp = work.response_bytes;
    w.platform
        .submit_work(Tier::Db, WorkToken(id), work.cpu_cycles);
}

fn pod_db_respond(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.get(&id) else {
        return;
    };
    let resp = req.last_db_resp + 30;
    let arrive = w.platform.net_web_db(engine.now(), false, resp);
    engine.schedule_at(arrive, move |e, w| pod_query_return(e, w, id));
}

fn pod_query_return(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.get_mut(&id) else {
        return;
    };
    match req.queries.pop_front() {
        Some(q) => pod_send_query(engine, w, id, q),
        None => pod_start_render(engine, w, id),
    }
}

fn pod_start_render(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.get_mut(&id) else {
        return;
    };
    req.phase = PodPhase::Render;
    let resp = req.profile.response_bytes(req.db_bytes);
    let cycles = w.web.connection_cycles(resp);
    w.platform.submit_work(Tier::Web, WorkToken(id), cycles);
    let _ = engine;
}

fn pod_finish(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.remove(&id) else {
        return;
    };
    let io = w.web.session_write();
    w.platform.disk_io(engine.now(), Tier::Web, io);
    w.web.on_finish();
    if w.web.try_dequeue() {
        if let Some(next) = w.pending_web.pop_front() {
            pod_start_script(engine, w, next);
        }
    }
    let resp_bytes = req.profile.response_bytes(req.db_bytes);
    let delivered = w.platform.net_web_to_client(engine.now(), resp_bytes);
    engine.schedule_at(delivered, move |e, w: &mut PodInner| {
        w.push_done(e.now(), &req, Outcome::Ok);
    });
}

/// Fail an in-flight request: release its worker or queue slot and send
/// the client a failure completion at the current instant.
fn pod_fail(engine: &mut Engine<PodInner>, w: &mut PodInner, id: u64) {
    let Some(req) = w.inflight.remove(&id) else {
        return;
    };
    if req.started {
        w.web.on_finish();
        if w.web.try_dequeue() {
            if let Some(next) = w.pending_web.pop_front() {
                pod_start_script(engine, w, next);
            }
        }
    } else if let Some(pos) = w.pending_web.iter().position(|&x| x == id) {
        w.pending_web.remove(pos);
        w.web.drop_queued();
    }
    w.push_done(engine.now(), &req, Outcome::Failed);
}

fn pod_housekeeping(engine: &mut Engine<PodInner>, w: &mut PodInner) {
    let now = engine.now();
    w.web.manage_pool(now);
    if let Some(io) = w.web.flush_log() {
        w.platform.disk_io(now, Tier::Web, io);
    }
    if let Some(io) = w.mysql.log_flush() {
        w.platform.disk_io(now, Tier::Db, io);
    }
    w.platform.periodic(now);
    let web_mem = w.web.memory_bytes();
    let db_mem = w.mysql.memory_bytes();
    w.platform.set_tier_memory(Tier::Web, web_mem);
    w.platform.set_tier_memory(Tier::Db, db_mem);
    w.web.tracked_sessions = w
        .web
        .tracked_sessions
        .max((w.next_req.min(u64::from(w.sessions))) as u32);
    w.mysql.connections = w.web.busy();
}

fn pod_sample(engine: &mut Engine<PodInner>, w: &mut PodInner) {
    let dt = w.sample_interval;
    let web_load = TierLoad {
        runq: f64::from(w.web.busy()).min(16.0) * 0.25 + 1.0,
        nproc: f64::from(w.web.workers()) + 70.0,
        blocked: f64::from(w.web.queued()).min(12.0) * 0.25,
        tcp_active: w.tcp_opened as f64,
        tcp_sockets: f64::from(w.web.busy() + w.web.queued()) + 8.0,
        forks: 0.2,
    };
    let db_load = TierLoad {
        runq: 1.0 + f64::from(w.mysql.connections).min(8.0) * 0.2,
        nproc: 30.0 + f64::from(w.mysql.connections),
        blocked: 0.5,
        tcp_active: w.tcp_opened as f64 * 1.5,
        tcp_sockets: f64::from(w.mysql.connections) + 4.0,
        forks: 0.0,
    };
    w.tcp_opened = 0;
    let start = SimTime::ZERO + dt;
    let samples = w.platform.sample_hosts(dt, web_load, db_load);
    for s in samples {
        w.sample_row.clear();
        synthesize_sysstat_into(&s.raw, s.sysstat_source, &mut w.sample_row);
        if s.has_perf {
            synthesize_perf_into(&s.raw, &mut w.sample_row);
        }
        if let Some(bank) = w.online.as_mut() {
            // Observe the row before routing: online profiling composes
            // with both the resident store and the streaming trace.
            bank.record(s.host, &w.sample_row);
        }
        if let Some(writer) = w.trace.as_mut() {
            let host = writer.host_id(s.host);
            if let Err(e) = writer.record_row(host, start, dt, &w.sample_row) {
                if w.trace_err.is_none() {
                    w.trace_err = Some(e);
                }
                w.trace = None;
            }
        } else {
            let host = w.store.host_id(s.host);
            w.store.record_row(host, start, dt, &w.sample_row);
        }
    }
    let _ = engine;
}

/// Interpret one fault transition against a pod (the per-pod analogue
/// of the single-host plan interpreter in [`crate::faults`]).
fn apply_pod_fault(
    engine: &mut Engine<PodInner>,
    w: &mut PodInner,
    kind: &FaultKind,
    active: bool,
) {
    if let FaultKind::TierErrors { tier, probability } = *kind {
        let idx = match Tier::from(tier) {
            Tier::Web => 0,
            Tier::Db => 1,
        };
        w.tier_error_p[idx] = if active { probability } else { 0.0 };
        return;
    }
    let dropped = w.platform.apply_fault(kind, active);
    for (_tier, token) in dropped {
        pod_fail(engine, w, token.0);
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
    let mut db_rng = master.derive(&format!("pod{index}-db"));
    let platform_rng = master.derive(&format!("pod{index}-platform"));
    let workload_rng = master.derive(&format!("pod{index}-workload"));
    let db = Database::generate(base.db_scale, &mut db_rng);
    let mut mysql = MySqlServer::new(db, base.mysql);
    mysql.prewarm(0.6);
    let web = WebAppServer::new(base.web);
    let platform = Platform::Virt(Box::new(VirtPlatform::new(
        ServerSpec::hp_proliant(),
        VirtOptions {
            overhead: base.overhead,
            vm_cap_percent: base.vm_cap_percent,
            background_vms: base.background_vms,
            background_util: base.background_util,
            background_iops: base.background_iops,
        },
        platform_rng,
    )));
    let sessions_here = base.clients / cfg.pods + u32::from(index < base.clients % cfg.pods);
    let mut inner = PodInner {
        platform,
        web,
        mysql,
        rng: workload_rng,
        store: SeriesStore::with_expected_samples(base.sample_count()),
        sample_row: SampleRow::with_capacity(cloudchar_monitor::TOTAL_METRICS),
        sample_interval: base.sample_interval,
        sessions: sessions_here,
        inflight: IntMap::default(),
        pending_web: VecDeque::new(),
        next_req: 0,
        tcp_opened: 0,
        tier_error_p: [0.0, 0.0],
        faults_enabled: false,
        completions_scratch: Vec::new(),
        outbox: Vec::new(),
        trace: None,
        trace_err: None,
        online: None,
    };
    let mut engine: Engine<PodInner> = Engine::new();
    let end = base.end_time();
    let quantum = inner.platform.quantum();
    engine.schedule_periodic(SimTime::ZERO + quantum, quantum, move |e, w| {
        let mut done = std::mem::take(&mut w.completions_scratch);
        done.clear();
        w.platform.tick(e.now(), quantum, &mut done);
        for (tier, token) in done.drain(..) {
            pod_cpu_complete(e, w, tier, token);
        }
        w.completions_scratch = done;
        e.now() < end
    });
    let second = SimDuration::from_secs(1);
    engine.schedule_periodic(SimTime::ZERO + second, second, move |e, w| {
        pod_housekeeping(e, w);
        e.now() < end
    });
    let interval = base.sample_interval;
    engine.schedule_periodic(SimTime::ZERO + interval, interval, move |e, w| {
        pod_sample(e, w);
        e.now() < end
    });
    if cfg.fault_pod == Some(index) && !base.faults.is_empty() {
        inner.faults_enabled = true;
        fault::install(&base.faults, &mut engine, |e, w, _idx, kind, phase| {
            apply_pod_fault(e, w, kind, phase == FaultPhase::Inject);
        });
    }
    PodShard { engine, inner }
}

/// Run a fleet under an explicit [`RunMode`] (tests use
/// [`RunMode::SingleQueue`] as the equivalence oracle).
pub fn run_fleet_mode(cfg: &FleetConfig, mode: RunMode) -> FleetResult {
    cfg.validate().expect("invalid fleet config");
    // With no trace writers attached the runner cannot produce an I/O
    // error; the deferred-error slot stays empty by construction.
    let (result, _no_trace_err) = run_fleet_inner(cfg, mode, None, None);
    result
}

/// Run a fleet with composable sinks and observers: `trace_dir` streams
/// pod samples to `dir/podNN.cctr` as in [`run_fleet_traced`], and
/// `online_window` arms live sliding-window profiling per pod (the
/// result's `online` report carries `podNN/`-prefixed snapshots). All
/// combinations are valid; neither option changes the simulation, its
/// counters, or the replay fingerprint.
pub fn run_fleet_opts(
    cfg: &FleetConfig,
    jobs: usize,
    trace_dir: Option<&std::path::Path>,
    online_window: Option<usize>,
) -> std::io::Result<FleetResult> {
    if let Err(e) = cfg.validate() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e));
    }
    let writers = match trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let mut writers = Vec::with_capacity(cfg.pods as usize);
            for pod in 0..cfg.pods {
                let path = dir.join(format!("pod{pod:02}.cctr"));
                writers.push(ChunkWriter::create(
                    &path,
                    &format!("pod{pod:02}/"),
                    cloudchar_monitor::CHUNK_SAMPLES,
                )?);
            }
            Some(writers)
        }
        None => None,
    };
    let mode = RunMode::Windowed { jobs: jobs.max(1) };
    let (result, trace_err) = run_fleet_inner(cfg, mode, writers, online_window);
    match trace_err {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

/// Run a fleet with `jobs` workers, streaming every pod's samples to
/// `dir/podNN.cctr` instead of resident [`SeriesStore`]s: the returned
/// result's `store` is empty, and `TraceDir::open(dir)` serves the
/// sampled series out of core. Host labels are written pre-prefixed
/// (`podNN/host`), matching the labels an untraced run's merged store
/// carries.
pub fn run_fleet_traced(
    cfg: &FleetConfig,
    jobs: usize,
    dir: &std::path::Path,
) -> std::io::Result<FleetResult> {
    run_fleet_opts(cfg, jobs, Some(dir), None)
}

/// The shared fleet runner. `traces`, when present, holds one
/// [`ChunkWriter`] per pod (in pod order); each is moved into its pod's
/// shard before the run and finalized after. The first deferred or
/// finalization I/O error comes back alongside the result.
fn run_fleet_inner(
    cfg: &FleetConfig,
    mode: RunMode,
    traces: Option<Vec<ChunkWriter>>,
    online_window: Option<usize>,
) -> (FleetResult, Option<std::io::Error>) {
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
    let mut writers = traces.into_iter().flatten();
    let dt_s = base.sample_interval.as_secs_f64();
    for pod in 0..cfg.pods {
        topo.link_both(GEN_SHARD, 1 + pod, cfg.link_latency);
        let mut shard = build_pod(cfg, pod, &master);
        shard.inner.trace = writers.next();
        shard.inner.online = online_window.map(|w| OnlineBank::new(w, dt_s));
        shards.push(FleetShard::Pod(shard));
    }
    let mut engine = ShardedEngine::new(topo, shards);
    let stats = engine.run(cfg.end_time(), mode);

    let mut store = SeriesStore::new();
    let mut completed = 0;
    let mut failed = 0;
    let mut retries = 0;
    let mut abandons = 0;
    let mut latency = Welford::new();
    let mut availability = Vec::new();
    let mut ok_by_pod = Vec::new();
    let mut trace_err: Option<std::io::Error> = None;
    let mut online = online_window.map(|w| OnlineReport {
        window: w,
        snapshots: Vec::new(),
    });
    for (i, shard) in engine.into_logics().into_iter().enumerate() {
        match shard {
            FleetShard::Gen(g) => {
                completed = g.completed;
                failed = g.failed;
                retries = g.retries;
                abandons = g.abandons;
                latency = g.latency;
                availability = g.availability;
                ok_by_pod = g.ok_by_pod;
            }
            FleetShard::Pod(p) => {
                let mut inner = p.inner;
                if let Some(e) = inner.trace_err.take() {
                    if trace_err.is_none() {
                        trace_err = Some(e);
                    }
                }
                if let Some(mut w) = inner.trace.take() {
                    if let Err(e) = w.finish() {
                        if trace_err.is_none() {
                            trace_err = Some(e);
                        }
                    }
                }
                if let (Some(report), Some(bank)) = (online.as_mut(), inner.online.take()) {
                    report.absorb_renamed(bank.finish(), &format!("pod{:02}/", i - 1));
                }
                store.merge_renamed(inner.store, &format!("pod{:02}/", i - 1));
            }
        }
    }
    let result = FleetResult {
        pods: cfg.pods,
        store,
        completed,
        failed,
        retries,
        abandons,
        response_time_mean_s: latency.mean(),
        response_time_max_s: latency.max().unwrap_or(0.0),
        availability,
        ok_by_pod,
        stats,
        online,
    };
    (result, trace_err)
}

/// Run a fleet with `jobs` worker threads (1 = serial windowed rounds).
pub fn run_fleet(cfg: &FleetConfig, jobs: usize) -> FleetResult {
    run_fleet_mode(cfg, RunMode::Windowed { jobs: jobs.max(1) })
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
        let oracle = run_fleet_mode(&cfg, RunMode::SingleQueue);
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
