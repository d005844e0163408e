//! The experiment orchestrator: the full request lifecycle of the RUBiS
//! three-tier system, choreographed over the discrete-event engine.
//!
//! Each client request travels:
//!
//! ```text
//! client --net--> web tier (worker pool) --CPU--> [query --net--> DB
//!   --CPU+disk--> --net--> web]* --CPU render--> --net--> client
//! ```
//!
//! CPU phases complete through the platform's scheduler ticks (credit
//! scheduler on the virtualized deployment, host scheduler otherwise);
//! disk and network phases complete at device-computed times. The same
//! orchestration runs unchanged over both platforms — the experimental
//! control the paper's comparison requires.

use crate::config::ExperimentConfig;
use crate::online::OnlineBank;
use crate::platform::{Platform, Tier, TierLoad};
use cloudchar_hw::WorkToken;
use cloudchar_monitor::{
    synthesize_perf_into, synthesize_sysstat_into, ChunkWriter, FaultMonitor, FaultSummary,
    SampleRow, SeriesStore,
};
use cloudchar_rubis::interactions::EntityRanges;
use cloudchar_rubis::{
    queries_for, ClientCohort, Interaction, InteractionProfile, MySqlServer, Query, RetryDecision,
    RetryPolicy, WebAppServer,
};
use cloudchar_simcore::stats::{LogHistogram, Welford};
use cloudchar_simcore::{
    Dist, Engine, EventId, IntMap, Sample, SimDuration, SimRng, SimTime, TimerWheel,
};
use std::collections::VecDeque;

/// Phase of an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// PHP script executing on the web tier.
    WebScript,
    /// Query executing on the DB tier.
    DbCpu,
    /// Response HTML being rendered/marshalled on the web tier.
    WebRender,
}

/// One in-flight HTTP transaction.
#[derive(Debug)]
struct Request {
    session: u32,
    interaction: Interaction,
    profile: InteractionProfile,
    queries: VecDeque<Query>,
    db_bytes: u64,
    last_db_resp: u64,
    io_barrier: SimTime,
    issued: SimTime,
    phase: Phase,
    /// Whether a web worker has picked the request up (it then holds the
    /// worker until finish or failure).
    started: bool,
    /// Pending client-side timeout event (fault-injection runs only).
    timeout: Option<EventId>,
}

/// Why a request failed (fault-injection runs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailCause {
    /// Server-side error: tier down or injected application error.
    Error,
    /// The client's request timeout expired.
    Timeout,
}

/// Fault-injection state. For an empty [`cloudchar_simcore::FaultPlan`]
/// this stays disarmed: no events are scheduled, no RNG is drawn, and the
/// run is byte-identical to the pre-fault testbed.
struct FaultState {
    /// Armed only when the configured plan is non-empty.
    enabled: bool,
    /// Dedicated stream so fault coin-flips never perturb the workload.
    rng: SimRng,
    policy: RetryPolicy,
    monitor: FaultMonitor,
    /// Active injected error probability per tier (`[web, db]`).
    tier_error_p: [f64; 2],
}

/// The simulation world: platform + application models + monitors.
pub struct World {
    /// The deployment substrate.
    pub platform: Platform,
    /// Apache + PHP tier model.
    pub web: WebAppServer,
    /// MySQL tier model.
    pub mysql: MySqlServer,
    /// Emulated client population, stored column-wise.
    pub clients: ClientCohort,
    /// Sampled metric series.
    pub store: SeriesStore,
    /// Requests completed end-to-end.
    pub completed: u64,
    /// End-to-end response-time statistics (seconds).
    pub response_time: Welford,
    /// Response-time histogram for percentile extraction (1 µs – 300 s).
    pub response_hist: LogHistogram,
    /// Per-interaction completion counts (transaction-level view),
    /// indexed by [`Interaction::index`].
    pub interaction_counts: Vec<u64>,
    /// Per-interaction response-time accumulators (seconds).
    pub interaction_latency: Vec<Welford>,
    cfg: ExperimentConfig,
    rng: SimRng,
    /// Batched think-timer wakeups: one engine event per armed bucket
    /// instead of one per client (see [`cloudchar_simcore::wheel`]).
    wheel: TimerWheel,
    faults: FaultState,
    inflight: IntMap<u64, Request>,
    pending_web: VecDeque<u64>,
    next_req: u64,
    tcp_opened: u64,
    completions_scratch: Vec<(Tier, WorkToken)>,
    sample_row: SampleRow,
    /// Streaming trace writer: when armed, sampled rows spill to disk
    /// chunk by chunk instead of accumulating in `store`.
    trace: Option<ChunkWriter>,
    /// First I/O error hit by the trace writer, deferred because the
    /// sampling tick runs inside an engine callback that cannot return
    /// `Result`; surfaced by [`World::take_trace`].
    trace_err: Option<std::io::Error>,
    /// Live sliding-window profilers: when armed, every sampled row
    /// also feeds the per-host online characterization (composes with
    /// tracing — the row is fed before it is routed to either sink).
    online: Option<OnlineBank>,
}

impl World {
    /// Assemble a world (platform and models are built by
    /// [`crate::experiment::run`]).
    pub fn new(
        cfg: ExperimentConfig,
        platform: Platform,
        web: WebAppServer,
        mysql: MySqlServer,
        clients: ClientCohort,
        rng: SimRng,
        fault_rng: SimRng,
    ) -> Self {
        let faults = FaultState {
            enabled: !cfg.faults.is_empty(),
            rng: fault_rng,
            policy: RetryPolicy::default(),
            monitor: FaultMonitor::new(),
            tier_error_p: [0.0, 0.0],
        };
        World {
            platform,
            web,
            mysql,
            clients,
            store: SeriesStore::with_expected_samples(cfg.sample_count()),
            completed: 0,
            response_time: Welford::new(),
            response_hist: LogHistogram::new(1e-6, 300.0, 10),
            interaction_counts: vec![0; Interaction::ALL.len()],
            interaction_latency: vec![Welford::new(); Interaction::ALL.len()],
            cfg,
            rng,
            // 256 one-second buckets: a 256 s horizon, comfortably above
            // the longest delay ever armed (the 120 s think-time cap).
            wheel: TimerWheel::new(SimDuration::from_secs(1), 256),
            faults,
            inflight: IntMap::default(),
            pending_web: VecDeque::new(),
            next_req: 0,
            tcp_opened: 0,
            completions_scratch: Vec::new(),
            sample_row: SampleRow::with_capacity(cloudchar_monitor::TOTAL_METRICS),
            trace: None,
            trace_err: None,
            online: None,
        }
    }

    /// Arm trace spilling: sampled rows go to `writer` (sealed chunks
    /// land on disk) and the in-memory `store` stays empty of series.
    pub fn set_trace_writer(&mut self, writer: ChunkWriter) {
        self.trace = Some(writer);
    }

    /// Disarm tracing, returning the writer (so the caller can
    /// `finish` it) and any I/O error the sampling tick deferred.
    pub fn take_trace(&mut self) -> (Option<ChunkWriter>, Option<std::io::Error>) {
        (self.trace.take(), self.trace_err.take())
    }

    /// Arm live online characterization: every sampled row also feeds
    /// the bank's per-host sliding-window profilers.
    pub fn set_online(&mut self, bank: OnlineBank) {
        self.online = Some(bank);
    }

    /// Disarm online characterization, returning the bank so the caller
    /// can `finish` it into an [`crate::online::OnlineReport`].
    pub fn take_online(&mut self) -> Option<OnlineBank> {
        self.online.take()
    }

    /// Requests currently in flight (for tests).
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Whether fault injection is armed (non-empty plan).
    pub(crate) fn faults_enabled(&self) -> bool {
        self.faults.enabled
    }

    /// Set the injected application-error probability of a tier.
    pub(crate) fn set_tier_error(&mut self, tier: Tier, p: f64) {
        let idx = match tier {
            Tier::Web => 0,
            Tier::Db => 1,
        };
        self.faults.tier_error_p[idx] = p;
    }

    /// The fault-metric collector (attribution windows, outcome counts).
    pub(crate) fn fault_monitor_mut(&mut self) -> &mut FaultMonitor {
        &mut self.faults.monitor
    }

    /// End-of-run fault observability record.
    pub(crate) fn fault_summary(&self) -> FaultSummary {
        self.faults
            .monitor
            .summary(&self.cfg.faults.name, self.cfg.faults.fingerprint())
    }

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
}

/// Install every initial event: staggered client starts, scheduler
/// quanta, housekeeping and sampling.
pub fn bootstrap(engine: &mut Engine<World>, world: &mut World) {
    let end = world.cfg.end_time();
    // Staggered session starts, armed on the timer wheel: the offsets
    // draw from the RNG exactly as the per-client path did, but the
    // engine only sees one event per wheel bucket.
    let ramp = world.cfg.rampup.as_secs_f64().max(0.001);
    for session in 0..world.cfg.clients {
        let offset = Dist::Uniform { lo: 0.0, hi: ramp }.sample(&mut world.rng);
        arm_wake(engine, world, session, SimTime::from_secs_f64(offset));
    }
    // Scheduler quantum.
    let quantum = world.platform.quantum();
    engine.schedule_periodic(SimTime::ZERO + quantum, quantum, move |e, w| {
        let mut done = std::mem::take(&mut w.completions_scratch);
        done.clear();
        w.platform.tick(e.now(), quantum, &mut done);
        for (tier, token) in done.drain(..) {
            on_cpu_complete(e, w, tier, token);
        }
        w.completions_scratch = done;
        e.now() < end
    });
    // Housekeeping (1 s).
    let second = cloudchar_simcore::SimDuration::from_secs(1);
    engine.schedule_periodic(SimTime::ZERO + second, second, move |e, w| {
        housekeeping(e, w);
        e.now() < end
    });
    // Sampling (2 s).
    let interval = world.cfg.sample_interval;
    engine.schedule_periodic(SimTime::ZERO + interval, interval, move |e, w| {
        take_sample(e, w);
        e.now() < end
    });
}

/// Arm `session`'s next wakeup (initial start, think time, retry
/// backoff, abandon pause) on the timer wheel, scheduling an engine
/// event for its bucket only when the wheel asks for one. The entry is
/// tagged with the session's current epoch so wakeups invalidated by a
/// later `bump_epoch` are dropped at drain time.
fn arm_wake(engine: &mut Engine<World>, world: &mut World, session: u32, at: SimTime) {
    let epoch = world.clients.epoch(session);
    if let Some((slot, deadline)) = world.wheel.arm(at, session, epoch) {
        engine.schedule_at(deadline, move |e, w| wheel_fire(e, w, slot));
    }
}

/// Drain one wheel bucket. Fires every wakeup due at the current
/// instant, then — while the bucket's next deadline lands strictly
/// before the engine's next unrelated event — advances the clock to it
/// and keeps draining, batching many client wakes into this one engine
/// dispatch. Each wake still observes its exact armed nanosecond on the
/// clock, so the run is byte-identical to the per-client-event path.
fn wheel_fire(engine: &mut Engine<World>, world: &mut World, slot: usize) {
    if !world.wheel.begin_fire(slot, engine.now()) {
        return; // superseded by an earlier arm; the live event covers it
    }
    let end = world.cfg.end_time();
    loop {
        while let Some((session, epoch)) = world.wheel.pop_due(slot, engine.now()) {
            if world.clients.epoch(session) == epoch {
                fire_request(engine, world, session);
            }
        }
        let Some(next) = world.wheel.next_deadline(slot) else {
            return; // bucket drained; the next arm re-schedules it
        };
        let horizon = engine.peek_next_time();
        if next <= end && horizon.map_or(true, |h| next < h) {
            engine.advance_now_to(next);
        } else {
            world.wheel.commit(slot, next);
            engine.schedule_at(next, move |e, w| wheel_fire(e, w, slot));
            return;
        }
    }
}

fn fire_request(engine: &mut Engine<World>, world: &mut World, session: u32) {
    if engine.now() >= world.cfg.end_time() {
        return;
    }
    let interaction = world.clients.current_interaction(session);
    let profile = InteractionProfile::of(interaction);
    let ranges = world.ranges();
    let queries: VecDeque<Query> = queries_for(interaction, ranges, &mut world.rng)
        .into_iter()
        .collect();
    let req_bytes = profile.sample_request_bytes(&mut world.rng);
    let id = world.next_req;
    world.next_req += 1;
    world.inflight.insert(
        id,
        Request {
            session,
            interaction,
            profile,
            queries,
            db_bytes: 0,
            last_db_resp: 0,
            io_barrier: SimTime::ZERO,
            issued: engine.now(),
            phase: Phase::WebScript,
            started: false,
            timeout: None,
        },
    );
    world.tcp_opened += 1;
    let arrive = world.platform.net_client_to_web(engine.now(), req_bytes);
    engine.schedule_at(arrive, move |e, w| web_arrival(e, w, id));
    if world.faults.enabled {
        let wait = SimDuration::from_secs_f64(world.faults.policy.timeout_s);
        let ev = engine.schedule_in(wait, move |e, w| request_timeout(e, w, id));
        world
            .inflight
            .get_mut(&id)
            .expect("request just inserted")
            .timeout = Some(ev);
    }
}

fn web_arrival(engine: &mut Engine<World>, world: &mut World, id: u64) {
    if !world.inflight.contains_key(&id) {
        return; // request already failed (timeout) while in transit
    }
    if world.faults.enabled {
        if !world.platform.tier_up(Tier::Web) {
            fail_request(engine, world, id, FailCause::Error);
            return;
        }
        let p = world.faults.tier_error_p[0];
        if p > 0.0 && world.faults.rng.chance(p) {
            fail_request(engine, world, id, FailCause::Error);
            return;
        }
    }
    if world.web.on_arrival() {
        start_script(engine, world, id);
    } else {
        world.pending_web.push_back(id);
    }
}

fn start_script(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let cycles = {
        let req = world.inflight.get_mut(&id).expect("request exists");
        req.phase = Phase::WebScript;
        req.started = true;
        req.profile.sample_script_cycles(&mut world.rng)
    };
    world.mysql.connections = world.web.busy();
    world.platform.submit_work(Tier::Web, WorkToken(id), cycles);
    let _ = engine; // CPU completion arrives via the quantum tick
}

fn on_cpu_complete(engine: &mut Engine<World>, world: &mut World, tier: Tier, token: WorkToken) {
    let id = token.0;
    let Some(req) = world.inflight.get(&id) else {
        return; // request already finished (defensive)
    };
    match (tier, req.phase) {
        (Tier::Web, Phase::WebScript) => {
            if let Some(q) = world
                .inflight
                .get_mut(&id)
                .expect("request exists")
                .queries
                .pop_front()
            {
                send_query(engine, world, id, q);
            } else {
                start_render(engine, world, id);
            }
        }
        (Tier::Db, Phase::DbCpu) => {
            let barrier = req.io_barrier.max(engine.now());
            engine.schedule_at(barrier, move |e, w| db_respond(e, w, id));
        }
        (Tier::Web, Phase::WebRender) => {
            finish_request(engine, world, id);
        }
        (t, p) => panic!("completion {t:?} in phase {p:?} for request {id}"),
    }
}

fn send_query(engine: &mut Engine<World>, world: &mut World, id: u64, q: Query) {
    // MySQL wire protocol request: ~90 bytes + parameters.
    let bytes = 90 + (world.rng.below(50));
    let arrive = world.platform.net_web_db(engine.now(), true, bytes);
    engine.schedule_at(arrive, move |e, w| db_execute(e, w, id, q));
}

fn db_execute(engine: &mut Engine<World>, world: &mut World, id: u64, q: Query) {
    if !world.inflight.contains_key(&id) {
        return; // request already failed while the query was in transit
    }
    if world.faults.enabled {
        if !world.platform.tier_up(Tier::Db) {
            fail_request(engine, world, id, FailCause::Error);
            return;
        }
        let p = world.faults.tier_error_p[1];
        if p > 0.0 && world.faults.rng.chance(p) {
            fail_request(engine, world, id, FailCause::Error);
            return;
        }
    }
    let now_s = engine.now().as_secs_f64() as u32;
    let work = world.mysql.execute(q, now_s);
    let mut barrier = engine.now();
    for io in work.ios {
        let done = world.platform.disk_io(engine.now(), Tier::Db, *io);
        barrier = barrier.max(done);
    }
    {
        let req = world.inflight.get_mut(&id).expect("request exists");
        req.phase = Phase::DbCpu;
        req.io_barrier = barrier;
        req.db_bytes += work.response_bytes;
        req.last_db_resp = work.response_bytes;
    }
    world
        .platform
        .submit_work(Tier::Db, WorkToken(id), work.cpu_cycles);
}

fn db_respond(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let resp = {
        let Some(req) = world.inflight.get(&id) else {
            return;
        };
        // Protocol framing on top of row data.
        req.last_db_resp + 30
    };
    let arrive = world.platform.net_web_db(engine.now(), false, resp);
    engine.schedule_at(arrive, move |e, w| web_query_return(e, w, id));
}

fn web_query_return(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let next = {
        let Some(req) = world.inflight.get_mut(&id) else {
            return;
        };
        req.queries.pop_front()
    };
    match next {
        Some(q) => send_query(engine, world, id, q),
        None => start_render(engine, world, id),
    }
}

fn start_render(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let cycles = {
        let req = world.inflight.get_mut(&id).expect("request exists");
        req.phase = Phase::WebRender;
        let resp = req.profile.response_bytes(req.db_bytes);
        world.web.connection_cycles(resp)
    };
    world.platform.submit_work(Tier::Web, WorkToken(id), cycles);
    let _ = engine;
}

fn finish_request(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let (session, resp_bytes, issued) = {
        let req = world.inflight.get(&id).expect("request exists");
        (
            req.session,
            req.profile.response_bytes(req.db_bytes),
            req.issued,
        )
    };
    // Worker writes the PHP session file and frees up.
    let io = world.web.session_write();
    world.platform.disk_io(engine.now(), Tier::Web, io);
    world.web.on_finish();
    if world.web.try_dequeue() {
        let next = world
            .pending_web
            .pop_front()
            .expect("queued count matches pending list");
        start_script(engine, world, next);
    }
    let delivered = world.platform.net_web_to_client(engine.now(), resp_bytes);
    let _ = issued;
    engine.schedule_at(delivered, move |e, w| client_done(e, w, id, session));
}

fn client_done(engine: &mut Engine<World>, world: &mut World, id: u64, session: u32) {
    // A request that already failed (timeout or injected fault) handed
    // its session to the retry path; a late delivery must not advance
    // the session again or double-schedule its next request.
    let Some(req) = world.inflight.remove(&id) else {
        return;
    };
    world.completed += 1;
    let latency = engine.now().duration_since(req.issued).as_secs_f64();
    world.response_time.push(latency);
    world.response_hist.push(latency);
    let idx = req.interaction.index();
    world.interaction_counts[idx] += 1;
    world.interaction_latency[idx].push(latency);
    if world.faults.enabled {
        if let Some(ev) = req.timeout {
            engine.cancel(ev);
        }
        world.faults.monitor.record_ok();
        world.clients.on_success(session);
    }
    world.clients.advance(session, &mut world.rng);
    if engine.now() >= world.cfg.end_time() {
        return;
    }
    let think = world.clients.think_time(session, &mut world.rng);
    let at = engine.now() + think;
    arm_wake(engine, world, session, at);
}

fn request_timeout(engine: &mut Engine<World>, world: &mut World, id: u64) {
    let Some(mut req) = world.inflight.remove(&id) else {
        return; // completed or failed first; its timeout was cancelled
    };
    // This very event is firing — nothing left to cancel.
    req.timeout = None;
    fail_removed(engine, world, id, req, FailCause::Timeout);
}

/// Fail an in-flight request (injected error, crashed tier, dropped
/// work). No-op if the request already completed.
pub(crate) fn fail_request(
    engine: &mut Engine<World>,
    world: &mut World,
    id: u64,
    cause: FailCause,
) {
    let Some(req) = world.inflight.remove(&id) else {
        return;
    };
    fail_removed(engine, world, id, req, cause);
}

fn fail_removed(
    engine: &mut Engine<World>,
    world: &mut World,
    id: u64,
    req: Request,
    cause: FailCause,
) {
    if let Some(ev) = req.timeout {
        engine.cancel(ev);
    }
    if req.started {
        // The request held a web worker; release it like a finish does.
        world.web.on_finish();
        if world.web.try_dequeue() {
            let next = world
                .pending_web
                .pop_front()
                .expect("queued count matches pending list");
            start_script(engine, world, next);
        }
    } else if let Some(pos) = world.pending_web.iter().position(|&x| x == id) {
        // Timed out while still waiting for a worker.
        world.pending_web.remove(pos);
        world.web.drop_queued();
    }
    match cause {
        FailCause::Error => world.faults.monitor.record_error(),
        FailCause::Timeout => world.faults.monitor.record_timeout(),
    }
    let session = req.session;
    let decision = world
        .clients
        .on_failure(session, &world.faults.policy, &mut world.faults.rng);
    let pause = match decision {
        RetryDecision::RetryAfter(d) => {
            world.faults.monitor.record_retry();
            d
        }
        RetryDecision::Abandon(d) => {
            world.faults.monitor.record_abandon();
            d
        }
    };
    if engine.now() >= world.cfg.end_time() {
        return;
    }
    // Invalidate anything still armed for this session before resuming
    // it: the retry wake must be the only one that can fire (the
    // epoch-guard class of bug PR 3 fixed for timeouts).
    world.clients.bump_epoch(session);
    let at = engine.now() + pause;
    arm_wake(engine, world, session, at);
}

fn housekeeping(engine: &mut Engine<World>, world: &mut World) {
    let now = engine.now();
    world.web.manage_pool(now);
    if let Some(io) = world.web.flush_log() {
        world.platform.disk_io(now, Tier::Web, io);
    }
    if let Some(io) = world.mysql.log_flush() {
        world.platform.disk_io(now, Tier::Db, io);
    }
    world.platform.periodic(now);
    let web_mem = world.web.memory_bytes();
    let db_mem = world.mysql.memory_bytes();
    world.platform.set_tier_memory(Tier::Web, web_mem);
    world.platform.set_tier_memory(Tier::Db, db_mem);
    // PHP session state accumulates as clients interact; cap at the
    // population (sessions are reused in the closed loop).
    world.web.tracked_sessions = world
        .web
        .tracked_sessions
        .max((world.next_req.min(u64::from(world.cfg.clients))) as u32);
    world.mysql.connections = world.web.busy();
}

fn take_sample(engine: &mut Engine<World>, world: &mut World) {
    let dt = world.cfg.sample_interval;
    let web_load = TierLoad {
        runq: f64::from(world.web.busy()).min(16.0) * 0.25 + 1.0,
        nproc: f64::from(world.web.workers()) + 70.0,
        blocked: f64::from(world.web.queued()).min(12.0) * 0.25,
        tcp_active: world.tcp_opened as f64,
        tcp_sockets: f64::from(world.web.busy() + world.web.queued()) + 8.0,
        forks: 0.2,
    };
    let db_load = TierLoad {
        runq: 1.0 + f64::from(world.mysql.connections).min(8.0) * 0.2,
        nproc: 30.0 + f64::from(world.mysql.connections),
        blocked: 0.5,
        tcp_active: world.tcp_opened as f64 * 1.5, // queries reopen
        tcp_sockets: f64::from(world.mysql.connections) + 4.0,
        forks: 0.0,
    };
    world.tcp_opened = 0;
    if world.faults.enabled {
        // Same cadence as the catalog series: one availability /
        // error-rate / retry point per sampling interval.
        world.faults.monitor.sample();
    }
    let start = SimTime::ZERO + dt;
    let samples = world.platform.sample_hosts(dt, web_load, db_load);
    for s in samples {
        // One reusable row per host per tick: synthesis appends by
        // cached layout ids, then the whole row commits in one call —
        // no string keys, no map probes, no steady-state allocation.
        world.sample_row.clear();
        synthesize_sysstat_into(&s.raw, s.sysstat_source, &mut world.sample_row);
        if s.has_perf {
            synthesize_perf_into(&s.raw, &mut world.sample_row);
        }
        if let Some(bank) = world.online.as_mut() {
            // Online profiling observes the row before it is routed, so
            // it composes with both sinks and perturbs neither.
            bank.record(s.host, &world.sample_row);
        }
        if let Some(writer) = world.trace.as_mut() {
            let host = writer.host_id(s.host);
            if let Err(e) = writer.record_row(host, start, dt, &world.sample_row) {
                // Deferred: the tick can't return Result through the
                // engine. Disarm so one bad disk reports one error.
                if world.trace_err.is_none() {
                    world.trace_err = Some(e);
                }
                world.trace = None;
            }
        } else {
            let host = world.store.host_id(s.host);
            world.store.record_row(host, start, dt, &world.sample_row);
        }
    }
    let _ = engine;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Deployment;
    use crate::phys::{HostIoPolicy, PhysPlatform};
    use cloudchar_rubis::{Database, DbScale, WorkloadMix};
    use cloudchar_simcore::{FaultEvent, FaultKind};

    fn tiny_world(faulty: bool) -> World {
        let mut cfg = ExperimentConfig::fast(Deployment::NonVirtualized, WorkloadMix::BROWSING);
        cfg.clients = 4;
        if faulty {
            cfg.faults.name = "test".into();
            cfg.faults.events.push(FaultEvent {
                at_s: 10.0,
                duration_s: 5.0,
                kind: FaultKind::DiskSlow { factor: 2.0 },
            });
        }
        let master = SimRng::new(cfg.seed);
        let mut db_rng = master.derive("db-gen");
        let mut client_rng = master.derive("clients");
        let db = Database::generate(DbScale::small(), &mut db_rng);
        let mysql = MySqlServer::new(db, cfg.mysql);
        let web = WebAppServer::new(cfg.web);
        let clients = ClientCohort::new(cfg.clients, cfg.mix, &mut client_rng);
        let platform = Platform::Phys(Box::new(PhysPlatform::new(
            cloudchar_hw::ServerSpec::hp_proliant(),
            HostIoPolicy::default(),
            master.derive("platform"),
        )));
        World::new(
            cfg,
            platform,
            web,
            mysql,
            clients,
            master.derive("workload"),
            master.derive("faults"),
        )
    }

    #[test]
    fn late_completion_after_failure_does_not_double_schedule() {
        // Regression: a request that timed out hands its session to the
        // retry path; when the server's late response finally arrives,
        // client_done must not advance the session or schedule a second
        // think-time resumption for it.
        let mut world = tiny_world(true);
        let mut engine: Engine<World> = Engine::new();
        fire_request(&mut engine, &mut world, 0);
        assert_eq!(world.inflight_count(), 1);
        let interaction_before = world.clients.current_interaction(0);
        // The request fails (as a chaos schedule would make it).
        fail_request(&mut engine, &mut world, 0, FailCause::Timeout);
        assert_eq!(world.inflight_count(), 0);
        let pending_after_fail = engine.pending();
        // The stale delivery event fires afterwards: must be inert.
        client_done(&mut engine, &mut world, 0, 0);
        assert_eq!(engine.pending(), pending_after_fail, "no extra event");
        assert_eq!(
            world.clients.current_interaction(0),
            interaction_before,
            "session must not advance on a stale completion"
        );
    }

    #[test]
    fn timeout_of_queued_request_releases_queue_slot() {
        let mut world = tiny_world(true);
        let mut engine: Engine<World> = Engine::new();
        // Saturate every worker so the next arrival queues.
        let workers = world.web.workers();
        for _ in 0..workers {
            assert!(world.web.on_arrival());
        }
        fire_request(&mut engine, &mut world, 0);
        let id = world.next_req - 1;
        web_arrival(&mut engine, &mut world, id);
        assert_eq!(world.web.queued(), 1);
        fail_request(&mut engine, &mut world, id, FailCause::Timeout);
        assert_eq!(world.web.queued(), 0, "queue slot must be released");
        assert!(world.pending_web.is_empty());
    }

    #[test]
    fn stale_wake_after_epoch_bump_is_dropped_and_fresh_wake_resumes() {
        // Regression for the epoch-guard bug class: a think timer armed
        // before a session abandoned (epoch bump) must be inert when its
        // bucket drains, while a wake armed under the current epoch must
        // still resume the session.
        let mut world = tiny_world(true);
        let mut engine: Engine<World> = Engine::new();
        arm_wake(&mut engine, &mut world, 0, SimTime::from_secs(1));
        world.clients.bump_epoch(0);
        engine.run_until(&mut world, SimTime::from_secs(2));
        assert_eq!(world.inflight_count(), 0, "stale wake fired a request");
        arm_wake(&mut engine, &mut world, 0, SimTime::from_secs(3));
        engine.run_until(&mut world, SimTime::from_secs(4));
        assert_eq!(world.inflight_count(), 1, "fresh wake must resume");
    }

    #[test]
    fn superseded_bucket_event_is_inert() {
        // Two wakes in one bucket, the later armed first: the original
        // bucket event is superseded and must not drain anything early.
        let mut world = tiny_world(false);
        let mut engine: Engine<World> = Engine::new();
        arm_wake(&mut engine, &mut world, 0, SimTime::from_secs_f64(0.7));
        arm_wake(&mut engine, &mut world, 1, SimTime::from_secs_f64(0.3));
        engine.run_until(&mut world, SimTime::from_secs(1));
        // Both wakes fired exactly once despite the superseded event.
        assert_eq!(world.inflight_count(), 2);
        assert_eq!(world.next_req, 2);
    }

    #[test]
    fn fault_free_world_is_disarmed() {
        let mut world = tiny_world(false);
        let mut engine: Engine<World> = Engine::new();
        assert!(!world.faults_enabled());
        let before = engine.pending();
        fire_request(&mut engine, &mut world, 0);
        // Only the web-arrival event — no timeout guard is armed.
        assert_eq!(engine.pending(), before + 1);
        let id = world.next_req - 1;
        assert!(world.inflight.get(&id).expect("inflight").timeout.is_none());
    }
}
