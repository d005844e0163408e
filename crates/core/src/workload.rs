//! The three-tier RUBiS request pipeline, choreographed over the
//! discrete-event engine, and the single-host world that drives it.
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
//!
//! The server side is one `Stack`: platform, tier models, in-flight
//! requests, the web worker queue, the sample sinks and the fault
//! interpreter. Two hosts embed it. The single-host [`World`] keeps its
//! clients in the same engine; a fleet pod ([`crate::fleet`]) receives
//! them over a shard channel. The pipeline's handlers are generic over
//! `Outcomes`, which says only where a request's terminal outcome
//! goes, so both topologies run every step from one definition.
//!
//! Shard-ownership discipline (lint rule CL013): this code runs inside
//! fleet pod shards, so nothing here may share state across shards — no
//! `Arc`, locks, cells, statics or atomics.

use crate::config::{Deployment, ExperimentConfig};
use crate::online::{OnlineBank, OnlineReport};
use crate::phys::{HostIoPolicy, PhysPlatform};
use crate::platform::{HostSample, Platform, Tier, TierLoad};
use crate::virt::{VirtOptions, VirtPlatform};
use cloudchar_hw::{ServerSpec, WorkToken};
use cloudchar_monitor::{
    synthesize_perf_into, synthesize_sysstat_into, ChunkWriter, FaultMonitor, FaultSummary,
    SampleRow, SeriesStore, CHUNK_SAMPLES,
};
use cloudchar_rubis::interactions::EntityRanges;
use cloudchar_rubis::{
    ClientCohort, Database, Interaction, InteractionProfile, MySqlServer, QueryList, RetryDecision,
    RetryPolicy, WebAppServer,
};
use cloudchar_simcore::stats::{LogHistogram, Welford};
use cloudchar_simcore::{
    fault, Dist, Engine, EventId, FaultKind, FaultPhase, FaultPlan, IntMap, Sample, SimDuration,
    SimRng, SimTime, TimerWheel,
};
use std::collections::VecDeque;
use std::path::Path;

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
pub(crate) struct Request {
    pub(crate) session: u32,
    /// The session's epoch when the request was issued.
    pub(crate) epoch: u64,
    pub(crate) interaction: Interaction,
    queries: QueryList,
    db_bytes: u64,
    last_db_resp: u64,
    io_barrier: SimTime,
    issued: SimTime,
    phase: Phase,
    /// Whether a web worker has picked the request up (it then holds the
    /// worker until finish or failure).
    started: bool,
    /// Pending client-side timeout event (single-host fault runs only).
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

/// Where a request's terminal outcome goes: the one thing the host of a
/// [`Stack`] decides. Every pipeline step is generic over it.
pub(crate) trait Outcomes: Sized + 'static {
    /// The server stack this host embeds.
    fn stack(&mut self) -> &mut Stack;
    /// The response to `req` has reached its client.
    fn served(engine: &mut Engine<Self>, host: &mut Self, req: Request);
    /// `req` failed (its worker or queue slot is already released).
    fn failed(engine: &mut Engine<Self>, host: &mut Self, req: Request, cause: FailCause);
    /// Sampling-tick hook, run before the hosts are sampled.
    fn on_sample(&mut self) {}
}

/// The RNG lanes a [`Stack`] draws from.
pub(crate) struct Lanes {
    /// Database generation.
    pub(crate) db: SimRng,
    /// Platform devices and schedulers.
    pub(crate) platform: SimRng,
    /// Request contents and service demands.
    pub(crate) workload: SimRng,
    /// Fault coin flips, kept apart so they never perturb the workload.
    pub(crate) faults: SimRng,
}

/// The server side of one RUBiS deployment: the platform, both tier
/// models, the in-flight request table, the web worker queue, and the
/// sample sinks.
pub(crate) struct Stack {
    /// The deployment substrate.
    pub(crate) platform: Platform,
    /// Apache + PHP tier model.
    pub(crate) web: WebAppServer,
    /// MySQL tier model.
    pub(crate) mysql: MySqlServer,
    /// Sampled metric series (empty of series while a trace is armed).
    pub(crate) store: SeriesStore,
    /// Workload lane: request contents, service demands, and (on a
    /// single host) the clients' think times.
    rng: SimRng,
    /// Fault lane: tier-error coin flips and (on a single host) the
    /// clients' retry backoff.
    fault_rng: SimRng,
    /// The fault plan this stack carries, empty when it carries none:
    /// then no fault events are scheduled and no fault RNG is drawn.
    /// Fault handlers read each event's kind from it.
    faults: FaultPlan,
    /// Active injected error probability per tier (`[web, db]`).
    tier_error_p: [f64; 2],
    inflight: IntMap<u64, Request>,
    pending_web: VecDeque<u64>,
    next_req: u64,
    tcp_opened: u64,
    /// Sessions this stack serves (caps the PHP session-state estimate).
    sessions: u32,
    sample_interval: SimDuration,
    end: SimTime,
    completions_scratch: Vec<(Tier, WorkToken)>,
    /// Per-tick host samples, reused from tick to tick.
    host_samples: Vec<HostSample>,
    sample_row: SampleRow,
    /// Streaming trace writer: when armed, sampled rows spill to disk
    /// chunk by chunk instead of accumulating in `store`.
    trace: Option<ChunkWriter>,
    /// First I/O error hit by the trace writer, deferred because the
    /// sampling tick runs inside an engine callback that cannot return
    /// `Result`; surfaced by [`Stack::detach_sinks`].
    trace_err: Option<std::io::Error>,
    /// Live sliding-window profilers: when armed, every sampled row
    /// also feeds the per-host online characterization (composes with
    /// tracing — the row is fed before it is routed to either sink).
    online: Option<OnlineBank>,
}

/// The paper's server spec with failure-injected disk degradation.
fn degraded_spec(factor: f64) -> ServerSpec {
    let mut spec = ServerSpec::hp_proliant();
    if factor > 1.0 {
        spec.disk.bandwidth = (spec.disk.bandwidth as f64 / factor) as u64;
        spec.disk.positioning = spec.disk.positioning.mul_f64(factor);
        spec.disk.sequential_positioning = spec.disk.sequential_positioning.mul_f64(factor);
    }
    spec
}

impl Stack {
    /// Build the server side of `cfg`'s deployment for `sessions`
    /// clients: platform, a warm database, and the web tier. `faulty`
    /// says whether this stack receives `cfg.faults`.
    pub(crate) fn new(cfg: &ExperimentConfig, lanes: Lanes, sessions: u32, faulty: bool) -> Stack {
        let Lanes {
            db: mut db_rng,
            platform: platform_rng,
            workload,
            faults,
        } = lanes;
        let spec = degraded_spec(cfg.disk_degradation);
        let db = Database::generate(cfg.db_scale, &mut db_rng);
        let mut mysql = MySqlServer::new(db, cfg.mysql);
        // The paper measures a warm database; leave some cold tail so the
        // early-run read decay of Figure 3 remains visible.
        mysql.prewarm(0.6);
        let platform = match cfg.deployment {
            Deployment::Virtualized => Platform::Virt(Box::new(VirtPlatform::new(
                spec,
                VirtOptions {
                    overhead: cfg.overhead,
                    vm_cap_percent: cfg.vm_cap_percent,
                    background_vms: cfg.background_vms,
                    background_util: cfg.background_util,
                    background_iops: cfg.background_iops,
                },
                platform_rng,
            ))),
            Deployment::NonVirtualized => Platform::Phys(Box::new(PhysPlatform::new(
                spec,
                HostIoPolicy::default(),
                platform_rng,
            ))),
        };
        Stack {
            platform,
            web: WebAppServer::new(cfg.web),
            mysql,
            store: SeriesStore::with_expected_samples(cfg.sample_count()),
            rng: workload,
            fault_rng: faults,
            faults: if faulty {
                cfg.faults.clone()
            } else {
                FaultPlan::default()
            },
            tier_error_p: [0.0, 0.0],
            inflight: IntMap::default(),
            pending_web: VecDeque::new(),
            next_req: 0,
            tcp_opened: 0,
            sessions,
            sample_interval: cfg.sample_interval,
            end: cfg.end_time(),
            completions_scratch: Vec::new(),
            host_samples: Vec::new(),
            sample_row: SampleRow::with_capacity(cloudchar_monitor::TOTAL_METRICS),
            trace: None,
            trace_err: None,
            online: None,
        }
    }

    /// Arm the optional sample sinks: a chunked trace at `trace`'s path,
    /// host labels prefixed with its second element, takes the sampled
    /// rows instead of `store`; an online bank over `online_window`
    /// samples observes every row.
    pub(crate) fn attach_sinks(
        &mut self,
        trace: Option<(&Path, &str)>,
        online_window: Option<usize>,
    ) -> std::io::Result<()> {
        if let Some((path, prefix)) = trace {
            self.trace = Some(ChunkWriter::create(path, prefix, CHUNK_SAMPLES)?);
        }
        let dt_s = self.sample_interval.as_secs_f64();
        self.online = online_window.map(|w| OnlineBank::new(w, dt_s));
        Ok(())
    }

    /// Disarm the sinks: seal the trace (surfacing any I/O error the
    /// sampling tick deferred) and close the online bank into its report.
    pub(crate) fn detach_sinks(&mut self) -> std::io::Result<Option<OnlineReport>> {
        if let Some(e) = self.trace_err.take() {
            return Err(e);
        }
        if let Some(mut w) = self.trace.take() {
            w.finish()?;
        }
        Ok(self.online.take().map(OnlineBank::finish))
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

    /// Whether this stack carries a non-empty fault plan.
    fn faults_enabled(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Injected-error coin flip for `tier` (fault runs only).
    fn tier_fails(&mut self, tier: Tier) -> bool {
        if !self.platform.tier_up(tier) {
            return true;
        }
        let p = self.tier_error_p[tier_index(tier)];
        p > 0.0 && self.fault_rng.chance(p)
    }
}

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Web => 0,
        Tier::Db => 1,
    }
}

/// Schedule the server's own events: the scheduler quantum, 1 s
/// housekeeping and the sampling tick, each until the end of the run,
/// then the inject/clear events of the stack's fault plan when it
/// carries one. Call after the host has scheduled its own start-up
/// events.
pub(crate) fn start<H: Outcomes>(engine: &mut Engine<H>, host: &mut H) {
    let stack = host.stack();
    engine.schedule_at(
        SimTime::ZERO + stack.platform.quantum(),
        quantum_tick::<H>,
        0,
    );
    engine.schedule_at(SimTime::ZERO + HOUSEKEEPING, housekeeping_tick::<H>, 0);
    engine.schedule_at(SimTime::ZERO + stack.sample_interval, sample_tick::<H>, 0);
    if stack.faults_enabled() {
        // The plan was validated with its configuration.
        fault::install(&stack.faults, engine, on_fault::<H>);
    }
}

/// Period of the web and DB tiers' housekeeping.
const HOUSEKEEPING: SimDuration = SimDuration::from_secs(1);

/// Each periodic tick re-arms itself after its work while the run has
/// not ended, so it takes the sequence number a periodic callback
/// re-armed at the same point would.
fn quantum_tick<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, _: u64) {
    let s = host.stack();
    let quantum = s.platform.quantum();
    let mut done = std::mem::take(&mut s.completions_scratch);
    done.clear();
    s.platform.tick(engine.now(), quantum, &mut done);
    for (tier, token) in done.drain(..) {
        on_cpu_complete(engine, host, tier, token);
    }
    let s = host.stack();
    s.completions_scratch = done;
    if engine.now() < s.end {
        engine.schedule_in(quantum, quantum_tick::<H>, 0);
    }
}

fn housekeeping_tick<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, _: u64) {
    let s = host.stack();
    housekeeping(engine.now(), s);
    if engine.now() < s.end {
        engine.schedule_in(HOUSEKEEPING, housekeeping_tick::<H>, 0);
    }
}

fn sample_tick<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, _: u64) {
    host.on_sample();
    let s = host.stack();
    take_sample(s);
    if engine.now() < s.end {
        engine.schedule_in(s.sample_interval, sample_tick::<H>, 0);
    }
}

/// Fault handler armed by [`fault::install`]: the argument names the
/// plan event and the phase.
fn on_fault<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, arg: u64) {
    let (idx, phase) = fault::decode(arg);
    let kind = host.stack().faults.events[idx].kind.clone();
    apply_fault(engine, host, &kind, phase == FaultPhase::Inject);
}

/// Interpret one fault transition: tier errors arm the per-tier error
/// probability, platform faults go through the platform seam, and work
/// dropped by a crash fails its requests.
fn apply_fault<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, kind: &FaultKind, active: bool) {
    if let FaultKind::TierErrors { tier, probability } = *kind {
        host.stack().tier_error_p[tier_index(Tier::from(tier))] =
            if active { probability } else { 0.0 };
        return;
    }
    let dropped = host.stack().platform.apply_fault(kind, active);
    for (_tier, token) in dropped {
        fail_request(engine, host, token.0, FailCause::Error);
    }
}

/// Accept a request from `session` at `now`: draw its queries and
/// request size, open its connection, and send it to the web tier.
/// Returns the request id.
pub(crate) fn admit<H: Outcomes>(
    engine: &mut Engine<H>,
    host: &mut H,
    now: SimTime,
    session: u32,
    epoch: u64,
    interaction: Interaction,
) -> u64 {
    let s = host.stack();
    let ranges = s.ranges();
    let queries = QueryList::draw(interaction, ranges, &mut s.rng);
    let req_bytes = InteractionProfile::of(interaction).sample_request_bytes(&mut s.rng);
    let id = s.next_req;
    s.next_req += 1;
    s.inflight.insert(
        id,
        Request {
            session,
            epoch,
            interaction,
            queries,
            db_bytes: 0,
            last_db_resp: 0,
            io_barrier: SimTime::ZERO,
            issued: now,
            phase: Phase::WebScript,
            started: false,
            timeout: None,
        },
    );
    s.tcp_opened += 1;
    let arrive = s.platform.net_client_to_web(now, req_bytes);
    engine.schedule_at(arrive, web_arrival::<H>, id);
    id
}

fn web_arrival<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, id: u64) {
    let s = host.stack();
    if !s.inflight.contains_key(&id) {
        return; // request already failed (timeout) while in transit
    }
    if s.faults_enabled() && s.tier_fails(Tier::Web) {
        fail_request(engine, host, id, FailCause::Error);
        return;
    }
    if s.web.on_arrival() {
        start_script(s, id);
    } else {
        s.pending_web.push_back(id);
    }
}

/// A web worker picks the request up; its CPU completion arrives via
/// the quantum tick.
fn start_script(s: &mut Stack, id: u64) {
    let req = s.inflight.get_mut(&id).expect("request exists");
    req.phase = Phase::WebScript;
    req.started = true;
    let cycles = InteractionProfile::of(req.interaction).sample_script_cycles(&mut s.rng);
    s.mysql.connections = s.web.busy();
    s.platform.submit_work(Tier::Web, WorkToken(id), cycles);
}

fn on_cpu_complete<H: Outcomes>(
    engine: &mut Engine<H>,
    host: &mut H,
    tier: Tier,
    token: WorkToken,
) {
    let id = token.0;
    let s = host.stack();
    let Some(req) = s.inflight.get_mut(&id) else {
        return; // request already failed; its work was dropped
    };
    match (tier, req.phase) {
        (Tier::Web, Phase::WebScript) => next_query(engine, s, id),
        (Tier::Db, Phase::DbCpu) => {
            let barrier = req.io_barrier.max(engine.now());
            engine.schedule_at(barrier, db_respond::<H>, id);
        }
        (Tier::Web, Phase::WebRender) => finish_request(engine, s, id),
        (t, p) => panic!("completion {t:?} in phase {p:?} for request {id}"),
    }
}

/// Send the request's next query to the DB tier, or start rendering
/// once every query has returned. The query in transit stays at the
/// front of the request's queue until the DB tier takes it.
fn next_query<H: Outcomes>(engine: &mut Engine<H>, s: &mut Stack, id: u64) {
    let req = s.inflight.get_mut(&id).expect("request exists");
    if req.queries.is_empty() {
        req.phase = Phase::WebRender;
        let resp = InteractionProfile::of(req.interaction).response_bytes(req.db_bytes);
        let cycles = s.web.connection_cycles(resp);
        s.platform.submit_work(Tier::Web, WorkToken(id), cycles);
    } else {
        // MySQL wire protocol request: ~90 bytes + parameters.
        let bytes = 90 + s.rng.below(50);
        let arrive = s.platform.net_web_db(engine.now(), true, bytes);
        engine.schedule_at(arrive, db_execute::<H>, id);
    }
}

fn db_execute<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, id: u64) {
    let s = host.stack();
    // A live request always has its in-transit query at the front.
    let Some(q) = s.inflight.get_mut(&id).and_then(|r| r.queries.pop_front()) else {
        return; // request already failed while the query was in transit
    };
    if s.faults_enabled() && s.tier_fails(Tier::Db) {
        fail_request(engine, host, id, FailCause::Error);
        return;
    }
    let now = engine.now();
    let work = s.mysql.execute(q, now.as_secs_f64() as u32);
    let mut barrier = now;
    for io in work.ios {
        barrier = barrier.max(s.platform.disk_io(now, Tier::Db, *io));
    }
    let req = s.inflight.get_mut(&id).expect("request exists");
    req.phase = Phase::DbCpu;
    req.io_barrier = barrier;
    req.db_bytes += work.response_bytes;
    req.last_db_resp = work.response_bytes;
    s.platform
        .submit_work(Tier::Db, WorkToken(id), work.cpu_cycles);
}

fn db_respond<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, id: u64) {
    let s = host.stack();
    let Some(req) = s.inflight.get(&id) else {
        return;
    };
    // Protocol framing on top of row data.
    let resp = req.last_db_resp + 30;
    let arrive = s.platform.net_web_db(engine.now(), false, resp);
    engine.schedule_at(arrive, db_reply::<H>, id);
}

/// The DB tier's response reached the web tier.
fn db_reply<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, id: u64) {
    let s = host.stack();
    if s.inflight.contains_key(&id) {
        next_query(engine, s, id);
    }
}

/// The render finished: the worker writes the PHP session file, frees
/// up, and the response travels back to the client.
fn finish_request<H: Outcomes>(engine: &mut Engine<H>, s: &mut Stack, id: u64) {
    let req = s.inflight.get(&id).expect("request exists");
    let resp_bytes = InteractionProfile::of(req.interaction).response_bytes(req.db_bytes);
    let io = s.web.session_write();
    s.platform.disk_io(engine.now(), Tier::Web, io);
    release_worker(s);
    let delivered = s.platform.net_web_to_client(engine.now(), resp_bytes);
    engine.schedule_at(delivered, deliver::<H>, id);
}

/// The response reached its client. A request that failed meanwhile
/// (client timeout) already handed its session to the retry path; its
/// late delivery is dropped.
fn deliver<H: Outcomes>(engine: &mut Engine<H>, host: &mut H, id: u64) {
    if let Some(req) = host.stack().inflight.remove(&id) {
        H::served(engine, host, req);
    }
}

/// A worker frees up: hand it to the next queued request, if any.
fn release_worker(s: &mut Stack) {
    s.web.on_finish();
    if s.web.try_dequeue() {
        let next = s
            .pending_web
            .pop_front()
            .expect("queued count matches pending list");
        start_script(s, next);
    }
}

/// Fail an in-flight request (injected error, crashed tier, dropped
/// work, client timeout): release its worker or queue slot and report
/// the failure to the host. No-op if the request already ended.
pub(crate) fn fail_request<H: Outcomes>(
    engine: &mut Engine<H>,
    host: &mut H,
    id: u64,
    cause: FailCause,
) {
    let s = host.stack();
    let Some(req) = s.inflight.remove(&id) else {
        return;
    };
    if req.started {
        release_worker(s);
    } else if let Some(pos) = s.pending_web.iter().position(|&x| x == id) {
        // Failed while still waiting for a worker.
        s.pending_web.remove(pos);
        s.web.drop_queued();
    }
    H::failed(engine, host, req, cause);
}

fn housekeeping(now: SimTime, s: &mut Stack) {
    s.web.manage_pool(now);
    if let Some(io) = s.web.flush_log() {
        s.platform.disk_io(now, Tier::Web, io);
    }
    if let Some(io) = s.mysql.log_flush() {
        s.platform.disk_io(now, Tier::Db, io);
    }
    s.platform.periodic(now);
    let web_mem = s.web.memory_bytes();
    let db_mem = s.mysql.memory_bytes();
    s.platform.set_tier_memory(Tier::Web, web_mem);
    s.platform.set_tier_memory(Tier::Db, db_mem);
    // PHP session state accumulates as clients interact; cap at the
    // population (sessions are reused in the closed loop).
    s.web.tracked_sessions = s
        .web
        .tracked_sessions
        .max((s.next_req.min(u64::from(s.sessions))) as u32);
    s.mysql.connections = s.web.busy();
}

fn take_sample(s: &mut Stack) {
    let dt = s.sample_interval;
    let web_load = TierLoad {
        runq: f64::from(s.web.busy()).min(16.0) * 0.25 + 1.0,
        nproc: f64::from(s.web.workers()) + 70.0,
        blocked: f64::from(s.web.queued()).min(12.0) * 0.25,
        tcp_active: s.tcp_opened as f64,
        tcp_sockets: f64::from(s.web.busy() + s.web.queued()) + 8.0,
        forks: 0.2,
    };
    let db_load = TierLoad {
        runq: 1.0 + f64::from(s.mysql.connections).min(8.0) * 0.2,
        nproc: 30.0 + f64::from(s.mysql.connections),
        blocked: 0.5,
        tcp_active: s.tcp_opened as f64 * 1.5, // queries reopen
        tcp_sockets: f64::from(s.mysql.connections) + 4.0,
        forks: 0.0,
    };
    s.tcp_opened = 0;
    let start = SimTime::ZERO + dt;
    let mut samples = std::mem::take(&mut s.host_samples);
    s.platform
        .sample_hosts_into(dt, web_load, db_load, &mut samples);
    for host in &samples {
        // One reusable row per host per tick: synthesis appends by
        // cached layout ids, then the whole row commits in one call —
        // no string keys, no map probes, no steady-state allocation.
        s.sample_row.clear();
        synthesize_sysstat_into(&host.raw, host.sysstat_source, &mut s.sample_row);
        if host.has_perf {
            synthesize_perf_into(&host.raw, &mut s.sample_row);
        }
        if let Some(bank) = s.online.as_mut() {
            // Online profiling observes the row before it is routed, so
            // it composes with both sinks and perturbs neither.
            bank.record(host.host, &s.sample_row);
        }
        if let Some(writer) = s.trace.as_mut() {
            let id = writer.host_id(host.host);
            if let Err(e) = writer.record_row(id, start, dt, &s.sample_row) {
                // Deferred: the tick can't return Result through the
                // engine. Disarm so one bad disk reports one error.
                if s.trace_err.is_none() {
                    s.trace_err = Some(e);
                }
                s.trace = None;
            }
        } else {
            let id = s.store.host_id(host.host);
            s.store.record_row(id, start, dt, &s.sample_row);
        }
    }
    s.host_samples = samples;
}

// ---------------------------------------------------------------------
// The single-host world: clients in the same engine as the server
// ---------------------------------------------------------------------

/// The single-host simulation world: one server stack plus the
/// emulated client population, its think timers and the end-to-end
/// latency and availability accounting.
pub struct World {
    /// The server side: platform, tier models, in-flight requests and
    /// sample sinks.
    pub(crate) stack: Stack,
    /// Emulated client population, stored column-wise.
    pub clients: ClientCohort,
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
    /// Batched think-timer wakeups: one engine event per armed bucket
    /// instead of one per client (see [`cloudchar_simcore::wheel`]).
    wheel: TimerWheel,
    policy: RetryPolicy,
    /// Fault-metric collector (attribution windows, outcome counts).
    monitor: FaultMonitor,
}

impl World {
    /// Assemble a world around its server stack and clients (both built
    /// by [`crate::experiment::run_opts`]).
    pub(crate) fn new(cfg: ExperimentConfig, stack: Stack, clients: ClientCohort) -> Self {
        let mut monitor = FaultMonitor::new();
        if stack.faults_enabled() {
            for ev in &cfg.faults.events {
                monitor.push_window(ev.kind.label(), ev.at_s, ev.clear_s());
            }
        }
        World {
            stack,
            clients,
            completed: 0,
            response_time: Welford::new(),
            response_hist: LogHistogram::new(1e-6, 300.0, 10),
            interaction_counts: vec![0; Interaction::ALL.len()],
            interaction_latency: vec![Welford::new(); Interaction::ALL.len()],
            cfg,
            // 256 one-second buckets: a 256 s horizon, comfortably above
            // the longest delay ever armed (the 120 s think-time cap).
            wheel: TimerWheel::new(SimDuration::from_secs(1), 256),
            policy: RetryPolicy::default(),
            monitor,
        }
    }

    /// Requests currently in flight (for tests).
    pub fn inflight_count(&self) -> usize {
        self.stack.inflight.len()
    }

    /// End-of-run fault observability record; `None` for fault-free
    /// runs.
    pub(crate) fn fault_summary(&self) -> Option<FaultSummary> {
        self.stack.faults_enabled().then(|| {
            self.monitor
                .summary(&self.cfg.faults.name, self.cfg.faults.fingerprint())
        })
    }
}

impl Outcomes for World {
    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn served(engine: &mut Engine<World>, world: &mut World, req: Request) {
        world.completed += 1;
        let latency = engine.now().duration_since(req.issued).as_secs_f64();
        world.response_time.push(latency);
        world.response_hist.push(latency);
        let idx = req.interaction.index();
        world.interaction_counts[idx] += 1;
        world.interaction_latency[idx].push(latency);
        let session = req.session;
        if world.stack.faults_enabled() {
            if let Some(ev) = req.timeout {
                engine.cancel(ev);
            }
            world.monitor.record_ok();
            world.clients.on_success(session);
        }
        world.clients.advance(session, &mut world.stack.rng);
        if engine.now() >= world.cfg.end_time() {
            return;
        }
        let think = world.clients.think_time(session, &mut world.stack.rng);
        let at = engine.now() + think;
        arm_wake(engine, world, session, at);
    }

    fn failed(engine: &mut Engine<World>, world: &mut World, req: Request, cause: FailCause) {
        if let Some(ev) = req.timeout {
            engine.cancel(ev);
        }
        match cause {
            FailCause::Error => world.monitor.record_error(),
            FailCause::Timeout => world.monitor.record_timeout(),
        }
        let session = req.session;
        let decision = world
            .clients
            .on_failure(session, &world.policy, &mut world.stack.fault_rng);
        let pause = match decision {
            RetryDecision::RetryAfter(d) => {
                world.monitor.record_retry();
                d
            }
            RetryDecision::Abandon(d) => {
                world.monitor.record_abandon();
                d
            }
        };
        if engine.now() >= world.cfg.end_time() {
            return;
        }
        // Invalidate anything still armed for this session before
        // resuming it: the retry wake must be the only one that can fire.
        world.clients.bump_epoch(session);
        let at = engine.now() + pause;
        arm_wake(engine, world, session, at);
    }

    fn on_sample(&mut self) {
        if self.stack.faults_enabled() {
            // Same cadence as the catalog series: one availability /
            // error-rate / retry point per sampling interval.
            self.monitor.sample();
        }
    }
}

/// Install every initial event: staggered client starts, then the
/// server's quanta, housekeeping, sampling and fault plan.
pub(crate) fn bootstrap(engine: &mut Engine<World>, world: &mut World) {
    // Staggered session starts, armed on the timer wheel: the offsets
    // draw from the RNG exactly as the per-client path did, but the
    // engine only sees one event per wheel bucket.
    let ramp = world.cfg.rampup.as_secs_f64().max(0.001);
    for session in 0..world.cfg.clients {
        let offset = Dist::Uniform { lo: 0.0, hi: ramp }.sample(&mut world.stack.rng);
        arm_wake(engine, world, session, SimTime::from_secs_f64(offset));
    }
    start(engine, world);
}

/// Arm `session`'s next wakeup (initial start, think time, retry
/// backoff, abandon pause) on the timer wheel, scheduling an engine
/// event for its bucket only when the wheel asks for one. The entry is
/// tagged with the session's current epoch so wakeups invalidated by a
/// later `bump_epoch` are dropped at drain time.
fn arm_wake(engine: &mut Engine<World>, world: &mut World, session: u32, at: SimTime) {
    let epoch = world.clients.epoch(session);
    if let Some((slot, deadline)) = world.wheel.arm(at, session, epoch) {
        engine.schedule_at(deadline, wheel_fire, slot as u64);
    }
}

/// Drain one wheel bucket. Fires every wakeup due at the current
/// instant, then — while the bucket's next deadline lands strictly
/// before the engine's next unrelated event — advances the clock to it
/// and keeps draining, batching many client wakes into this one engine
/// dispatch. Each wake still observes its exact armed nanosecond on the
/// clock, so the run is byte-identical to the per-client-event path.
fn wheel_fire(engine: &mut Engine<World>, world: &mut World, slot: u64) {
    let slot = slot as usize;
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
            engine.schedule_at(next, wheel_fire, slot as u64);
            return;
        }
    }
}

fn fire_request(engine: &mut Engine<World>, world: &mut World, session: u32) {
    let now = engine.now();
    if now >= world.cfg.end_time() {
        return;
    }
    let interaction = world.clients.current_interaction(session);
    let epoch = world.clients.epoch(session);
    let id = admit(engine, world, now, session, epoch, interaction);
    if world.stack.faults_enabled() {
        let wait = SimDuration::from_secs_f64(world.policy.timeout_s);
        let ev = engine.schedule_in(wait, request_timeout, id);
        world
            .stack
            .inflight
            .get_mut(&id)
            .expect("request just inserted")
            .timeout = Some(ev);
    }
}

fn request_timeout(engine: &mut Engine<World>, world: &mut World, id: u64) {
    if let Some(req) = world.stack.inflight.get_mut(&id) {
        // This very event is firing — nothing left to cancel.
        req.timeout = None;
    }
    fail_request(engine, world, id, FailCause::Timeout);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudchar_rubis::WorkloadMix;
    use cloudchar_simcore::FaultEvent;

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
        let lanes = Lanes {
            db: master.derive("db-gen"),
            platform: master.derive("platform"),
            workload: master.derive("workload"),
            faults: master.derive("faults"),
        };
        let stack = Stack::new(&cfg, lanes, cfg.clients, true);
        let mut client_rng = master.derive("clients");
        let clients = ClientCohort::new(cfg.clients, cfg.mix, &mut client_rng);
        World::new(cfg, stack, clients)
    }

    #[test]
    fn late_completion_after_failure_does_not_double_schedule() {
        // Regression: a request that timed out hands its session to the
        // retry path; when the server's late response finally arrives,
        // the delivery must not advance the session or schedule a second
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
        deliver(&mut engine, &mut world, 0);
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
        let workers = world.stack.web.workers();
        for _ in 0..workers {
            assert!(world.stack.web.on_arrival());
        }
        fire_request(&mut engine, &mut world, 0);
        let id = world.stack.next_req - 1;
        web_arrival(&mut engine, &mut world, id);
        assert_eq!(world.stack.web.queued(), 1);
        fail_request(&mut engine, &mut world, id, FailCause::Timeout);
        assert_eq!(world.stack.web.queued(), 0, "queue slot must be released");
        assert!(world.stack.pending_web.is_empty());
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
        assert_eq!(world.stack.next_req, 2);
    }

    #[test]
    fn fault_free_world_is_disarmed() {
        let mut world = tiny_world(false);
        let mut engine: Engine<World> = Engine::new();
        assert!(!world.stack.faults_enabled());
        let before = engine.pending();
        fire_request(&mut engine, &mut world, 0);
        // Only the web-arrival event — no timeout guard is armed.
        assert_eq!(engine.pending(), before + 1);
        let id = world.stack.next_req - 1;
        assert!(world.stack.inflight[&id].timeout.is_none());
    }
}
