//! Batch (MapReduce-style) workload — the paper's second future-work
//! item: "characterize the workload of other cloud applications, such
//! as big data applications using the MapReduce paradigm".
//!
//! A [`BatchConfig`] describes one job: input splits are read from disk
//! on the *front* host (the mapper node), map tasks compute and spill,
//! intermediate data shuffles across the network to the *back* host
//! (the reducer node), and reduce tasks compute and write output. The
//! job runs over the same [`Platform`]
//! substrates and is profiled by the same 518-metric monitor, so
//! interactive (RUBiS) and batch workloads can be characterized
//! side-by-side on virtualized and non-virtualized deployments.
//!
//! Unlike the interactive workload there is no client population here —
//! tasks are driven by split/shuffle completions, not think timers — so
//! the columnar client cohort and its timer wheel (`workload.rs`,
//! DESIGN.md §13) intentionally do not apply to this module.

use crate::config::Deployment;
use crate::phys::{HostIoPolicy, PhysPlatform};
use crate::platform::{HostSample, Platform, Tier, TierLoad};
use crate::virt::VirtPlatform;
use cloudchar_hw::{IoKind, IoRequest, ServerSpec, WorkToken};
use cloudchar_monitor::{synthesize_perf_into, synthesize_sysstat_into, SampleRow, SeriesStore};
use cloudchar_simcore::{Engine, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of one MapReduce-style job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Deployment substrate.
    pub deployment: Deployment,
    /// Number of map tasks.
    pub mappers: u32,
    /// Number of reduce tasks.
    pub reducers: u32,
    /// Total input bytes (split evenly over mappers).
    pub input_bytes: u64,
    /// Map CPU cycles per input byte.
    pub map_cycles_per_byte: f64,
    /// Reduce CPU cycles per shuffled byte.
    pub reduce_cycles_per_byte: f64,
    /// Fraction of input emitted as intermediate (shuffle) data.
    pub shuffle_fraction: f64,
    /// Fraction of shuffle data emitted as final output.
    pub output_fraction: f64,
    /// Concurrent task slots per host.
    pub slots: u32,
    /// Sampling interval for the monitors.
    pub sample_interval: SimDuration,
    /// Hard wall on simulated time.
    pub deadline: SimDuration,
}

impl BatchConfig {
    /// A wordcount-like job: CPU-light, I/O-heavy.
    pub fn wordcount(deployment: Deployment) -> Self {
        BatchConfig {
            seed: 42,
            deployment,
            mappers: 64,
            reducers: 8,
            input_bytes: 4 << 30, // 4 GB
            map_cycles_per_byte: 18.0,
            reduce_cycles_per_byte: 9.0,
            shuffle_fraction: 0.22,
            output_fraction: 0.3,
            slots: 8,
            sample_interval: SimDuration::from_secs(2),
            deadline: SimDuration::from_secs(3600),
        }
    }

    /// A small job for tests.
    pub fn small(deployment: Deployment) -> Self {
        BatchConfig {
            mappers: 8,
            reducers: 2,
            input_bytes: 64 << 20,
            ..BatchConfig::wordcount(deployment)
        }
    }
}

/// Outcome of one batch run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchResult {
    /// Job configuration.
    pub config: BatchConfig,
    /// Metric series (same catalog as the interactive experiments).
    pub store: SeriesStore,
    /// Host labels.
    pub hosts: Vec<String>,
    /// Job completion time in seconds (`None` if the deadline hit).
    pub makespan_s: Option<f64>,
    /// Map-phase completion time in seconds.
    pub map_phase_s: Option<f64>,
    /// Events executed.
    pub events: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskKind {
    Map,
    Reduce,
}

struct BatchWorld {
    platform: Platform,
    cfg: BatchConfig,
    rng: SimRng,
    pending_maps: Vec<u64>,
    pending_reduces: Vec<u64>,
    running: [u32; 2], // per tier
    maps_done: u32,
    reduces_done: u32,
    shuffle_arrived: u64,
    map_finish: Option<SimTime>,
    job_finish: Option<SimTime>,
    store: SeriesStore,
    /// Per-tick host samples, reused from tick to tick.
    host_samples: Vec<HostSample>,
    sample_row: SampleRow,
}

impl BatchWorld {
    fn task_kind(&self, token: u64) -> TaskKind {
        if token < u64::from(self.cfg.mappers) {
            TaskKind::Map
        } else {
            TaskKind::Reduce
        }
    }

    fn split_bytes(&self) -> u64 {
        self.cfg.input_bytes / u64::from(self.cfg.mappers.max(1))
    }

    fn shuffle_per_map(&self) -> u64 {
        (self.split_bytes() as f64 * self.cfg.shuffle_fraction) as u64
    }
}

fn start_map(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, token: u64) {
    world.running[0] += 1;
    // Read the input split (sequential), then compute.
    let bytes = world.split_bytes();
    let read_done = world.platform.disk_io(
        engine.now(),
        Tier::Web,
        IoRequest {
            kind: IoKind::Read,
            bytes,
            sequential: true,
        },
    );
    engine.schedule_at(read_done, map_compute, token);
}

/// A map task's input split is read: compute on it.
fn map_compute(_: &mut Engine<BatchWorld>, w: &mut BatchWorld, token: u64) {
    let cycles = w.split_bytes() as f64 * w.cfg.map_cycles_per_byte * (0.9 + 0.2 * w.rng.f64()); // data skew
    w.platform.submit_work(Tier::Web, WorkToken(token), cycles);
}

fn start_reduce(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, token: u64) {
    world.running[1] += 1;
    let bytes = world.shuffle_arrived / u64::from(world.cfg.reducers.max(1));
    let cycles = bytes as f64 * world.cfg.reduce_cycles_per_byte * (0.9 + 0.2 * world.rng.f64());
    world
        .platform
        .submit_work(Tier::Db, WorkToken(token), cycles);
    let _ = engine;
}

fn on_complete(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, token: u64) {
    match world.task_kind(token) {
        TaskKind::Map => {
            world.running[0] -= 1;
            world.maps_done += 1;
            // Spill intermediate locally, then shuffle to the reducer
            // host over the network.
            let spill = world.shuffle_per_map();
            world.platform.disk_io(
                engine.now(),
                Tier::Web,
                IoRequest {
                    kind: IoKind::Write,
                    bytes: spill,
                    sequential: true,
                },
            );
            let arrive = world.platform.net_web_db(engine.now(), true, spill);
            engine.schedule_at(arrive, shuffle_arrival, 0);
            // Next pending map.
            if let Some(next) = world.pending_maps.pop() {
                start_map(engine, world, next);
            } else if world.maps_done == world.cfg.mappers {
                world.map_finish = Some(engine.now());
            }
        }
        TaskKind::Reduce => {
            world.running[1] -= 1;
            world.reduces_done += 1;
            // Write the output partition.
            let out = (world.shuffle_arrived as f64 * world.cfg.output_fraction
                / f64::from(world.cfg.reducers.max(1))) as u64;
            world.platform.disk_io(
                engine.now(),
                Tier::Db,
                IoRequest {
                    kind: IoKind::Write,
                    bytes: out,
                    sequential: true,
                },
            );
            if let Some(next) = world.pending_reduces.pop() {
                start_reduce(engine, world, next);
            } else if world.reduces_done == world.cfg.reducers {
                world.job_finish = Some(engine.now());
            }
        }
    }
}

/// One map's shuffle data reached the reducer host.
fn shuffle_arrival(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, _: u64) {
    world.shuffle_arrived += world.shuffle_per_map();
    maybe_start_reduce_phase(engine, world);
}

fn maybe_start_reduce_phase(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld) {
    // Reducers launch once every map's shuffle data has arrived
    // (non-speculative, barrier semantics).
    let all_shuffled =
        world.shuffle_arrived >= world.shuffle_per_map() * u64::from(world.cfg.mappers);
    if all_shuffled
        && world.reduces_done == 0
        && world.running[1] == 0
        && !world.pending_reduces.is_empty()
    {
        let slots = world.cfg.slots.min(world.cfg.reducers);
        for _ in 0..slots {
            if let Some(t) = world.pending_reduces.pop() {
                start_reduce(engine, world, t);
            }
        }
    }
}

/// Launch the first wave of `initial` maps.
fn kick_off(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, initial: u64) {
    for _ in 0..initial {
        if let Some(t) = world.pending_maps.pop() {
            start_map(engine, world, t);
        }
    }
}

/// Whether the periodic ticks keep running: until the job finishes or
/// the deadline passes.
fn ticking(engine: &Engine<BatchWorld>, world: &BatchWorld) -> bool {
    world.job_finish.is_none() && engine.now() < SimTime::ZERO + world.cfg.deadline
}

fn quantum_tick(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, _: u64) {
    let quantum = world.platform.quantum();
    let mut done = Vec::new();
    world.platform.tick(engine.now(), quantum, &mut done);
    for (_, token) in done {
        on_complete(engine, world, token.0);
    }
    world.platform.periodic(engine.now());
    if ticking(engine, world) {
        engine.schedule_in(quantum, quantum_tick, 0);
    }
}

fn sample_tick(engine: &mut Engine<BatchWorld>, world: &mut BatchWorld, _: u64) {
    take_sample(world);
    if ticking(engine, world) {
        engine.schedule_in(world.cfg.sample_interval, sample_tick, 0);
    }
}

fn take_sample(world: &mut BatchWorld) {
    let dt = world.cfg.sample_interval;
    let load = |running: u32| TierLoad {
        runq: f64::from(running),
        nproc: 40.0 + f64::from(running),
        blocked: f64::from(running) * 0.3,
        tcp_active: 2.0,
        tcp_sockets: 8.0,
        forks: 0.5,
    };
    let mut samples = std::mem::take(&mut world.host_samples);
    world.platform.sample_hosts_into(
        dt,
        load(world.running[0]),
        load(world.running[1]),
        &mut samples,
    );
    let start = SimTime::ZERO + dt;
    for s in &samples {
        world.sample_row.clear();
        synthesize_sysstat_into(&s.raw, s.sysstat_source, &mut world.sample_row);
        if s.has_perf {
            synthesize_perf_into(&s.raw, &mut world.sample_row);
        }
        let host = world.store.host_id(s.host);
        world.store.record_row(host, start, dt, &world.sample_row);
    }
    world.host_samples = samples;
}

/// Run one batch job to completion (or its deadline).
pub fn run_batch(cfg: BatchConfig) -> BatchResult {
    assert!(cfg.mappers > 0 && cfg.reducers > 0 && cfg.slots > 0);
    let master = SimRng::new(cfg.seed);
    let platform = match cfg.deployment {
        Deployment::Virtualized => Platform::Virt(Box::new(VirtPlatform::new(
            ServerSpec::hp_proliant(),
            crate::virt::VirtOptions::default(),
            master.derive("platform"),
        ))),
        Deployment::NonVirtualized => Platform::Phys(Box::new(PhysPlatform::new(
            ServerSpec::hp_proliant(),
            HostIoPolicy::default(),
            master.derive("platform"),
        ))),
    };
    let hosts: Vec<String> = platform
        .host_labels()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut world = BatchWorld {
        platform,
        cfg,
        rng: master.derive("batch"),
        pending_maps: (0..u64::from(cfg.mappers)).rev().collect(),
        pending_reduces: (u64::from(cfg.mappers)..u64::from(cfg.mappers) + u64::from(cfg.reducers))
            .rev()
            .collect(),
        running: [0, 0],
        maps_done: 0,
        reduces_done: 0,
        shuffle_arrived: 0,
        map_finish: None,
        job_finish: None,
        store: SeriesStore::new(),
        host_samples: Vec::new(),
        sample_row: SampleRow::with_capacity(cloudchar_monitor::TOTAL_METRICS),
    };
    let mut engine: Engine<BatchWorld> = Engine::new();
    let deadline = SimTime::ZERO + cfg.deadline;

    // Kick off the first wave of maps, then the CPU quanta and sampling.
    let initial = cfg.slots.min(cfg.mappers);
    engine.schedule_at(SimTime::ZERO, kick_off, u64::from(initial));
    engine.schedule_at(SimTime::ZERO + world.platform.quantum(), quantum_tick, 0);
    engine.schedule_at(SimTime::ZERO + cfg.sample_interval, sample_tick, 0);

    engine.run_until(&mut world, deadline);

    BatchResult {
        config: cfg,
        hosts,
        makespan_s: world.job_finish.map(|t| t.as_secs_f64()),
        map_phase_s: world.map_finish.map(|t| t.as_secs_f64()),
        events: engine.events_executed(),
        store: world.store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_job_completes_on_both_deployments() {
        for deployment in [Deployment::Virtualized, Deployment::NonVirtualized] {
            let r = run_batch(BatchConfig::small(deployment));
            let makespan = r.makespan_s.expect("job must finish");
            let map_phase = r.map_phase_s.expect("maps must finish");
            assert!(map_phase <= makespan, "{deployment:?}");
            assert!(
                makespan > 0.0 && makespan < 3600.0,
                "{deployment:?}: {makespan}"
            );
        }
    }

    #[test]
    fn virtualized_batch_is_slower() {
        let v = run_batch(BatchConfig::small(Deployment::Virtualized));
        let p = run_batch(BatchConfig::small(Deployment::NonVirtualized));
        assert!(
            v.makespan_s.unwrap() > p.makespan_s.unwrap(),
            "virt {:?} phys {:?}",
            v.makespan_s,
            p.makespan_s
        );
    }

    #[test]
    fn batch_is_deterministic() {
        let a = run_batch(BatchConfig::small(Deployment::Virtualized));
        let b = run_batch(BatchConfig::small(Deployment::Virtualized));
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn monitors_capture_the_job() {
        let r = run_batch(BatchConfig::small(Deployment::Virtualized));
        let c = cloudchar_monitor::catalog();
        let cycles = c
            .find("cycles", cloudchar_monitor::Source::PerfCounter)
            .unwrap();
        let s = r.store.get("web-vm", cycles).expect("mapper host sampled");
        assert!(s.total() > 0.0, "mapper burned no cycles?");
    }

    #[test]
    fn more_slots_finish_faster() {
        let mut slow = BatchConfig::small(Deployment::NonVirtualized);
        slow.slots = 1;
        let mut fast = slow;
        fast.slots = 8;
        let a = run_batch(slow);
        let b = run_batch(fast);
        assert!(
            a.makespan_s.unwrap() > b.makespan_s.unwrap(),
            "1 slot {:?} vs 8 slots {:?}",
            a.makespan_s,
            b.makespan_s
        );
    }

    #[test]
    fn shuffle_traffic_crosses_the_network() {
        let r = run_batch(BatchConfig::small(Deployment::NonVirtualized));
        let c = cloudchar_monitor::catalog();
        let rx = c
            .find("eth0-rxkB/s", cloudchar_monitor::Source::HypervisorSysstat)
            .unwrap();
        let db_rx = r.store.get("mysql-pm", rx).expect("reducer host sampled");
        let total_kb: f64 = db_rx.values.iter().sum::<f64>() * 2.0;
        let expect_kb = (64 << 20) as f64 * 0.22 / 1024.0;
        assert!(
            total_kb > expect_kb * 0.8,
            "shuffle bytes missing: {total_kb} vs {expect_kb}"
        );
    }
}
