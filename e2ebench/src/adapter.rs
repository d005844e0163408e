//! The benchmark's only door into cloudchar.
//!
//! Every call the benchmark makes into `core`, `simcore`, `rubis`,
//! `monitor` and `analysis` goes through a function in this file, so a
//! change to the program's public API (such as merging the run entry
//! points into one `run(spec, &RunOptions)`) edits this file alone.
//! The other files see the program's types only through the re-exports
//! below.

use std::io;
use std::path::Path;

pub use cloudchar_core::{
    Deployment, ExperimentConfig, ExperimentResult, FleetConfig, FleetResult, FullCharacterization,
};
pub use cloudchar_monitor::SampleRow;
pub use cloudchar_rubis::WorkloadMix;
pub use cloudchar_simcore::SimDuration;

use cloudchar_analysis::ResourceRatios;
use cloudchar_core::{
    compare, full_characterize_trace, HostIoPolicy, PhysPlatform, Platform, RunOptions, TierLoad,
    TraceDir, VirtOptions, VirtPlatform,
};
use cloudchar_monitor::{catalog, synthesize_perf_into, synthesize_sysstat_into, RawHostSample};
use cloudchar_monitor::{ChunkWriter, MetricId, SeriesStore, Source, CHUNK_SAMPLES, TOTAL_METRICS};
use cloudchar_rubis::{ClientCohort, Database, MySqlServer};
use cloudchar_simcore::{SimRng, SimTime};

/// Start value of the FNV-1a folds the replay fingerprints use.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one 64-bit word into an FNV-1a hash.
fn fnv(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x100_0000_01b3)
}

// ---------------------------------------------------------------------
// core: configurations and run entry points
// ---------------------------------------------------------------------

/// The reduced-scale experiment: 120 clients, 120 s, small DB.
pub fn fast_config(deployment: Deployment, mix: WorkloadMix) -> ExperimentConfig {
    ExperimentConfig::fast(deployment, mix)
}

/// The 100-host fleet: 33 pods (99 monitored hosts) plus the generator.
pub fn fleet100_config() -> FleetConfig {
    FleetConfig::fleet100()
}

/// One single-host experiment through the program's own run entry
/// point, with the resident store.
pub fn run_single(cfg: &ExperimentConfig) -> ExperimentResult {
    // Without a trace sink the run has no I/O that could fail.
    let (result, _online) = cloudchar_core::run_opts(cfg.clone(), &RunOptions::default())
        .expect("a run without a trace sink performs no I/O");
    result
}

/// The same experiment truncated to its first sampling interval: its
/// host time is the set-up (database, cohort, platform, bootstrap) plus
/// one interval of simulation.
pub fn run_first_interval(cfg: &ExperimentConfig) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.duration = cfg.sample_interval;
    run_single(&cfg)
}

/// One fleet run on `jobs` workers of the shard runner, with the
/// resident store.
pub fn run_fleet(cfg: &FleetConfig, jobs: usize) -> FleetResult {
    cloudchar_core::run_fleet(cfg, jobs)
}

/// A fleet run's shard-runner counters.
pub struct ShardCounts {
    pub rounds: u64,
    pub messages: u64,
    pub units: u64,
    pub critical_units: u64,
}

/// The shard-runner counters of a fleet run.
pub fn shard_counts(r: &FleetResult) -> ShardCounts {
    ShardCounts {
        rounds: r.stats.rounds,
        messages: r.stats.messages,
        units: r.stats.units,
        critical_units: r.stats.critical_units,
    }
}

/// Completed and failed requests of a fleet run.
pub fn fleet_requests(r: &FleetResult) -> (u64, u64) {
    (r.completed, r.failed)
}

/// Completed and failed requests of a single-host run (none fail
/// without faults).
pub fn requests(r: &ExperimentResult) -> (u64, u64) {
    let failed = r.faults.as_ref().map_or(0, |f| f.errors + f.timeouts);
    (r.completed, failed)
}

/// Engine events a single-host run executed.
pub fn events(r: &ExperimentResult) -> u64 {
    r.events
}

/// Host labels and sampling ticks of a single-host run.
pub fn hosts_and_ticks(r: &ExperimentResult) -> (usize, usize) {
    (r.hosts.len(), r.config.sample_count())
}

// ---------------------------------------------------------------------
// Replay fingerprints
// ---------------------------------------------------------------------

/// FNV fold over every sampled series, hosts in presentation order and
/// metrics in catalog order (the determinism suite's fingerprint).
pub fn store_fingerprint(r: &ExperimentResult) -> u64 {
    let mut h = FNV_OFFSET;
    let c = catalog();
    for host in &r.hosts {
        for id in c.ids() {
            if let Some(s) = r.store.get(host, id) {
                for &v in &s.values {
                    h = fnv(h, v.to_bits());
                }
            }
        }
    }
    h
}

/// A fleet run's replay fingerprint: the series fold over its resident
/// store, continued over the generator's counters.
pub fn fleet_fingerprint(r: &FleetResult) -> u64 {
    r.fingerprint()
}

/// FNV fold over the per-series analysis results, so a change to the
/// analysis output shows in the correctness gate.
pub fn analysis_fingerprint(full: &FullCharacterization) -> u64 {
    let mut h = fnv(FNV_OFFSET, full.profiles.len() as u64);
    for p in &full.profiles {
        h = fnv(h, p.summary.mean.to_bits());
        h = fnv(h, p.summary.std_dev.to_bits());
        h = fnv(h, p.summary.p95.to_bits());
        h = fnv(h, p.jumps as u64);
    }
    h
}

// ---------------------------------------------------------------------
// analysis
// ---------------------------------------------------------------------

/// The four resource profiles per host (`characterize`) on one worker;
/// returns the number of profiles.
pub fn characterize(r: &ExperimentResult) -> usize {
    cloudchar_core::characterize_jobs(r, 1).resources.len()
}

/// Every catalog metric of every host, on `jobs` workers.
pub fn full_characterize(r: &ExperimentResult, jobs: usize) -> FullCharacterization {
    cloudchar_core::full_characterize(r, jobs)
}

/// Number of per-series profiles a characterization holds.
pub fn profile_count(full: &FullCharacterization) -> usize {
    full.profiles.len()
}

/// Open an on-disk trace (a `.cctr` file or a directory of them).
pub fn trace_open(path: &Path) -> io::Result<TraceDir> {
    TraceDir::open(path)
}

/// Every catalog metric of every host, streamed off a trace.
pub fn trace_full(trace: &TraceDir, jobs: usize) -> io::Result<FullCharacterization> {
    full_characterize_trace(trace, jobs)
}

/// R1 (front vs back) and R2 (VMs vs dom0) of a run, each beside the
/// paper's value; `None` unless the run was virtualized.
pub fn model_error(
    r: &ExperimentResult,
) -> Option<[(&'static str, ResourceRatios, ResourceRatios); 2]> {
    (r.config.deployment == Deployment::Virtualized).then(|| {
        [
            (
                "R1",
                compare::r1_front_vs_back(r),
                compare::paper_values::R1,
            ),
            ("R2", compare::r2_vms_vs_dom0(r), compare::paper_values::R2),
        ]
    })
}

// ---------------------------------------------------------------------
// rubis: set-up components
// ---------------------------------------------------------------------

/// Generate the RUBiS database at the configuration's scale and bring
/// up a warm MySQL server on it, as a run's set-up does.
pub fn db_generate(cfg: &ExperimentConfig) {
    let mut rng = SimRng::new(cfg.seed).derive("db-gen");
    let db = Database::generate(cfg.db_scale, &mut rng);
    let mut mysql = MySqlServer::new(db, cfg.mysql);
    mysql.prewarm(0.6);
    std::hint::black_box(&mysql);
}

/// Build the columnar client cohort of the configuration's sessions.
pub fn cohort_new(cfg: &ExperimentConfig) {
    let mut rng = SimRng::new(cfg.seed).derive("clients");
    let cohort = ClientCohort::new(cfg.clients, cfg.mix, &mut rng);
    std::hint::black_box(&cohort);
}

// ---------------------------------------------------------------------
// monitor: metric synthesis and sample sinks
// ---------------------------------------------------------------------

/// One host's raw sample as the platform reports it each tick.
pub struct HostRaw {
    raw: RawHostSample,
    source: Source,
    has_perf: bool,
}

/// Raw per-host samples of one sampling interval from a freshly built
/// platform of the given deployment (one entry per monitored host).
pub fn platform_raw_samples(cfg: &ExperimentConfig) -> Vec<HostRaw> {
    let spec = cloudchar_hw::ServerSpec::hp_proliant();
    let rng = SimRng::new(cfg.seed).derive("platform");
    let mut platform = match cfg.deployment {
        Deployment::Virtualized => Platform::Virt(Box::new(VirtPlatform::new(
            spec,
            VirtOptions {
                overhead: cfg.overhead,
                vm_cap_percent: cfg.vm_cap_percent,
                background_vms: cfg.background_vms,
                background_util: cfg.background_util,
                background_iops: cfg.background_iops,
            },
            rng,
        ))),
        Deployment::NonVirtualized => Platform::Phys(Box::new(PhysPlatform::new(
            spec,
            HostIoPolicy::default(),
            rng,
        ))),
    };
    let load = TierLoad {
        runq: 2.0,
        nproc: 100.0,
        blocked: 0.5,
        tcp_active: 50.0,
        tcp_sockets: 20.0,
        forks: 0.2,
    };
    platform
        .sample_hosts(cfg.sample_interval, load, load)
        .into_iter()
        .map(|s| HostRaw {
            raw: s.raw,
            source: s.sysstat_source,
            has_perf: s.has_perf,
        })
        .collect()
}

/// A sample row sized for the whole metric catalog.
pub fn new_row() -> SampleRow {
    SampleRow::with_capacity(TOTAL_METRICS)
}

/// Synthesize one host's catalog row from its raw sample, as the
/// sampling tick does.
pub fn synthesize(raw: &HostRaw, row: &mut SampleRow) {
    row.clear();
    synthesize_sysstat_into(&raw.raw, raw.source, row);
    if raw.has_perf {
        synthesize_perf_into(&raw.raw, row);
    }
}

/// One host's sampled series in catalog order, for rebuilding its rows.
pub struct HostColumns<'a> {
    series: Vec<(MetricId, &'a [f64])>,
}

/// Every host's sampled series, hosts in presentation order.
pub fn columns(r: &ExperimentResult) -> Vec<HostColumns<'_>> {
    let c = catalog();
    r.hosts
        .iter()
        .map(|host| HostColumns {
            series: c
                .ids()
                .filter_map(|id| r.store.get(host, id).map(|s| (id, s.values.as_slice())))
                .collect(),
        })
        .collect()
}

/// Rebuild one host's sampled row at `tick`.
pub fn fill_row(cols: &HostColumns<'_>, tick: usize, row: &mut SampleRow) {
    row.clear();
    for &(id, values) in &cols.series {
        if let Some(&v) = values.get(tick) {
            row.push(id, v);
        }
    }
}

/// Number of values a row holds.
pub fn row_len(row: &SampleRow) -> usize {
    row.len()
}

/// An empty resident store presized for `ticks` samples per series.
pub fn store_new(ticks: usize) -> SeriesStore {
    SeriesStore::with_expected_samples(ticks)
}

/// Commit one host's row to the resident store.
pub fn store_record(store: &mut SeriesStore, host: &str, dt: SimDuration, row: &SampleRow) {
    let id = store.host_id(host);
    store.record_row(id, SimTime::ZERO + dt, dt, row);
}

/// A chunked trace writer at `path`.
pub fn chunk_create(path: &Path) -> io::Result<ChunkWriter> {
    ChunkWriter::create(path, "", CHUNK_SAMPLES)
}

/// Commit one host's row to a chunked trace.
pub fn chunk_record(
    w: &mut ChunkWriter,
    host: &str,
    dt: SimDuration,
    row: &SampleRow,
) -> io::Result<()> {
    let id = w.host_id(host);
    w.record_row(id, SimTime::ZERO + dt, dt, row)
}

/// Seal a chunked trace; returns its size in bytes.
pub fn chunk_finish(w: &mut ChunkWriter) -> io::Result<u64> {
    w.finish()
}

/// The configuration a run was made with.
pub fn config(r: &ExperimentResult) -> &ExperimentConfig {
    &r.config
}

/// Sampling interval of a run.
pub fn sample_interval(r: &ExperimentResult) -> SimDuration {
    r.config.sample_interval
}

/// Host labels of a run in presentation order.
pub fn hosts(r: &ExperimentResult) -> &[String] {
    &r.hosts
}

// ---------------------------------------------------------------------
// analysis: online kernels
// ---------------------------------------------------------------------

/// Online window (samples) the online probe uses: the CLI's default
/// `--window`.
pub const ONLINE_WINDOW: usize = 60;

/// An online characterization bank over `ONLINE_WINDOW`-sample windows.
pub fn online_new(dt: SimDuration) -> cloudchar_core::OnlineBank {
    cloudchar_core::OnlineBank::new(ONLINE_WINDOW, dt.as_secs_f64())
}

/// Feed one host's row to the online bank.
pub fn online_record(bank: &mut cloudchar_core::OnlineBank, host: &str, row: &SampleRow) {
    bank.record(host, row);
}

/// Close the online bank; returns the number of window snapshots.
pub fn online_finish(bank: cloudchar_core::OnlineBank) -> usize {
    bank.finish().snapshots.len()
}
