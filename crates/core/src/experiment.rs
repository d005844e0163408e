//! Experiment execution and result extraction.

use crate::config::ExperimentConfig;
use crate::online::OnlineReport;
use crate::workload::{bootstrap, Lanes, Stack, World};
use cloudchar_analysis::Resource;
use cloudchar_monitor::{catalog, FaultSummary, SeriesStore, Source};
use cloudchar_rubis::ClientCohort;
use cloudchar_simcore::{audit, Engine, SimRng};
use serde::{Deserialize, Serialize};

/// Outcome of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// All sampled metric series.
    pub store: SeriesStore,
    /// Host labels in presentation order.
    pub hosts: Vec<String>,
    /// Requests completed end-to-end.
    pub completed: u64,
    /// Mean end-to-end response time in seconds.
    pub response_time_mean_s: f64,
    /// Maximum end-to-end response time in seconds.
    pub response_time_max_s: f64,
    /// 95th-percentile response time in seconds (histogram estimate).
    pub response_time_p95_s: f64,
    /// 99th-percentile response time in seconds (histogram estimate).
    pub response_time_p99_s: f64,
    /// Events executed by the engine.
    pub events: u64,
    /// Per-interaction transaction statistics: (script name,
    /// completions, mean latency in seconds).
    pub transactions: Vec<(String, u64, f64)>,
    /// Fault observability record; `None` for fault-free runs (and for
    /// traces written before fault injection existed).
    #[serde(default)]
    pub faults: Option<FaultSummary>,
}

/// Run one experiment to completion.
pub fn run(cfg: ExperimentConfig) -> ExperimentResult {
    let (mut engine, mut world) = build(&cfg);
    engine.run_until(&mut world, cfg.end_time());
    finalize(cfg, engine, world)
}

/// Composable run options: the sinks and observers a run can carry.
/// All combinations are valid — tracing redirects the sample sink and
/// online profiling only observes — so the simulation itself never
/// changes. The same options drive a fleet
/// ([`crate::fleet::run_fleet_opts`]).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Spill sampled rows to chunked compressed traces instead of the
    /// in-memory store, which stays empty of series: a single-host run
    /// writes this `.cctr` file, a fleet writes one `podNN.cctr` per pod
    /// into this directory. Resident series memory stays bounded by the
    /// open-chunk working set however long the run is; analysis reads
    /// the trace through [`crate::trace`].
    pub trace_out: Option<std::path::PathBuf>,
    /// Arm live online characterization over sliding windows of this
    /// many samples; the run returns an [`OnlineReport`].
    pub online_window: Option<usize>,
}

/// Run one experiment with composable [`RunOptions`]. The second
/// element of the result is the online report when
/// [`RunOptions::online_window`] was set.
pub fn run_opts(
    cfg: ExperimentConfig,
    opts: &RunOptions,
) -> std::io::Result<(ExperimentResult, Option<OnlineReport>)> {
    let (mut engine, mut world) = build(&cfg);
    let trace = opts.trace_out.as_deref().map(|path| (path, ""));
    world.stack.attach_sinks(trace, opts.online_window)?;
    engine.run_until(&mut world, cfg.end_time());
    let online = world.stack.detach_sinks()?;
    Ok((finalize(cfg, engine, world), online))
}

/// Build the engine/world pair of an experiment: the server stack, the
/// client cohort, and every start-up event including the fault plan —
/// everything up to the first event execution.
fn build(cfg: &ExperimentConfig) -> (Engine<World>, World) {
    cfg.validate().expect("invalid experiment config");
    let master = SimRng::new(cfg.seed);
    let lanes = Lanes {
        db: master.derive("db-gen"),
        platform: master.derive("platform"),
        workload: master.derive("workload"),
        faults: master.derive("faults"),
    };
    let stack = Stack::new(cfg, lanes, cfg.clients, true);
    let mut client_rng = master.derive("clients");
    let clients = ClientCohort::new(cfg.clients, cfg.mix, &mut client_rng);
    let mut world = World::new(cfg.clone(), stack, clients);
    let mut engine: Engine<World> = Engine::new();
    bootstrap(&mut engine, &mut world);
    (engine, world)
}

/// Extract the [`ExperimentResult`] of a completed engine/world pair.
fn finalize(cfg: ExperimentConfig, engine: Engine<World>, world: World) -> ExperimentResult {
    let faults = world.fault_summary();
    let stack = world.stack;
    let hosts: Vec<String> = stack
        .platform
        .host_labels()
        .iter()
        .map(|s| s.to_string())
        .collect();
    if audit::is_enabled() {
        // Every sampled series must hold exactly one point per sampling
        // tick at the configured cadence (the paper's 2 s interval).
        let expected = cfg.sample_count();
        for (host, metric, series) in stack.store.iter() {
            audit::check(
                "monitor.sample_cadence",
                series.start.as_nanos(),
                series.len() == expected && series.interval == cfg.sample_interval,
                || {
                    format!(
                        "{host}/{metric:?}: {} samples at {} ns interval, expected {} at {} ns",
                        series.len(),
                        series.interval.as_nanos(),
                        expected,
                        cfg.sample_interval.as_nanos()
                    )
                },
            );
        }
    }

    let transactions = cloudchar_rubis::Interaction::ALL
        .iter()
        .enumerate()
        .map(|(i, inter)| {
            (
                inter.script_name().to_string(),
                world.interaction_counts[i],
                world.interaction_latency[i].mean(),
            )
        })
        .collect();
    ExperimentResult {
        config: cfg,
        hosts,
        completed: world.completed,
        response_time_mean_s: world.response_time.mean(),
        response_time_max_s: world.response_time.max().unwrap_or(0.0),
        response_time_p95_s: world.response_hist.quantile(0.95).unwrap_or(0.0),
        response_time_p99_s: world.response_hist.quantile(0.99).unwrap_or(0.0),
        events: engine.events_executed(),
        transactions,
        faults,
        store: stack.store,
    }
}

impl ExperimentResult {
    /// The sysstat plane a host reports through.
    fn sysstat_source(&self, host: &str) -> Source {
        if host.ends_with("-vm") {
            Source::VmSysstat
        } else {
            Source::HypervisorSysstat
        }
    }

    fn sysstat_series(&self, host: &str, name: &str) -> Vec<f64> {
        let source = self.sysstat_source(host);
        let id = catalog()
            .find(name, source)
            .unwrap_or_else(|| panic!("metric {name} not in catalog"));
        self.store
            .get(host, id)
            .map(|s| s.values.clone())
            .unwrap_or_default()
    }

    fn perf_series(&self, host: &str, name: &str) -> Vec<f64> {
        let id = catalog()
            .find(name, Source::PerfCounter)
            .unwrap_or_else(|| panic!("perf metric {name} not in catalog"));
        self.store
            .get(host, id)
            .map(|s| s.values.clone())
            .unwrap_or_default()
    }

    /// CPU cycles per sample (the y-axis of Figures 1 and 5).
    pub fn cpu_cycles(&self, host: &str) -> Vec<f64> {
        self.perf_series(host, "cycles")
    }

    /// Used memory in MB per sample (Figures 2 and 6).
    pub fn ram_mb(&self, host: &str) -> Vec<f64> {
        self.sysstat_series(host, "kbmemused")
            .into_iter()
            .map(|kb| kb / 1024.0)
            .collect()
    }

    /// Disk read+write KB per sample (Figures 3 and 7).
    pub fn disk_kb(&self, host: &str) -> Vec<f64> {
        let dt = self.config.sample_interval.as_secs_f64();
        let read = self.sysstat_series(host, "bread/s");
        let write = self.sysstat_series(host, "bwrtn/s");
        read.iter()
            .zip(&write)
            .map(|(r, w)| (r + w) * 512.0 * dt / 1024.0)
            .collect()
    }

    /// Network rx+tx KB per sample (Figures 4 and 8).
    pub fn net_kb(&self, host: &str) -> Vec<f64> {
        let dt = self.config.sample_interval.as_secs_f64();
        let rx = self.sysstat_series(host, "eth0-rxkB/s");
        let tx = self.sysstat_series(host, "eth0-txkB/s");
        rx.iter().zip(&tx).map(|(r, t)| (r + t) * dt).collect()
    }

    /// Demand series of one resource on one host, in the figures' units.
    pub fn resource_series(&self, resource: Resource, host: &str) -> Vec<f64> {
        match resource {
            Resource::Cpu => self.cpu_cycles(host),
            Resource::Ram => self.ram_mb(host),
            Resource::Disk => self.disk_kb(host),
            Resource::Net => self.net_kb(host),
        }
    }

    /// Front-end host label (web tier).
    pub fn front_host(&self) -> &str {
        &self.hosts[0]
    }

    /// Back-end host label (DB tier).
    pub fn back_host(&self) -> &str {
        &self.hosts[1]
    }

    /// Hypervisor-view host label, when the deployment has one.
    pub fn hypervisor_host(&self) -> Option<&str> {
        self.hosts.get(2).map(|s| s.as_str())
    }

    /// Persist the full result (config + every sampled series) as JSON —
    /// the "trace" of a run, for offline trace-driven analysis.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_vec(self).expect("result serializes");
        std::fs::write(path, json)
    }

    /// Load a result previously written by [`ExperimentResult::save_json`].
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<ExperimentResult> {
        let bytes = std::fs::read(path)?;
        serde_json::from_slice(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Deployment;
    use cloudchar_rubis::WorkloadMix;

    #[test]
    fn fast_virtualized_run_produces_data() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        let samples = cfg.sample_count();
        let r = run(cfg);
        assert_eq!(r.hosts.len(), 3);
        assert!(r.completed > 100, "completed {}", r.completed);
        assert!(r.response_time_mean_s > 0.0);
        assert!(r.response_time_p95_s >= r.response_time_mean_s * 0.5);
        assert!(r.response_time_p99_s >= r.response_time_p95_s);
        for host in &r.hosts {
            assert_eq!(r.cpu_cycles(host).len(), samples, "{host} cpu");
            assert_eq!(r.ram_mb(host).len(), samples, "{host} ram");
            assert_eq!(r.disk_kb(host).len(), samples, "{host} disk");
            assert_eq!(r.net_kb(host).len(), samples, "{host} net");
        }
        // The web VM carried network traffic; dom0 burned cycles.
        assert!(r.net_kb("web-vm").iter().sum::<f64>() > 0.0);
        assert!(r.cpu_cycles("dom0").iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn fast_physical_run_produces_data() {
        let cfg = ExperimentConfig::fast(Deployment::NonVirtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        assert_eq!(r.hosts.len(), 2);
        assert!(r.hypervisor_host().is_none());
        assert!(r.completed > 100, "completed {}", r.completed);
        assert!(r.cpu_cycles("web-pm").iter().sum::<f64>() > 0.0);
        assert!(r.ram_mb("mysql-pm").iter().all(|&m| m > 100.0));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cpu_cycles("web-vm"), b.cpu_cycles("web-vm"));
        assert_eq!(a.disk_kb("dom0"), b.disk_kb("dom0"));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg1 = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let mut cfg2 = cfg1.clone();
        cfg2.seed = 777;
        let a = run(cfg1);
        let b = run(cfg2);
        assert_ne!(a.cpu_cycles("web-vm"), b.cpu_cycles("web-vm"));
    }

    #[test]
    fn trace_round_trips_through_json() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        let dir = std::env::temp_dir().join("cloudchar-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        r.save_json(&path).unwrap();
        let back = ExperimentResult::load_json(&path).unwrap();
        assert_eq!(back.completed, r.completed);
        assert_eq!(back.cpu_cycles("web-vm"), r.cpu_cycles("web-vm"));
        // JSON float text round-trips can differ by one ULP; compare
        // counts exactly and latencies with tolerance.
        assert_eq!(back.transactions.len(), r.transactions.len());
        for (a, b) in back.transactions.iter().zip(&r.transactions) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert!((a.2 - b.2).abs() <= 1e-12 * (1.0 + b.2.abs()));
        }
        std::fs::remove_file(&path).ok();
    }

    /// `|a - b|` within 1e-9 relative-or-absolute, the online-vs-batch
    /// parity bound.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn online_tail_matches_batch_over_trailing_window() {
        use cloudchar_analysis::SeriesScratch;
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        let window = 32usize;
        let opts = RunOptions {
            online_window: Some(window),
            ..RunOptions::default()
        };
        let (r, report) = run_opts(cfg, &opts).unwrap();
        let report = report.expect("online was armed");
        assert_eq!(report.window, window);
        let mut scratch = SeriesScratch::new();
        for host in &r.hosts {
            for (resource, series) in [
                ("cpu", r.cpu_cycles(host)),
                ("ram", r.ram_mb(host)),
                ("disk", r.disk_kb(host)),
                ("net", r.net_kb(host)),
            ] {
                let snap = report
                    .snapshots
                    .iter()
                    .rev()
                    .find(|s| s.host == *host && s.resource == resource)
                    .unwrap_or_else(|| panic!("{host}/{resource} snapshot"));
                assert_eq!(snap.profile.samples_seen as usize, series.len());
                let tail = &series[series.len().saturating_sub(window)..];
                assert_eq!(snap.profile.window_len, tail.len());
                scratch.load(tail);
                let batch = scratch.summary().expect("finite series");
                let online = snap.profile.summary.as_ref().expect("clean window");
                assert!(close(online.mean, batch.mean), "{host}/{resource} mean");
                assert!(
                    close(online.std_dev, batch.std_dev),
                    "{host}/{resource} std"
                );
                assert!(close(online.min, batch.min), "{host}/{resource} min");
                assert!(close(online.max, batch.max), "{host}/{resource} max");
                assert!(close(online.p95, batch.p95), "{host}/{resource} p95");
                let (k, r1) = snap.profile.autocorr[0];
                assert_eq!(k, 1);
                match (r1, scratch.autocorrelation(1)) {
                    (Some(a), Some(b)) => assert!(close(a, b), "{host}/{resource} ac1"),
                    (a, b) => assert_eq!(a, b, "{host}/{resource} ac1 option"),
                }
                let threshold = (batch.mean.abs() * 0.10).max(1e-9);
                let jumps = scratch.detect_jumps(15, threshold).to_vec();
                assert_eq!(
                    snap.profile.jumps.len(),
                    jumps.len(),
                    "{host}/{resource} jumps"
                );
                for (o, b) in snap.profile.jumps.iter().zip(&jumps) {
                    assert_eq!(o.index, b.index);
                    assert!(close(o.magnitude, b.magnitude));
                }
                let dominant = scratch.dominant_periods(0.10, 1).first().copied();
                match (&snap.profile.dominant, &dominant) {
                    (Some(o), Some(b)) => {
                        assert_eq!(o.period_samples, b.period_samples, "{host}/{resource}");
                        assert!(close(o.power, b.power), "{host}/{resource} power");
                    }
                    (o, b) => assert_eq!(o.is_some(), b.is_some(), "{host}/{resource} period"),
                }
            }
        }
    }

    #[test]
    fn online_profiling_does_not_perturb_the_run() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let plain = run(cfg.clone());
        let opts = RunOptions {
            online_window: Some(16),
            ..RunOptions::default()
        };
        let (observed, report) = run_opts(cfg, &opts).unwrap();
        assert!(report.is_some());
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(plain.events, observed.events);
        assert_eq!(plain.cpu_cycles("web-vm"), observed.cpu_cycles("web-vm"));
        assert_eq!(plain.net_kb("web-vm"), observed.net_kb("web-vm"));
        assert_eq!(plain.disk_kb("dom0"), observed.disk_kb("dom0"));
    }

    #[test]
    fn front_end_dominates_back_end() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        let r = run(cfg);
        let web_net: f64 = r.net_kb(r.front_host()).iter().sum();
        let db_net: f64 = r.net_kb(r.back_host()).iter().sum();
        assert!(
            web_net > 5.0 * db_net,
            "front-end net {web_net} should dwarf back-end {db_net}"
        );
    }
}
