//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p cloudchar-bench --bin repro -- all
//! cargo run --release -p cloudchar-bench --bin repro -- fig1 fig2 ratios
//! cargo run --release -p cloudchar-bench --bin repro -- --fast all
//! cargo run --release -p cloudchar-bench --bin repro -- --audit --fast all
//! cargo run --release -p cloudchar-bench --bin repro -- ratios --sweep 8 --jobs 4
//! cargo run --release -p cloudchar-bench --bin repro -- --fast scenarios
//! cargo run --release -p cloudchar-bench --bin repro -- fault-roundtrip
//! cargo run --release -p cloudchar-bench --bin repro -- characterize --full --jobs 8
//! cargo run --release -p cloudchar-bench --bin repro -- --fast --faults plan.json fig1
//! cargo run --release -p cloudchar-bench --bin repro -- --fast --clients 100000 fig1
//! cargo run --release -p cloudchar-bench --bin repro -- fleet --hosts 100 --jobs 4
//! cargo run --release -p cloudchar-bench --bin repro -- --trace-out traces fig1 characterize
//! cargo run --release -p cloudchar-bench --bin repro -- --trace-in traces characterize --jobs 4
//! cargo run --release -p cloudchar-bench --bin repro -- fleet --hosts 100 --trace-out traces
//! cargo run --release -p cloudchar-bench --bin repro -- --fast run --online --window 60
//! cargo run --release -p cloudchar-bench --bin repro -- --fast fleet --online --jobs 4
//! cargo run --release -p cloudchar-bench --bin repro -- run --help
//! ```
//!
//! `fleet` runs the multi-host topology — a generator shard plus one
//! shard per physical host (`--hosts 13` paper testbed, `--hosts 100`
//! scale-out) — where `--jobs` parallelism acts across hosts.
//!
//! `--faults <plan.json|scenario>` injects a fault schedule into every
//! experiment the run performs. The value is either a path to a
//! `FaultPlan` JSON file or one of the built-in scenario names
//! (`db-crash`, `web-throttle`, `noisy-neighbor`); a fault report with
//! before/during/after deltas is appended for each experiment that ran.
//!
//! `--clients N` overrides the emulated client population for every
//! experiment the run performs (validated against the cohort's
//! `MAX_CLIENTS` ceiling), and the session count of a `fleet` (at least
//! one per pod) — the fleet-scale smoke knob: the columnar
//! cohort makes `--fast --clients 100000` a seconds-long run.
//!
//! `scenarios` runs the three built-in chaos scenarios one by one
//! (virtualized browsing deployment) and prints their availability dip
//! and per-host resource deltas; `fault-roundtrip` smoke-checks that
//! every built-in plan survives a JSON serialization round trip with an
//! identical fingerprint.
//!
//! `--audit` enables the runtime invariant auditor for the whole run and
//! exits non-zero if any invariant (event-time monotonicity, CPU capacity
//! conservation, utilization ranges, sample cadence, ...) was violated.
//!
//! `--sweep N` reruns the `ratios` analysis over an N-seed ensemble on
//! the bounded worker pool (`--jobs J` workers, default: machine
//! parallelism) and prints every R1–R4 / Q1–Q3 claim as an across-seed
//! mean ± stddev instead of a single seed-42 number.
//!
//! `characterize --full` profiles the *entire* 518-metric catalog of
//! every host (summary, fit, autocorrelation, jumps, periodicity per
//! raw series) on the worker pool, instead of the per-resource rollups;
//! `--jobs` bounds the pool for `characterize` either way.
//!
//! `--online` (with `--window W`, default 60 samples) arms live
//! sliding-window characterization: `run` and `fleet` feed every 2 s
//! sample into incremental per-host profilers and print a per-window
//! profile line (summary, lag-1 autocorrelation, dominant period,
//! jumps) as the run executes — O(1) amortized per tick, composing
//! with `--trace-out` without perturbing it.
//!
//! `--trace-out <dir>` runs each experiment with the streaming chunk
//! writer: samples go straight to compressed `.cctr` files under
//! `<dir>`, and figures and characterization read them back through
//! the same series source a resident run uses, holding one series per
//! worker or figure column. Stdout and fig CSVs are byte-identical to
//! the resident run's (`characterize` off a trace is always the full
//! catalog, and only its stderr timing line says `(out-of-core)`).
//! `--trace-in <dir>` skips the runs entirely and re-analyzes traces
//! written by an earlier `--trace-out`. With `fleet`, `--trace-out`
//! streams one `podNN.cctr` per pod and the printed fingerprint is
//! folded back off disk.
//!
//! Experiments: the virtualized (§4.1) and non-virtualized (§4.2)
//! deployments, each under the browsing and bidding compositions, at
//! the paper's scale (1000 clients, 7 s think time, 20 minutes, 2 s
//! samples). CSVs with the full series are written to `results/`.

use cloudchar_analysis::{summarize, Resource};
use cloudchar_core::{
    default_jobs, fold_series, full_characterize_source, paper_values, q1_tier_lag, q2_ram_jumps,
    q3_disk_cv, ratio_report, resource_series, run, run_fleet_opts, run_opts, run_seeds_jobs,
    scenario, scenario_report, Deployment, ExperimentConfig, ExperimentResult, FleetConfig,
    RunOptions, SeriesSource, TraceDir, SCENARIOS,
};
use cloudchar_monitor::catalog;
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{FaultPlan, RunMode};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    VirtBrowse,
    VirtBid,
    PhysBrowse,
    PhysBid,
}

struct Lab {
    fast: bool,
    faults: Option<String>,
    clients: Option<u32>,
    /// `--trace-out <dir>`: run experiments with the streaming chunk
    /// writer and analyze the on-disk store instead of a resident one.
    trace_out: Option<String>,
    /// `--trace-in <dir>`: skip the runs and analyze traces written by
    /// an earlier `--trace-out` invocation.
    trace_in: Option<String>,
    /// Traces opened this invocation (under `--trace-out`/`--trace-in`).
    traces: HashMap<Key, TraceDir>,
    cache: HashMap<Key, ExperimentResult>,
}

impl Lab {
    fn config(&self, key: Key) -> ExperimentConfig {
        let (deployment, mix) = match key {
            Key::VirtBrowse => (Deployment::Virtualized, WorkloadMix::BROWSING),
            Key::VirtBid => (Deployment::Virtualized, WorkloadMix::BIDDING),
            Key::PhysBrowse => (Deployment::NonVirtualized, WorkloadMix::BROWSING),
            Key::PhysBid => (Deployment::NonVirtualized, WorkloadMix::BIDDING),
        };
        let mut cfg = if self.fast {
            ExperimentConfig::fast(deployment, mix)
        } else {
            ExperimentConfig::paper(deployment, mix)
        };
        if let Some(spec) = &self.faults {
            cfg.faults = resolve_plan(spec, cfg.duration.as_secs_f64());
        }
        if let Some(n) = self.clients {
            cfg.clients = n;
        }
        if let Err(e) = cfg.validate() {
            eprintln!("[repro] configuration rejected: {e}");
            std::process::exit(2);
        }
        cfg
    }

    fn get(&mut self, key: Key) -> &ExperimentResult {
        if !self.cache.contains_key(&key) {
            let cfg = self.config(key);
            let label = match key {
                Key::VirtBrowse => "virtualized/browsing",
                Key::VirtBid => "virtualized/bidding",
                Key::PhysBrowse => "non-virtualized/browsing",
                Key::PhysBid => "non-virtualized/bidding",
            };
            eprintln!(
                "[repro] running {label}: {} clients × {:.0}s …",
                cfg.clients,
                cfg.duration.as_secs_f64()
            );
            let t0 = std::time::Instant::now();
            let result = run(cfg);
            eprintln!(
                "[repro]   done in {:.1}s ({} requests, {} events)",
                t0.elapsed().as_secs_f64(),
                result.completed,
                result.events
            );
            self.cache.insert(key, result);
        }
        &self.cache[&key]
    }

    /// Out-of-core mode: figures and characterization read on-disk
    /// chunk traces instead of resident stores.
    fn trace_mode(&self) -> bool {
        self.trace_in.is_some() || self.trace_out.is_some()
    }

    /// The sampled series of each key's run: the resident results, or
    /// in trace mode the on-disk traces. Runs (or opens) what is missing
    /// first, so every source can be borrowed at once.
    fn sources<const N: usize>(&mut self, keys: [Key; N]) -> [&dyn SeriesSource; N] {
        for key in keys {
            if !self.trace_mode() {
                self.get(key);
            } else if !self.traces.contains_key(&key) {
                let path = self.trace(key);
                let trace = must(TraceDir::open(Path::new(&path)), "open trace");
                self.traces.insert(key, trace);
            }
        }
        keys.map(|key| -> &dyn SeriesSource {
            match self.traces.get(&key) {
                Some(trace) => trace,
                None => &self.cache[&key],
            }
        })
    }

    /// On-disk trace file for `key`: an existing one under `--trace-in`,
    /// or under `--trace-out` one written now by running the experiment
    /// with the streaming chunk writer.
    fn trace(&self, key: Key) -> String {
        let name = match key {
            Key::VirtBrowse => "virt_browse",
            Key::VirtBid => "virt_bid",
            Key::PhysBrowse => "phys_browse",
            Key::PhysBid => "phys_bid",
        };
        if let Some(dir) = &self.trace_in {
            let path = format!("{dir}/{name}.cctr");
            if !Path::new(&path).is_file() {
                eprintln!(
                    "[repro] --trace-in: {path} not found (write it first with --trace-out {dir})"
                );
                std::process::exit(2);
            }
            return path;
        }
        let dir = self.trace_out.as_deref().expect("trace mode");
        let path = format!("{dir}/{name}.cctr");
        let cfg = self.config(key);
        must(std::fs::create_dir_all(dir), "create trace dir");
        eprintln!(
            "[repro] running {name} with streaming trace → {path}: {} clients × {:.0}s …",
            cfg.clients,
            cfg.duration.as_secs_f64()
        );
        let t0 = std::time::Instant::now();
        let opts = RunOptions {
            trace_out: Some(path.clone().into()),
            ..RunOptions::default()
        };
        let (result, _) = must(run_opts(cfg, &opts), "write trace");
        eprintln!(
            "[repro]   done in {:.1}s ({} requests, {} events)",
            t0.elapsed().as_secs_f64(),
            result.completed,
            result.events
        );
        path
    }
}

/// Unwrap a trace I/O result or exit(2) with a user-facing message.
fn must<T>(r: std::io::Result<T>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[repro] {what}: {e}");
            std::process::exit(2);
        }
    }
}

fn write_csv(path: &str, header: &str, cols: &[&[f64]], dt_s: f64) {
    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    let n = cols.iter().map(|c| c.len()).max().unwrap_or(0);
    for i in 0..n {
        let mut row = format!("{:.1}", (i + 1) as f64 * dt_s);
        for c in cols {
            row.push_str(&format!(",{:.3}", c.get(i).copied().unwrap_or(f64::NAN)));
        }
        writeln!(f, "{row}").unwrap();
    }
    eprintln!("[repro]   wrote {path}");
}

fn series_stats(label: &str, xs: &[f64]) -> String {
    match summarize(xs) {
        None => format!("{label}: (empty)"),
        Some(s) => format!(
            "{label:<26} mean {:>12.4e}  max {:>12.4e}  cv {:>5.2}",
            s.mean, s.max, s.cv
        ),
    }
}

/// Resolve a `--faults` spec: a built-in scenario name, or a path to a
/// `FaultPlan` JSON file.
fn resolve_plan(spec: &str, duration_s: f64) -> FaultPlan {
    if let Some(plan) = scenario(spec, duration_s) {
        return plan;
    }
    let text = match std::fs::read_to_string(spec) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "[repro] --faults {spec:?} is neither a built-in scenario ({}) nor a readable file: {e}",
                SCENARIOS.join(", ")
            );
            std::process::exit(2);
        }
    };
    match serde_json::from_str::<FaultPlan>(&text) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("[repro] {spec}: invalid fault plan JSON: {e:?}");
            std::process::exit(2);
        }
    }
}

/// Print the fault summary and before/during/after phase deltas of one
/// fault-injected experiment, mirroring the shape of the ratio tables.
fn print_fault_report(result: &ExperimentResult) {
    let Some(summary) = &result.faults else {
        println!("  (no fault summary — the plan was empty)");
        return;
    };
    println!(
        "  plan {:?}  fingerprint {:#018x}",
        summary.plan_name, summary.plan_fingerprint
    );
    for w in &summary.windows {
        println!(
            "    window {:<13} [{:.1}s, {:.1}s)",
            w.label, w.start_s, w.end_s
        );
    }
    println!(
        "  requests: {} ok, {} errors, {} timeouts, {} retries, {} abandons  (overall availability {:.3})",
        summary.ok,
        summary.errors,
        summary.timeouts,
        summary.retries,
        summary.abandons,
        summary.overall_availability()
    );
    match scenario_report(result) {
        None => println!("  (fault windows leave no before/after samples — no phase report)"),
        Some(rep) => {
            println!(
                "  availability: before {:.3}  during {:.3}  after {:.3}  (envelope samples {}..{})",
                rep.availability_before,
                rep.availability_during,
                rep.availability_after,
                rep.window.0,
                rep.window.1
            );
            println!(
                "  {:<10} {:<5} {:>12} {:>12} {:>12} {:>8} {:>8}",
                "host", "res", "before", "during", "after", "dur/bef", "aft/bef"
            );
            for d in &rep.deltas {
                println!(
                    "  {:<10} {:<5} {:>12.4e} {:>12.4e} {:>12.4e} {:>8.2} {:>8.2}",
                    d.host,
                    format!("{:?}", d.resource).to_lowercase(),
                    d.before,
                    d.during,
                    d.after,
                    d.during_ratio(),
                    d.recovery_ratio()
                );
            }
        }
    }
}

/// Run the three built-in chaos scenarios (virtualized browsing
/// deployment) and report each one's availability dip and per-host
/// resource deltas.
fn scenarios_cmd(fast: bool) {
    for name in SCENARIOS {
        let mut cfg = if fast {
            ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING)
        } else {
            ExperimentConfig::paper(Deployment::Virtualized, WorkloadMix::BROWSING)
        };
        cfg.faults = scenario(name, cfg.duration.as_secs_f64()).expect("built-in scenario");
        cfg.validate().expect("scenario config validates");
        println!("== Scenario {name} (virtualized/browsing) ==");
        eprintln!("[repro] running scenario {name} …");
        let t0 = std::time::Instant::now();
        let result = run(cfg);
        eprintln!(
            "[repro]   done in {:.1}s ({} requests, {} events)",
            t0.elapsed().as_secs_f64(),
            result.completed,
            result.events
        );
        print_fault_report(&result);
        println!();
    }
}

/// Smoke-check the fault-plan JSON round trip: every built-in scenario
/// must serialize, parse back identical, and keep its fingerprint.
fn fault_roundtrip_cmd() {
    println!("== Fault-plan serialization round trip ==");
    std::fs::create_dir_all("results").expect("create results dir");
    for name in SCENARIOS {
        let plan = scenario(name, 120.0).expect("built-in scenario");
        let json = serde_json::to_string(&plan).expect("serialize plan");
        let path = format!("results/faultplan_{name}.json");
        std::fs::write(&path, &json).expect("write plan");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse plan");
        assert_eq!(plan, back, "{name}: round trip changed the plan");
        assert_eq!(
            plan.fingerprint(),
            back.fingerprint(),
            "{name}: round trip changed the fingerprint"
        );
        println!(
            "  {name:<15} {} events  fingerprint {:#018x}  ok ({path})",
            plan.events.len(),
            plan.fingerprint()
        );
    }
    println!();
}

/// Table 1: the metric catalog sample.
fn table1() {
    let c = catalog();
    println!(
        "== Table 1: sample of the {} profiled performance metrics ==",
        c.len()
    );
    println!(
        "{:<22} {:<15} {:<10} description",
        "metric", "source", "family"
    );
    for id in c.table1_sample() {
        let d = c.def(id);
        println!(
            "{:<22} {:<15} {:<10} {}",
            d.name,
            d.source.to_string(),
            format!("{:?}", d.family),
            d.description
        );
    }
    let (hv, vm, perf) = (
        c.by_source(cloudchar_monitor::Source::HypervisorSysstat)
            .len(),
        c.by_source(cloudchar_monitor::Source::VmSysstat).len(),
        c.by_source(cloudchar_monitor::Source::PerfCounter).len(),
    );
    println!(
        "catalog: {hv} hypervisor sysstat + {vm} VM sysstat + {perf} perf = {}",
        c.len()
    );
    println!();
}

/// One resource figure: fig1–4 show the virtualized deployment (three
/// panels), fig5–8 the non-virtualized one (two panels), each panel
/// browse vs bid.
fn figure(lab: &mut Lab, fig: u8) {
    let (resource, unit) = match fig {
        1 | 5 => (Resource::Cpu, "cycles/2s"),
        2 | 6 => (Resource::Ram, "MB"),
        3 | 7 => (Resource::Disk, "KB/2s"),
        4 | 8 => (Resource::Net, "KB/2s"),
        _ => unreachable!(),
    };
    let (view, keys, panels): (_, _, &[(&str, &str)]) = if fig <= 4 {
        (
            "virtualized",
            [Key::VirtBrowse, Key::VirtBid],
            &[
                ("web-vm", "Web+App. (VM)"),
                ("mysql-vm", "Mysql (VM)"),
                ("dom0", "Domain0"),
            ],
        )
    } else {
        (
            "non-virtualized",
            [Key::PhysBrowse, Key::PhysBid],
            &[("web-pm", "Web+App. (PM)"), ("mysql-pm", "Mysql (PM)")],
        )
    };
    println!("== Figure {fig}: {resource:?} ({unit}) — {view}, browse vs bid ==");
    let [browse, bid] = lab.sources(keys);
    for &(host, panel) in panels {
        let b = must(resource_series(browse, resource, host), "read trace");
        let q = must(resource_series(bid, resource, host), "read trace");
        println!("  {}", series_stats(&format!("{panel} browse"), &b));
        println!("  {}", series_stats(&format!("{panel} bid"), &q));
        write_csv(
            &format!("results/fig{fig}_{host}.csv"),
            "t_s,browse,bid",
            &[&b, &q],
            2.0,
        );
    }
    println!();
}

fn print_ratio_row(
    paper: cloudchar_analysis::ResourceRatios,
    ours: cloudchar_analysis::ResourceRatios,
) {
    println!(
        "       {:>10} {:>10} {:>10} {:>10}",
        "cpu", "ram", "disk", "net"
    );
    println!(
        "       {:>10.2} {:>10.2} {:>10.2} {:>10.2}   (paper)",
        paper.cpu, paper.ram, paper.disk, paper.net
    );
    println!(
        "       {:>10.2} {:>10.2} {:>10.2} {:>10.2}   (measured)",
        ours.cpu, ours.ram, ours.disk, ours.net
    );
}

fn ratios(lab: &mut Lab) {
    println!("== Ratios R1–R4 (averaged over the two published mixes) ==");
    let avg = |a: cloudchar_analysis::ResourceRatios, b: cloudchar_analysis::ResourceRatios| {
        cloudchar_analysis::ResourceRatios {
            cpu: 0.5 * (a.cpu + b.cpu),
            ram: 0.5 * (a.ram + b.ram),
            disk: 0.5 * (a.disk + b.disk),
            net: 0.5 * (a.net + b.net),
        }
    };
    let (rep_browse, rep_bid) = {
        let vb = lab.get(Key::VirtBrowse).clone();
        let vd = lab.get(Key::VirtBid).clone();
        let pb = lab.get(Key::PhysBrowse).clone();
        let pd = lab.get(Key::PhysBid).clone();
        (ratio_report(&vb, &pb), ratio_report(&vd, &pd))
    };
    println!("R1: front-end vs back-end demand (virtualized, VM level)");
    print_ratio_row(paper_values::R1, avg(rep_browse.r1, rep_bid.r1));
    println!("R2: aggregated VMs vs hypervisor (dom0) view");
    print_ratio_row(paper_values::R2, avg(rep_browse.r2, rep_bid.r2));
    println!("R3: non-virtualized aggregate vs virtualized physical view");
    print_ratio_row(paper_values::R3, avg(rep_browse.r3, rep_bid.r3));
    println!("R4: physical-demand delta, % (front-end PM vs dom0 view)");
    print_ratio_row(
        paper_values::R4_PERCENT,
        avg(rep_browse.r4_percent, rep_bid.r4_percent),
    );
    println!();
}

/// One across-seed claim distribution: `name`, per-seed values, paper
/// value when the paper reports one.
fn claim_row(name: &str, values: &[f64], paper: Option<f64>) {
    match summarize(values) {
        Some(s) => {
            let paper = paper.map(|p| format!("   (paper {p})")).unwrap_or_default();
            println!("  {name:<22} {:>9.2} ± {:<8.2}{paper}", s.mean, s.std_dev);
        }
        None => println!("  {name:<22} (not computable)"),
    }
}

/// The `ratios` analysis over an N-seed ensemble: every R1–R4 and Q1–Q3
/// claim as an across-seed mean ± stddev, mixes averaged as in the
/// single-seed report.
fn ratios_sweep(fast: bool, sweep: usize, jobs: usize) {
    let seeds: Vec<u64> = (0..sweep as u64).map(|i| 42 + i).collect();
    let cfg = |deployment, mix| {
        if fast {
            ExperimentConfig::fast(deployment, mix)
        } else {
            ExperimentConfig::paper(deployment, mix)
        }
    };
    eprintln!("[repro] sweeping {sweep} seeds × 4 configs on {jobs} worker(s) …");
    let t0 = std::time::Instant::now();
    let vb = run_seeds_jobs(
        &cfg(Deployment::Virtualized, WorkloadMix::BROWSING),
        &seeds,
        jobs,
    );
    let vd = run_seeds_jobs(
        &cfg(Deployment::Virtualized, WorkloadMix::BIDDING),
        &seeds,
        jobs,
    );
    let pb = run_seeds_jobs(
        &cfg(Deployment::NonVirtualized, WorkloadMix::BROWSING),
        &seeds,
        jobs,
    );
    let pd = run_seeds_jobs(
        &cfg(Deployment::NonVirtualized, WorkloadMix::BIDDING),
        &seeds,
        jobs,
    );
    eprintln!(
        "[repro]   {} runs done in {:.1}s",
        4 * sweep,
        t0.elapsed().as_secs_f64()
    );

    // Per-seed claim values, mixes averaged (matching `ratios`).
    let mut rows: Vec<(String, Vec<f64>, Option<f64>)> = Vec::new();
    type Pick = fn(&cloudchar_core::RatioReport) -> cloudchar_analysis::ResourceRatios;
    let ratio_sets: [(&str, Pick, cloudchar_analysis::ResourceRatios); 4] = [
        ("R1 front/back", |r| r.r1, paper_values::R1),
        ("R2 VMs/dom0", |r| r.r2, paper_values::R2),
        ("R3 nonvirt/virt", |r| r.r3, paper_values::R3),
        (
            "R4 phys delta %",
            |r| r.r4_percent,
            paper_values::R4_PERCENT,
        ),
    ];
    for (label, pick, paper) in ratio_sets {
        for res in Resource::ALL {
            let values: Vec<f64> = (0..sweep)
                .map(|i| {
                    let browse = pick(&ratio_report(&vb[i], &pb[i])).get(res);
                    let bid = pick(&ratio_report(&vd[i], &pd[i])).get(res);
                    0.5 * (browse + bid)
                })
                .collect();
            rows.push((
                format!("{label} {}", format!("{res:?}").to_lowercase()),
                values,
                Some(paper.get(res)),
            ));
        }
    }
    let q1: Vec<f64> = vb
        .iter()
        .map(|r| q1_tier_lag(r, 10).map_or(f64::NAN, |l| l.lag_samples as f64))
        .collect();
    let q2: Vec<f64> = vb
        .iter()
        .map(|r| q2_ram_jumps(r, 5, 2.0).len() as f64)
        .collect();
    let q3_virt: Vec<f64> = vb.iter().map(|r| q3_disk_cv(r, "dom0")).collect();
    let q3_phys: Vec<f64> = pb.iter().map(|r| q3_disk_cv(r, "web-pm")).collect();
    rows.push(("Q1 lag samples".into(), q1, None));
    rows.push(("Q2 ram jumps".into(), q2, None));
    rows.push(("Q3 disk cv dom0".into(), q3_virt, None));
    rows.push(("Q3 disk cv web-pm".into(), q3_phys, None));

    println!("== Claims across {sweep} seeds (per-claim mean ± stddev, mixes averaged) ==");
    for (name, values, paper) in &rows {
        claim_row(name, values, *paper);
    }
    println!();
}

fn lag(lab: &mut Lab) {
    println!("== Q1: web→db workload lag (cross-correlation peak) ==");
    for (key, label) in [
        (Key::VirtBrowse, "virtualized/browsing"),
        (Key::VirtBid, "virtualized/bidding"),
        (Key::PhysBrowse, "non-virtualized/browsing"),
        (Key::PhysBid, "non-virtualized/bidding"),
    ] {
        let r = lab.get(key);
        match q1_tier_lag(r, 10) {
            Some(l) => println!(
                "  {label:<26} lag {:>3} samples ({:>4.1}s)  r={:.3}",
                l.lag_samples,
                l.lag_samples as f64 * 2.0,
                l.correlation
            ),
            None => println!("  {label:<26} (insufficient data)"),
        }
    }
    println!("  paper: db tier trails the web tier (non-negative lag expected)");
    println!();
}

fn jumps(lab: &mut Lab) {
    println!("== Q2: RAM level shifts on the front-end (window 15, 40 MB) ==");
    for (key, label) in [
        (Key::VirtBrowse, "virtualized/browsing"),
        (Key::VirtBid, "virtualized/bidding"),
        (Key::PhysBrowse, "non-virtualized/browsing"),
        (Key::PhysBid, "non-virtualized/bidding"),
    ] {
        let r = lab.get(key);
        let js = q2_ram_jumps(r, 15, 40.0);
        let first = js.first().map(|j| format!("{:.0}s", j.index as f64 * 2.0));
        println!(
            "  {label:<26} {} jump(s){}",
            js.len(),
            first.map(|t| format!(", first at {t}")).unwrap_or_default()
        );
    }
    println!("  paper: browse jumps in virt; bid smooth in virt; jumps earlier on PMs");
    println!();
}

fn variance(lab: &mut Lab) {
    println!("== Q3: disk-traffic coefficient of variation ==");
    for (key, host, label) in [
        (Key::VirtBrowse, "dom0", "virtualized (dom0) browse"),
        (Key::VirtBid, "dom0", "virtualized (dom0) bid"),
        (Key::PhysBrowse, "web-pm", "non-virt (web PM) browse"),
        (Key::PhysBid, "web-pm", "non-virt (web PM) bid"),
    ] {
        let r = lab.get(key);
        println!("  {label:<28} cv {:.2}", q3_disk_cv(r, host));
    }
    println!("  paper: higher variance in the non-virtualized system");
    println!();
}

/// The paper ran five request compositions but printed only two "due to
/// the space limitation"; this command produces all five.
fn mixes_cmd(fast: bool) {
    println!("== All five paper compositions (virtualized) ==");
    println!(
        "{:<9} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "mix", "web cyc/2s", "db cyc/2s", "web net KB", "web ram MB", "resp ms"
    );
    for (name, mix) in WorkloadMix::paper_compositions() {
        let cfg = if fast {
            ExperimentConfig::fast(Deployment::Virtualized, mix)
        } else {
            ExperimentConfig::paper(Deployment::Virtualized, mix)
        };
        let r = run(cfg);
        let m = |xs: Vec<f64>| summarize(&xs).map_or(0.0, |s| s.mean);
        println!(
            "{name:<9} {:>14.3e} {:>14.3e} {:>12.1} {:>12.1} {:>10.1}",
            m(r.cpu_cycles("web-vm")),
            m(r.cpu_cycles("mysql-vm")),
            m(r.net_kb("web-vm")),
            m(r.ram_mb("web-vm")),
            r.response_time_mean_s * 1e3,
        );
    }
    println!();
}

fn report_cmd(lab: &mut Lab) {
    let vb = lab.get(Key::VirtBrowse).clone();
    let vd = lab.get(Key::VirtBid).clone();
    let pb = lab.get(Key::PhysBrowse).clone();
    let pd = lab.get(Key::PhysBid).clone();
    let report = cloudchar_core::render_report(&cloudchar_core::ReportInputs {
        virt_browse: &vb,
        virt_bid: &vd,
        phys_browse: &pb,
        phys_bid: &pd,
    });
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/REPORT.md", &report).expect("write report");
    eprintln!("[repro]   wrote results/REPORT.md ({} bytes)", report.len());
}

fn characterize_cmd(lab: &mut Lab, full: bool, jobs: usize) {
    // A trace holds only the raw series (no transactions), so trace mode
    // profiles the full catalog.
    let full = full || lab.trace_mode();
    if full {
        println!("== Workload characterization: full metric catalog ==");
    } else {
        println!("== Workload characterization (resource + transaction level) ==");
    }
    let place = if lab.trace_mode() {
        " (out-of-core)"
    } else {
        ""
    };
    for (key, label) in [
        (Key::VirtBrowse, "virtualized/browsing"),
        (Key::VirtBid, "virtualized/bidding"),
    ] {
        let [src] = lab.sources([key]);
        println!("--- {label} ---");
        if full {
            let t0 = std::time::Instant::now();
            let fc = must(full_characterize_source(src, jobs), "characterize");
            eprintln!(
                "[repro]   profiled {} series on {jobs} worker(s) in {:.2}s{place}",
                fc.profiles.len(),
                t0.elapsed().as_secs_f64()
            );
            println!("{fc}");
        } else {
            println!("{}", cloudchar_core::characterize_jobs(lab.get(key), jobs));
        }
    }
}

/// `run` — one experiment (virtualized/browsing) through the
/// composable runner: `--online --window W` prints live per-host
/// profiles, and the run composes with `--trace-out`.
fn run_cmd(lab: &Lab, online: Option<usize>) {
    let cfg = lab.config(Key::VirtBrowse);
    let trace_path = lab.trace_out.as_ref().map(|dir| {
        must(std::fs::create_dir_all(dir), "create trace dir");
        std::path::PathBuf::from(format!("{dir}/virt_browse.cctr"))
    });
    let opts = RunOptions {
        trace_out: trace_path.clone(),
        online_window: online,
    };
    println!(
        "== Run: virtualized/browsing ({} clients × {:.0}s) ==",
        cfg.clients,
        cfg.duration.as_secs_f64()
    );
    eprintln!("[repro] running virtualized/browsing …");
    let t0 = std::time::Instant::now();
    let (r, report) = must(run_opts(cfg, &opts), "run experiment");
    eprintln!(
        "[repro]   done in {:.1}s ({} requests, {} events)",
        t0.elapsed().as_secs_f64(),
        r.completed,
        r.events
    );
    println!(
        "  {} requests  mean latency {:.1} ms  p95 {:.1} ms",
        r.completed,
        r.response_time_mean_s * 1e3,
        r.response_time_p95_s * 1e3
    );
    if let Some(path) = &trace_path {
        eprintln!("[repro]   wrote {}", path.display());
    }
    if let Some(report) = report {
        println!("  online profiles (window {} samples):", report.window);
        print!("{report}");
    }
    println!();
}

/// `fleet` — run the multi-host sharded fleet (generator shard + one
/// shard per physical host) and print its throughput, availability and
/// parallel-runner statistics. `--hosts 13` is the paper topology,
/// `--hosts 100` the scale-out configuration, and any other count exits
/// 2; `--clients N` sets the session count; `--jobs` sets the worker
/// threads; `--faults <spec>` injects the plan into pod 0 only;
/// `--online` prints live per-pod window profiles.
fn fleet_cmd(
    hosts: usize,
    clients: Option<u32>,
    jobs: usize,
    faults: &Option<String>,
    trace_out: &Option<String>,
    online: Option<usize>,
) {
    let mut cfg = match hosts {
        13 => FleetConfig::paper13(),
        100 => FleetConfig::fleet100(),
        _ => {
            eprintln!(
                "[repro] fleet --hosts must be 13 (paper testbed) or 100 (scale-out), got {hosts}"
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = clients {
        // Checked against the pod count by FleetConfig::validate.
        cfg.base.clients = n;
    }
    if let Some(spec) = faults {
        cfg.base.faults = resolve_plan(spec, cfg.base.duration.as_secs_f64());
        cfg.fault_pod = Some(0);
    }
    println!(
        "== Fleet: {} hosts ({} pods + generator), {} sessions, {:.0}s, jobs={jobs} ==",
        cfg.hosts(),
        cfg.pods,
        cfg.base.clients,
        cfg.base.duration.as_secs_f64()
    );
    let opts = RunOptions {
        trace_out: trace_out.as_ref().map(Into::into),
        online_window: online,
    };
    if let Some(dir) = trace_out {
        eprintln!("[repro] streaming pod traces → {dir}/podNN.cctr …");
    }
    let t0 = std::time::Instant::now();
    let r = must(
        run_fleet_opts(&cfg, RunMode::Windowed { jobs }, &opts),
        "fleet run",
    );
    let fp = match trace_out {
        // Pod samples streamed to `dir/podNN.cctr`; the fingerprint's
        // series fold is streamed back off disk, so it matches the
        // untraced run without ever holding the store in memory.
        Some(dir) => {
            let trace = must(TraceDir::open(Path::new(dir)), "open fleet trace");
            let h = must(
                fold_series(&trace, 0xcbf2_9ce4_8422_2325),
                "hash fleet trace",
            );
            r.counter_fingerprint(h)
        }
        None => r.fingerprint(),
    };
    let wall = t0.elapsed().as_secs_f64();
    let s = &r.stats;
    println!(
        "  {} ok, {} failed ({} retries, {} abandons)  mean latency {:.1} ms  fingerprint {fp:#018x}",
        r.completed,
        r.failed,
        r.retries,
        r.abandons,
        r.response_time_mean_s * 1e3,
    );
    let avail = r.availability_over(0, r.availability.len());
    let ideal = if s.critical_units > 0 {
        s.units as f64 / s.critical_units as f64
    } else {
        1.0
    };
    println!(
        "  availability {:.4}  wall {:.2}s  rounds {}  units {}  messages {}  ideal speedup {:.2}x",
        avail, wall, s.rounds, s.units, s.messages, ideal
    );
    if let Some(report) = &r.online {
        println!("  online profiles (window {} samples):", report.window);
        print!("{report}");
    }
}

/// The flag block shared by every subcommand's help: one source of
/// truth so `run`, `fleet`, `characterize` and the figures never drift
/// on which global flags they accept.
const HELP_COMMON: &str = "\
Global flags (accepted by every subcommand):
  --fast                 reduced-scale runs (seconds instead of minutes)
  --jobs <N>             worker-pool width for parallel stages
  --clients <N>          override the emulated client population
  --faults <plan.json|scenario>
                         inject a fault schedule (db-crash, web-throttle,
                         noisy-neighbor, or a FaultPlan JSON file)
  --trace-out <dir>      stream samples to compressed .cctr traces in <dir>
  --trace-in <dir>       skip the runs; analyze traces written by an
                         earlier --trace-out
  --online               live sliding-window characterization on the 2 s
                         sampling tick (run and fleet print per-window
                         profiles as the run executes)
  --window <W>           online window length in samples (default 60)
  --audit                enable the runtime invariant auditor";

/// Print help for `topic` (a subcommand name) or the global overview,
/// then exit 0.
fn print_help(topic: Option<&str>) -> ! {
    match topic {
        Some("run") => {
            println!("repro run — one composable experiment run (virtualized/browsing)");
            println!();
            println!("Usage: repro [flags] run");
            println!();
            println!("Runs a single experiment through the composable runner:");
            println!("  --online [--window W]  print live per-host online profiles");
            println!("  --trace-out <dir>      stream samples to <dir>/virt_browse.cctr");
            println!("  --trace-in <dir>       (not applicable: run always executes)");
            println!("  --clients <N>          override the client population");
            println!();
            println!("{HELP_COMMON}");
        }
        Some("fleet") => {
            println!("repro fleet — multi-host sharded fleet");
            println!();
            println!("Usage: repro [flags] fleet [--hosts N]");
            println!();
            println!("  --hosts <N>            13 = paper testbed, 100 = scale-out");
            println!("  --online [--window W]  live per-pod online profiles (podNN/host)");
            println!("  --trace-out <dir>      stream one <dir>/podNN.cctr per pod");
            println!("  --trace-in <dir>       (not applicable: fleet always executes)");
            println!("  --clients <N>          sessions spread over the pods (>= pods)");
            println!("  --faults <spec>        inject the plan into pod 0 only");
            println!();
            println!("{HELP_COMMON}");
        }
        Some("characterize") => {
            println!("repro characterize — workload characterization");
            println!();
            println!("Usage: repro [flags] characterize [--full]");
            println!();
            println!("  --full                 profile the entire 518-metric catalog");
            println!("  --jobs <N>             worker pool for per-series profiling");
            println!("  --trace-out <dir>      run with streaming traces, then profile");
            println!("                         out of core (implies the full catalog;");
            println!("                         prints what --full prints resident)");
            println!("  --trace-in <dir>       profile existing traces without rerunning");
            println!("  --clients <N>          scale the backing runs");
            println!();
            println!("{HELP_COMMON}");
        }
        Some(t) if t == "figures" || (t.starts_with("fig") && t.len() == 4) => {
            println!("repro fig1..fig8 — the paper's resource figures");
            println!();
            println!("Usage: repro [flags] fig1 [fig2 ...]");
            println!();
            println!("  fig1-4: virtualized cpu/ram/disk/net; fig5-8: non-virtualized.");
            println!("  CSVs land in results/figN_<host>.csv.");
            println!("  --trace-out <dir>      stream the backing runs to .cctr traces");
            println!("                         and render the figures off disk (same");
            println!("                         stats lines and CSV bytes as resident)");
            println!("  --trace-in <dir>       render from existing traces, no reruns");
            println!("  --clients <N>          scale the backing runs");
            println!();
            println!("{HELP_COMMON}");
        }
        _ => {
            println!("repro — regenerate every table and figure of the paper");
            println!();
            println!("Usage: repro [flags] [command ...]   (default: all)");
            println!();
            println!("Commands:");
            println!("  all              table1, fig1-8, ratios, lag, jumps, variance,");
            println!("                   characterize, report, mixes, fault-roundtrip");
            println!("  table1           sample of the 518-metric catalog");
            println!("  fig1..fig8       resource figures (repro figures --help)");
            println!("  ratios           R1-R4 tables; --sweep N for a seed ensemble");
            println!("  lag jumps variance");
            println!("                   qualitative claims Q1-Q3");
            println!("  characterize     per-resource or --full catalog profiling");
            println!("                   (repro characterize --help)");
            println!("  run              one composable run (repro run --help)");
            println!("  fleet            multi-host fleet (repro fleet --help)");
            println!("  scenarios        the three built-in chaos scenarios (opt-in)");
            println!("  fault-roundtrip  fault-plan JSON round-trip smoke");
            println!("  report           write results/REPORT.md");
            println!("  mixes            all five paper request compositions");
            println!();
            println!("{HELP_COMMON}");
        }
    }
    std::process::exit(0)
}

/// `--name value` / `--name=value` string flag; `None` when `arg` is not
/// this flag.
fn take_value(arg: &str, name: &str, it: &mut impl Iterator<Item = String>) -> Option<String> {
    match arg.strip_prefix(&format!("{name}=")) {
        Some(inline) => Some(inline.to_string()),
        None if arg == name => Some(it.next().unwrap_or_default()),
        None => None,
    }
}

/// `take_value` for positive-integer flags; exits on a malformed value.
fn take_count(arg: &str, name: &str, it: &mut impl Iterator<Item = String>) -> Option<usize> {
    let value = take_value(arg, name, it)?;
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("[repro] {name} needs a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let topic = args.iter().find(|a| !a.starts_with('-'));
        print_help(topic.map(String::as_str));
    }
    let fast = args.iter().any(|a| a == "--fast");
    let audit = args.iter().any(|a| a == "--audit");
    let full = args.iter().any(|a| a == "--full");
    let online_flag = args.iter().any(|a| a == "--online");
    let mut sweep: usize = 1;
    let mut jobs: usize = default_jobs();
    let mut window: usize = 60;
    let mut faults: Option<String> = None;
    let mut clients: Option<u32> = None;
    let mut hosts: usize = 13;
    let mut trace_out: Option<String> = None;
    let mut trace_in: Option<String> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args
        .into_iter()
        .filter(|a| a != "--fast" && a != "--audit" && a != "--full" && a != "--online");
    while let Some(arg) = it.next() {
        if let Some(n) = take_count(&arg, "--sweep", &mut it) {
            sweep = n;
        } else if let Some(j) = take_count(&arg, "--jobs", &mut it) {
            jobs = j;
        } else if let Some(w) = take_count(&arg, "--window", &mut it) {
            window = w;
        } else if let Some(f) = take_value(&arg, "--faults", &mut it) {
            faults = Some(f);
        } else if let Some(h) = take_count(&arg, "--hosts", &mut it) {
            hosts = h;
        } else if let Some(d) = take_value(&arg, "--trace-out", &mut it) {
            trace_out = Some(d);
        } else if let Some(d) = take_value(&arg, "--trace-in", &mut it) {
            trace_in = Some(d);
        } else if let Some(n) = take_count(&arg, "--clients", &mut it) {
            // Validated (> 0, <= MAX_CLIENTS) by cfg.validate() per run;
            // saturate so an absurd value still hits the ceiling check.
            clients = Some(u32::try_from(n).unwrap_or(u32::MAX));
        } else if arg.starts_with("--") {
            // An unknown flag would otherwise read as a command name and
            // silently displace the default `all`.
            eprintln!("[repro] unknown flag {arg:?} (see repro --help)");
            std::process::exit(2);
        } else {
            cmds.push(arg);
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    if audit {
        cloudchar_simcore::audit::enable();
    }
    if trace_in.is_some() && trace_out.is_some() {
        eprintln!("[repro] --trace-in and --trace-out are mutually exclusive");
        std::process::exit(2);
    }
    let mut lab = Lab {
        fast,
        faults,
        clients,
        trace_out: trace_out.clone(),
        trace_in,
        traces: HashMap::new(),
        cache: HashMap::new(),
    };
    let all = cmds.iter().any(|c| c == "all");
    let want = |name: &str| all || cmds.iter().any(|c| c == name);

    if want("table1") {
        table1();
    }
    for fig in 1..=8u8 {
        if want(&format!("fig{fig}")) {
            figure(&mut lab, fig);
        }
    }
    if want("ratios") {
        if sweep > 1 {
            ratios_sweep(fast, sweep, jobs);
        } else {
            ratios(&mut lab);
        }
    }
    if want("lag") {
        lag(&mut lab);
    }
    if want("jumps") {
        jumps(&mut lab);
    }
    if want("variance") {
        variance(&mut lab);
    }
    if want("characterize") {
        characterize_cmd(&mut lab, full, jobs);
    }
    if want("report") {
        report_cmd(&mut lab);
    }
    if want("mixes") {
        mixes_cmd(fast);
    }
    // `scenarios` is opt-in: three extra full runs don't ride with `all`.
    if cmds.iter().any(|c| c == "scenarios") {
        scenarios_cmd(fast);
    }
    // `run` is opt-in: one composable experiment (live profiles, traces).
    if cmds.iter().any(|c| c == "run") {
        let online = online_flag.then_some(window);
        run_cmd(&lab, online);
    }
    // `fleet` is opt-in too: the multi-host topology is its own scale.
    if cmds.iter().any(|c| c == "fleet") {
        let online = online_flag.then_some(window);
        fleet_cmd(hosts, lab.clients, jobs, &lab.faults, &trace_out, online);
    }
    if want("fault-roundtrip") {
        fault_roundtrip_cmd();
    }

    // With --faults active, append a fault report per experiment that ran.
    if lab.faults.is_some() {
        for (key, label) in [
            (Key::VirtBrowse, "virtualized/browsing"),
            (Key::VirtBid, "virtualized/bidding"),
            (Key::PhysBrowse, "non-virtualized/browsing"),
            (Key::PhysBid, "non-virtualized/bidding"),
        ] {
            if let Some(result) = lab.cache.get(&key) {
                println!("== Fault report: {label} ==");
                print_fault_report(result);
                println!();
            }
        }
    }

    if audit {
        let report = cloudchar_simcore::audit::take_report();
        eprintln!("[repro] {}", report.summary());
        if !report.is_clean() {
            for v in &report.violations {
                eprintln!(
                    "[repro]   {} @{}ns: {}",
                    v.invariant, v.sim_time_ns, v.detail
                );
            }
            eprintln!(
                "[repro] audit FAILED: {} invariant violations",
                report.violations_total
            );
            std::process::exit(1);
        }
    }
}
