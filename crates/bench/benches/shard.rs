//! Sharded-engine benchmark: single-run parallelism across physical
//! hosts.
//!
//! Two topologies are measured, both through `core::fleet`:
//!
//! * **paper13** — the paper's testbed scaled out: 4 serving pods
//!   (web VM + MySQL VM + dom0 each) plus the generator shard;
//! * **fleet100** — 33 pods (100 hosts) with a proportionally larger
//!   session population.
//!
//! Each topology runs under the single-queue oracle and under the
//! windowed conservative runner at `--jobs` 1/2/4/8, asserting the
//! fingerprints are byte-identical before any timing is reported. Two
//! speedups are recorded:
//!
//! * **measured wall** — honest wall-clock ratio on *this* machine.
//!   On a single-core container every worker thread shares one CPU, so
//!   the measured ratio mostly prices the synchronization overhead,
//!   not the parallelism.
//! * **ideal (critical-path) speedup** — `units / critical_units` from
//!   the runner's own counters: the speedup a zero-overhead parallel
//!   execution of the same round schedule would achieve. This is
//!   machine-independent and bounded by the conservative lookahead
//!   (the 5 ms client↔server link), not by the host's core count.
//!
//! Run `cargo bench -p cloudchar-bench --bench shard` for the criterion
//! groups, `-- --record` to print the `results/BENCH_shard.json`
//! payload, or `-- --smoke` for the CI gate: jobs=4 fingerprint equals
//! jobs=1, and the ideal speedup at 4 shards clears 1.5x on the 100-host
//! fleet.

use cloudchar_core::{run_fleet, run_fleet_opts, FleetConfig, FleetResult, RunOptions};
use cloudchar_simcore::RunMode;
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn topologies() -> [(&'static str, FleetConfig); 2] {
    [
        ("paper13", FleetConfig::paper13()),
        ("fleet100", FleetConfig::fleet100()),
    ]
}

/// One fleet run under `mode`, resident store, no observers.
fn run_mode(cfg: &FleetConfig, mode: RunMode) -> FleetResult {
    run_fleet_opts(cfg, mode, &RunOptions::default()).expect("valid fleet config")
}

/// Minimum wall time of `reps` runs, plus the last result.
fn time_fleet(cfg: &FleetConfig, mode: RunMode, reps: u32) -> (u128, FleetResult) {
    let mut best = u128::MAX;
    let mut last = run_mode(cfg, mode); // warm: heap + page faults
    for _ in 0..reps {
        let t = Instant::now();
        last = black_box(run_mode(cfg, mode));
        best = best.min(t.elapsed().as_nanos());
    }
    (best, last)
}

fn bench_fleet(c: &mut Criterion) {
    for (name, cfg) in topologies() {
        let group_name = format!("shard/{name}");
        let mut group = c.benchmark_group(group_name.as_str());
        group.sample_size(10);
        group.bench_function("single_queue", |b| {
            b.iter(|| black_box(run_mode(&cfg, RunMode::SingleQueue).completed))
        });
        for jobs in [1usize, 4] {
            let label = format!("windowed_jobs{jobs}");
            group.bench_function(label.as_str(), |b| {
                b.iter(|| black_box(run_fleet(&cfg, jobs).completed))
            });
        }
        group.finish();
    }
}

fn record() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"cores\": {cores},");
    println!(
        "  \"note\": \"wall times are from this machine ({cores} core(s)); with a single core the windowed jobs>1 rows price synchronization overhead, not parallelism. ideal_speedup = units/critical_units is the machine-independent ceiling of the round schedule, limited by the 5 ms channel lookahead.\","
    );
    let topos = topologies();
    for (k, (name, cfg)) in topos.iter().enumerate() {
        let reps = 3;
        let (oracle_ns, oracle) = time_fleet(cfg, RunMode::SingleQueue, reps);
        let fp = oracle.fingerprint();
        print!(
            "  \"{name}\": {{ \"hosts\": {}, \"shards\": {}, \"sessions\": {}, \"duration_s\": {:.0}, \"single_queue_ns\": {oracle_ns}, \"windowed_ns\": {{",
            cfg.hosts(),
            cfg.pods + 1,
            cfg.base.clients,
            cfg.base.duration.as_secs_f64()
        );
        let mut stats = None;
        for (j, jobs) in [1usize, 2, 4, 8].iter().enumerate() {
            let (ns, r) = time_fleet(cfg, RunMode::Windowed { jobs: *jobs }, reps);
            assert_eq!(
                r.fingerprint(),
                fp,
                "{name}: jobs={jobs} diverged from the single-queue oracle"
            );
            if *jobs == 4 {
                stats = Some((ns, r.stats));
            }
            let comma = if j < 3 { ", " } else { "" };
            print!("\"{jobs}\": {ns}{comma}");
        }
        let (wall4_ns, s) = stats.take().unwrap_or_else(|| unreachable!("jobs=4 ran"));
        let ideal = s.units as f64 / s.critical_units.max(1) as f64;
        let comma = if k + 1 < topos.len() { "," } else { "" };
        println!(
            " }}, \"fingerprint\": \"{fp:#018x}\", \"completed\": {}, \"rounds\": {}, \"units\": {}, \"critical_units\": {}, \"messages\": {}, \"ideal_speedup_4\": {ideal:.2}, \"wall_speedup_4\": {:.2} }}{comma}",
            oracle.completed,
            s.rounds,
            s.units,
            s.critical_units,
            s.messages,
            oracle_ns as f64 / wall4_ns as f64,
        );
    }
    println!("}}");
}

fn smoke() {
    // The parallel fleet is byte-identical to serial, and the
    // round schedule has enough slack for >1.5x ideal parallelism at 4
    // shards on the 100-host configuration.
    let cfg = FleetConfig::fleet100();
    let serial = run_fleet(&cfg, 1);
    let parallel = run_fleet(&cfg, 4);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "fleet100: jobs=4 fingerprint diverged from jobs=1"
    );
    let s = &parallel.stats;
    let ideal = s.units as f64 / s.critical_units.max(1) as f64;
    println!(
        "shard smoke: fleet100 fingerprint {:#018x} at jobs 1 and 4, ideal speedup {ideal:.2}x",
        serial.fingerprint()
    );
    assert!(
        ideal > 1.5,
        "100-host fleet must have >1.5x critical-path headroom at 4 shards, got {ideal:.2}x"
    );

    println!("shard smoke: PASS");
}

criterion_group!(shard_benches, bench_fleet);

fn main() {
    if std::env::args().any(|a| a == "--record") {
        record();
    } else if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        shard_benches();
    }
}
