//! Chunked trace store benchmark: codec throughput, compression, and
//! the out-of-core analysis path.
//!
//! Three things are measured, all through `monitor::chunk` and
//! `core::trace`:
//!
//! * **codec** — encode/decode MB/s and compression ratio of the
//!   delta-of-delta + XOR bitstream on a synthetic full-catalog store
//!   shaped like sar/perf output (constant counters, stepping totals,
//!   quantized percentages, noisy gauges in equal parts);
//! * **resident proxy** — `ChunkWriter::resident_bytes()` while a
//!   13-host and a 100-host catalog stream through the writer: the
//!   writer's working set is the open chunks, O(hosts × metrics ×
//!   chunk), regardless of run length;
//! * **analysis wall** — `full_characterize` over a resident store vs
//!   `full_characterize_trace` over the on-disk file for the same fast
//!   run, after asserting the two characterizations are identical.
//!
//! Run `cargo bench -p cloudchar-bench --bench trace` for the criterion
//! groups, `-- --record` to print the `results/BENCH_trace.json`
//! payload, or `-- --smoke` for the CI gate: ≥4x compression on the
//! synthetic catalog, a decode≡encode round-trip fingerprint, and
//! out-of-core fig CSVs byte-equal to the in-memory exporter's.

use cloudchar_analysis::Resource;
use cloudchar_core::{
    full_characterize, full_characterize_trace, run, run_opts, write_csv_streaming, Deployment,
    ExperimentConfig, ExperimentResult, ResourceCursor, RunOptions, TraceDir,
};
use cloudchar_monitor::chunk::{read_store, write_store};
use cloudchar_monitor::{catalog, ChunkWriter, SeriesStore, CHUNK_SAMPLES};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{SimDuration, SimTime};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cloudchar-trace-bench");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    dir.join(name)
}

/// Synthetic full-catalog store: `hosts` hosts × every catalog metric ×
/// `samples` ticks, shaped like real sar/perf output. Metrics rotate
/// through four archetypes — constant counters (idle devices), stepping
/// totals, percentages quantized to 0.01, and noisy full-mantissa
/// gauges — so the compression number prices a realistic mix, not a
/// best case.
fn synth_store(hosts: usize, samples: usize) -> SeriesStore {
    let c = catalog();
    let mut store = SeriesStore::new();
    let start = SimTime::from_secs(2);
    let dt = SimDuration::from_secs_f64(2.0);
    let mut lcg: u64 = 0x243f_6a88_85a3_08d3;
    let mut next = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    for h in 0..hosts {
        let id = store.host_id(&format!("synth{h:02}"));
        for (k, metric) in c.ids().enumerate() {
            let phase = next();
            for i in 0..samples {
                let v = match k % 4 {
                    0 => 0.0,
                    1 => ((phase + i as u64) / 7) as f64,
                    2 => ((phase.wrapping_add(i as u64 / 8) * 37) % 10_000) as f64 / 100.0,
                    _ => f64::from_bits(0x3FF0_0000_0000_0000 | next()),
                };
                store.record_by_id(id, metric, start, dt, v);
            }
        }
    }
    store
}

/// FNV fold over every sampled value of a resident store, in the
/// store's own (host, metric) iteration order — the in-memory twin of
/// `TraceDir::fold_values`.
fn fold_store(store: &SeriesStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, _, series) in store.iter() {
        for &v in &series.values {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn raw_bytes(store: &SeriesStore) -> u64 {
    store
        .iter()
        .map(|(_, _, s)| s.values.len() as u64 * 8)
        .sum()
}

/// (file_bytes, encode_ns, decode_ns): spill the store and stream every
/// value back, timing both directions.
fn codec_pass(store: &SeriesStore, path: &Path) -> (u64, u128, u128) {
    let t = Instant::now();
    let file_bytes = write_store(store, path, CHUNK_SAMPLES).expect("write trace");
    let encode_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let trace = TraceDir::open(path).expect("open trace");
    black_box(
        trace
            .fold_values(0xcbf2_9ce4_8422_2325)
            .expect("decode trace"),
    );
    let decode_ns = t.elapsed().as_nanos();
    (file_bytes, encode_ns, decode_ns)
}

/// Stream `samples` full-catalog rows for `hosts` hosts through a
/// writer and report (raw_bytes_streamed, resident_bytes, file_bytes):
/// the writer's working set vs what a resident store would hold.
fn resident_proxy(hosts: usize, samples: usize) -> (u64, usize, u64) {
    let c = catalog();
    let path = tmp(&format!("resident{hosts}.cctr"));
    let mut w = ChunkWriter::create(&path, "", CHUNK_SAMPLES).expect("create writer");
    let start = SimTime::from_secs(2);
    let dt = SimDuration::from_secs_f64(2.0);
    let ids: Vec<_> = (0..hosts)
        .map(|h| w.host_id(&format!("host{h:03}")))
        .collect();
    let mut streamed: u64 = 0;
    let mut resident = 0usize;
    for i in 0..samples {
        for &id in &ids {
            for (k, metric) in c.ids().enumerate() {
                let v = (i as f64) + (k as f64) * 0.25;
                w.record_value(id, metric, start, dt, v).expect("record");
                streamed += 8;
            }
        }
        resident = resident.max(w.resident_bytes());
    }
    let file_bytes = w.finish().expect("finish writer");
    (streamed, resident, file_bytes)
}

fn fast_pair(mix: WorkloadMix) -> ExperimentConfig {
    ExperimentConfig::fast(Deployment::Virtualized, mix)
}

/// Run `cfg` with its samples streamed to the trace file `path`.
fn traced_run(cfg: ExperimentConfig, path: &Path) -> ExperimentResult {
    let opts = RunOptions {
        trace_out: Some(path.to_path_buf()),
        ..RunOptions::default()
    };
    run_opts(cfg, &opts).expect("traced run").0
}

/// In-memory fig CSV bytes, formatted exactly as the repro binary's
/// exporter (and `write_csv_streaming`) formats them.
fn csv_in_memory(
    browse: &ExperimentResult,
    bid: &ExperimentResult,
    res: Resource,
    host: &str,
) -> String {
    let (b, q) = (
        browse.resource_series(res, host),
        bid.resource_series(res, host),
    );
    let mut out = String::from("t_s,browse,bid\n");
    let n = b.len().max(q.len());
    for i in 0..n {
        out.push_str(&format!("{:.1}", (i + 1) as f64 * 2.0));
        for c in [&b, &q] {
            out.push_str(&format!(",{:.3}", c.get(i).copied().unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out
}

fn bench_codec(c: &mut Criterion) {
    let store = synth_store(3, 1024);
    let mb = raw_bytes(&store) as f64 / 1e6;
    let path = tmp("criterion.cctr");
    let mut group = c.benchmark_group("trace/codec");
    group.sample_size(10);
    group.bench_function("encode_3x1024", |b| {
        b.iter(|| black_box(write_store(&store, &path, CHUNK_SAMPLES).expect("write trace")))
    });
    write_store(&store, &path, CHUNK_SAMPLES).expect("write trace");
    group.bench_function("decode_3x1024", |b| {
        b.iter(|| {
            let trace = TraceDir::open(&path).expect("open trace");
            black_box(trace.fold_values(0xcbf2_9ce4_8422_2325).expect("decode"))
        })
    });
    group.finish();
    eprintln!("trace/codec: {mb:.1} MB raw per pass");
}

fn record() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"cores\": {cores},");
    println!(
        "  \"note\": \"synthetic catalog mixes constant/stepping/quantized/noisy series in equal parts; real monitor output compresses better (more idle counters). resident_bytes is the writer's open-chunk working set — the streaming figure/fingerprint paths hold one chunk per open cursor, while full_characterize_trace holds ONE whole series per worker (FFT and order statistics need the full series), so its bound is O(longest series), not O(chunk).\","
    );

    // Codec: 13-host and 100-host synthetic catalogs, 1024 samples each.
    for (name, hosts, samples) in [("codec13", 13usize, 1024usize), ("codec100", 100, 256)] {
        let store = synth_store(hosts, samples);
        let raw = raw_bytes(&store);
        let path = tmp(&format!("{name}.cctr"));
        let (mut file_bytes, mut enc, mut dec) = (0u64, u128::MAX, u128::MAX);
        for _ in 0..3 {
            let (fb, e, d) = codec_pass(&store, &path);
            file_bytes = fb;
            enc = enc.min(e);
            dec = dec.min(d);
        }
        let ratio = raw as f64 / file_bytes as f64;
        println!(
            "  \"{name}\": {{ \"hosts\": {hosts}, \"samples_per_series\": {samples}, \"raw_bytes\": {raw}, \"file_bytes\": {file_bytes}, \"compression\": {ratio:.2}, \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1} }},",
            raw as f64 * 1e3 / enc as f64,
            raw as f64 * 1e3 / dec as f64,
        );
    }

    // Resident working set at 13- and 100-host scale.
    for (name, hosts) in [("resident13", 13usize), ("resident100", 100)] {
        let (streamed, resident, file_bytes) = resident_proxy(hosts, 512);
        println!(
            "  \"{name}\": {{ \"hosts\": {hosts}, \"raw_bytes_streamed\": {streamed}, \"peak_resident_bytes\": {resident}, \"file_bytes\": {file_bytes}, \"resident_fraction\": {:.4} }},",
            resident as f64 / streamed as f64
        );
    }

    // Analysis wall: resident vs out-of-core on the same fast run.
    let jobs = cores.min(4);
    let r = run(fast_pair(WorkloadMix::BROWSING));
    let path = tmp("char.cctr");
    let traced = traced_run(fast_pair(WorkloadMix::BROWSING), &path);
    assert_eq!(r.completed, traced.completed, "traced run diverged");
    let trace = TraceDir::open(&path).expect("open trace");
    let mut mem_ns = u128::MAX;
    let mut ooc_ns = u128::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        black_box(full_characterize(&r, jobs));
        mem_ns = mem_ns.min(t.elapsed().as_nanos());
        let t = Instant::now();
        black_box(full_characterize_trace(&trace, jobs).expect("characterize trace"));
        ooc_ns = ooc_ns.min(t.elapsed().as_nanos());
    }
    println!(
        "  \"characterize\": {{ \"jobs\": {jobs}, \"in_memory_ns\": {mem_ns}, \"out_of_core_ns\": {ooc_ns}, \"slowdown\": {:.2} }}",
        ooc_ns as f64 / mem_ns as f64
    );
    println!("}}");
}

fn smoke() {
    // Gate 1: ≥4x compression on the synthetic full-catalog store, and
    // the decoded stream folds to the same fingerprint as the resident
    // store (decode ≡ encode).
    let store = synth_store(3, 1024);
    let raw = raw_bytes(&store);
    let path = tmp("smoke.cctr");
    let file_bytes = write_store(&store, &path, CHUNK_SAMPLES).expect("write trace");
    let ratio = raw as f64 / file_bytes as f64;
    println!("trace smoke: {raw} raw bytes -> {file_bytes} on disk ({ratio:.2}x compression)");
    assert!(
        ratio >= 4.0,
        "synthetic catalog must compress >=4x, got {ratio:.2}x"
    );
    let trace = TraceDir::open(&path).expect("open trace");
    let streamed = trace
        .fold_values(0xcbf2_9ce4_8422_2325)
        .expect("fold trace");
    let resident = fold_store(&store);
    assert_eq!(
        streamed, resident,
        "streamed fold diverged from the resident store"
    );
    let round = read_store(&path).expect("read store back");
    assert_eq!(
        fold_store(&round),
        resident,
        "materialized round trip diverged from the resident store"
    );
    println!("trace smoke: round-trip fingerprint {streamed:#018x} matches resident store");

    // Gate 2: fig CSVs streamed off disk are byte-equal to the
    // in-memory exporter's on the same fast-config pair of runs.
    let browse = run(fast_pair(WorkloadMix::BROWSING));
    let bid = run(fast_pair(WorkloadMix::BIDDING));
    let browse_path = tmp("virt_browse.cctr");
    let bid_path = tmp("virt_bid.cctr");
    traced_run(fast_pair(WorkloadMix::BROWSING), &browse_path);
    traced_run(fast_pair(WorkloadMix::BIDDING), &bid_path);
    let browse_trace = TraceDir::open(&browse_path).expect("open browse trace");
    let bid_trace = TraceDir::open(&bid_path).expect("open bid trace");
    let mut checked = 0;
    for res in [Resource::Cpu, Resource::Ram, Resource::Disk, Resource::Net] {
        for host in ["web-vm", "mysql-vm", "dom0"] {
            let want = csv_in_memory(&browse, &bid, res, host);
            let out = tmp("fig_stream.csv");
            let mut cols = [
                ResourceCursor::new(&browse_trace, res, host, 2.0).expect("open browse cursor"),
                ResourceCursor::new(&bid_trace, res, host, 2.0).expect("open bid cursor"),
            ];
            write_csv_streaming(&out, "t_s,browse,bid", &mut cols, 2.0).expect("stream csv");
            let got = std::fs::read(&out).expect("read streamed csv");
            assert_eq!(
                got,
                want.into_bytes(),
                "{res:?}/{host}: streamed fig CSV diverged from the in-memory exporter"
            );
            checked += 1;
        }
    }
    println!("trace smoke: {checked} fig CSVs byte-equal through the out-of-core path");
    println!("trace smoke: PASS");
}

criterion_group!(trace_benches, bench_codec);

fn main() {
    if std::env::args().any(|a| a == "--record") {
        record();
    } else if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        trace_benches();
    }
}
