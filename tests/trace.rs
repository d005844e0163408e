//! Out-of-core trace store integration tests.
//!
//! The chunked on-disk trace must be an *invisible* representation
//! change: a traced run's samples, figures, and characterization are
//! byte-identical to the in-memory path's, pinned against the same
//! golden fingerprints the resident store is pinned against, and a
//! truncated file must fail loudly instead of decoding a short series.

use cloudchar_analysis::{summarize, Resource};
use cloudchar_core::{
    fold_series, full_characterize, full_characterize_source, full_characterize_trace,
    resource_series, run, run_fleet, run_fleet_opts, run_opts, Deployment, ExperimentConfig,
    ExperimentResult, FleetConfig, RunOptions, SeriesSource, TraceDir,
};
use cloudchar_monitor::chunk::{read_store, write_store};
use cloudchar_monitor::{catalog, ChunkReader, ChunkWriter, SeriesStore, CHUNK_SAMPLES};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{RunMode, SimDuration, SimTime};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `cfg` with its samples streamed to the trace file `path`.
fn traced_run(cfg: ExperimentConfig, path: &Path) -> std::io::Result<ExperimentResult> {
    let opts = RunOptions {
        trace_out: Some(path.to_path_buf()),
        ..RunOptions::default()
    };
    run_opts(cfg, &opts).map(|(result, _)| result)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cloudchar-trace-tests");
    std::fs::create_dir_all(&dir).expect("create test temp dir");
    dir.join(name)
}

/// The determinism-suite FNV fold, over an explicit host list in
/// presentation order (traced results carry an empty resident store, so
/// the read-back store is folded with the run's own host order).
fn fingerprint_store(hosts: &[String], store: &SeriesStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let c = catalog();
    for host in hosts {
        for id in c.ids() {
            if let Some(s) = store.get(host, id) {
                for &v in &s.values {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Both stores must hold the same series with bit-identical samples.
fn assert_stores_equal(a: &SeriesStore, b: &SeriesStore, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: series count differs");
    for ((ha, ma, sa), (hb, mb, sb)) in a.iter().zip(b.iter()) {
        assert_eq!((ha, ma), (hb, mb), "{what}: series key order differs");
        assert_eq!(sa.start, sb.start, "{what}: {ha}/{ma:?} start differs");
        assert_eq!(
            sa.interval, sb.interval,
            "{what}: {ha}/{ma:?} interval differs"
        );
        assert_eq!(
            sa.values.len(),
            sb.values.len(),
            "{what}: {ha}/{ma:?} length differs"
        );
        for (i, (x, y)) in sa.values.iter().zip(sb.values.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {ha}/{ma:?}[{i}] differs");
        }
    }
}

fn golden_cfg(clients: u32) -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(70));
    cfg.seed = 777;
    cfg.clients = clients;
    cfg
}

#[test]
fn traced_kilo_client_run_matches_golden_fingerprint() {
    // The 1000-client golden pin from tests/fleet.rs, replayed through
    // the streaming chunk writer: the on-disk trace must decode to the
    // same samples the resident store would have held, hash included.
    let path = tmp("kilo.cctr");
    let traced = traced_run(golden_cfg(1000), &path).expect("traced run");
    assert_eq!(traced.completed, 15013, "completion count drifted");
    let store = read_store(&path).expect("read trace back");
    assert_eq!(
        fingerprint_store(&traced.hosts, &store),
        0xd483_243b_663e_e2ff,
        "traced 1000-client run diverged from the golden hash"
    );
    // Differential against the in-memory path: same config, resident
    // store, bit-identical series.
    let resident = run(golden_cfg(1000));
    assert_stores_equal(&resident.store, &store, "kilo traced vs resident");
    assert_eq!(resident.completed, traced.completed);
    assert_eq!(resident.events, traced.events);
    assert_eq!(resident.response_time_mean_s, traced.response_time_mean_s);
}

#[test]
fn traced_hundred_k_run_matches_golden_fingerprint() {
    // The 100k-client pinned smoke config (tests/fleet.rs): 6 s of
    // simulated time, seed 777. Streaming the samples to disk must not
    // perturb the cohort's event order.
    let mut cfg = golden_cfg(100_000);
    cfg.duration = SimDuration::from_secs(6);
    cfg.rampup = SimDuration::from_secs(2);
    let path = tmp("hundredk.cctr");
    let traced = traced_run(cfg, &path).expect("traced run");
    assert_eq!(traced.completed, 12752, "completion count drifted");
    let store = read_store(&path).expect("read trace back");
    assert_eq!(
        fingerprint_store(&traced.hosts, &store),
        0xd433_8962_c34f_5961,
        "traced 100k-client run diverged from the golden hash"
    );
}

/// One figure panel as `repro` renders it from two sources: the browse
/// and bid stats lines, then the CSV bytes (time column at 2 s, NaN
/// padding to the longer column).
fn render_panel(
    browse: &dyn SeriesSource,
    bid: &dyn SeriesSource,
    res: Resource,
    host: &str,
) -> String {
    let b = resource_series(browse, res, host).expect("browse series");
    let q = resource_series(bid, res, host).expect("bid series");
    let mut out = String::new();
    for xs in [&b, &q] {
        let s = summarize(xs).expect("non-empty series");
        out.push_str(&format!(
            "mean {:>12.4e}  max {:>12.4e}  cv {:>5.2}\n",
            s.mean, s.max, s.cv
        ));
    }
    out.push_str("t_s,browse,bid\n");
    for i in 0..b.len().max(q.len()) {
        out.push_str(&format!("{:.1}", (i + 1) as f64 * 2.0));
        for c in [&b, &q] {
            out.push_str(&format!(",{:.3}", c.get(i).copied().unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out
}

#[test]
fn streamed_fig_csvs_are_byte_identical() {
    // Every panel of fig1–fig8 — stats lines and CSV bytes — rendered
    // from the on-disk traces equals the rendering from the resident
    // results of the same runs.
    for (deployment, hosts) in [
        (Deployment::Virtualized, &["web-vm", "mysql-vm", "dom0"][..]),
        (Deployment::NonVirtualized, &["web-pm", "mysql-pm"][..]),
    ] {
        let cfg = |mix| ExperimentConfig::fast(deployment, mix);
        let browse = run(cfg(WorkloadMix::BROWSING));
        let bid = run(cfg(WorkloadMix::BIDDING));
        let (bp, qp) = (
            tmp(&format!("fig_browse_{deployment:?}.cctr")),
            tmp(&format!("fig_bid_{deployment:?}.cctr")),
        );
        traced_run(cfg(WorkloadMix::BROWSING), &bp).expect("traced browse");
        traced_run(cfg(WorkloadMix::BIDDING), &qp).expect("traced bid");
        let bt = TraceDir::open(&bp).expect("open browse trace");
        let qt = TraceDir::open(&qp).expect("open bid trace");
        for res in Resource::ALL {
            for &host in hosts {
                let want = render_panel(&browse, &bid, res, host);
                assert_eq!(
                    render_panel(&bt, &qt, res, host),
                    want,
                    "{deployment:?} {res:?}/{host}: traced figure diverged from the resident one"
                );
            }
        }
    }
}

#[test]
fn out_of_core_characterization_equals_in_memory() {
    // One characterize loop over both sources: the traced run's profiles
    // equal the resident run's — same order, same numbers — at every
    // worker-pool width.
    let r = run(ExperimentConfig::fast(
        Deployment::Virtualized,
        WorkloadMix::BROWSING,
    ));
    let path = tmp("char.cctr");
    traced_run(
        ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING),
        &path,
    )
    .expect("traced run");
    let trace = TraceDir::open(&path).expect("open trace");
    let mem = serde_json::to_string(&full_characterize(&r, 2)).expect("serialize");
    for jobs in [1, 3] {
        let ooc = full_characterize_trace(&trace, jobs).expect("out of core");
        assert_eq!(
            serde_json::to_string(&ooc).expect("serialize"),
            mem,
            "out-of-core characterization diverged at jobs={jobs}"
        );
    }

    // A fleet: a directory of per-pod traces against the merged
    // resident store of the same fleet run.
    let mut cfg = FleetConfig::paper13();
    cfg.pods = 2;
    cfg.base.clients = 120;
    cfg.base.duration = SimDuration::from_secs(60);
    let untraced = run_fleet(&cfg, 2);
    let dir = tmp("char_fleet");
    let opts = RunOptions {
        trace_out: Some(dir.clone()),
        ..RunOptions::default()
    };
    run_fleet_opts(&cfg, RunMode::Windowed { jobs: 2 }, &opts).expect("traced fleet");
    let trace = TraceDir::open(&dir).expect("open fleet trace");
    for jobs in [1, 3] {
        let mem = full_characterize_source(&untraced.store, jobs).expect("resident fleet");
        let ooc = full_characterize_source(&trace, jobs).expect("out-of-core fleet");
        assert_eq!(mem.hosts.len(), 6, "two pods of three hosts");
        assert_eq!(
            serde_json::to_string(&ooc).expect("serialize"),
            serde_json::to_string(&mem).expect("serialize"),
            "fleet out-of-core characterization diverged at jobs={jobs}"
        );
    }
}

#[test]
fn pre_columnar_fixture_round_trips_through_chunk_file() {
    // The pinned pre-columnar JSON trace, spilled to a chunk file and
    // read back: every series must survive bit-identically, so old
    // traces can be converted to the compressed format losslessly.
    let r = ExperimentResult::load_json(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/trace_pre_columnar.json"
    ))
    .expect("load pre-columnar fixture");
    let path = tmp("pre_columnar.cctr");
    write_store(&r.store, &path, CHUNK_SAMPLES).expect("spill fixture store");
    let round = read_store(&path).expect("read fixture trace");
    assert_stores_equal(&r.store, &round, "pre-columnar fixture");
}

#[test]
fn truncated_tail_chunk_is_detected() {
    // Chop bytes off the end of a valid trace: open must fail with a
    // corruption error, never silently decode a shorter series.
    let path = tmp("trunc.cctr");
    traced_run(
        ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING),
        &path,
    )
    .expect("traced run");
    let full = std::fs::metadata(&path).expect("stat trace").len();
    for cut in [1u64, 37, full / 2] {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("reopen trace");
        f.set_len(full - cut).expect("truncate trace");
        drop(f);
        assert!(
            ChunkReader::open(&path).is_err(),
            "truncated trace (-{cut} bytes) opened without error"
        );
    }
}

#[test]
fn traced_fleet_matches_untraced_fingerprint() {
    // A small two-pod fleet run through both paths: the streamed
    // per-pod traces must fold to the untraced fingerprint, and the
    // materialized trace must equal the merged resident store.
    let mut cfg = FleetConfig::paper13();
    cfg.pods = 2;
    cfg.base.clients = 120;
    cfg.base.duration = SimDuration::from_secs(60);
    let untraced = run_fleet(&cfg, 2);
    let dir = tmp("fleet");
    let opts = RunOptions {
        trace_out: Some(dir.clone()),
        ..RunOptions::default()
    };
    let traced = run_fleet_opts(&cfg, RunMode::Windowed { jobs: 2 }, &opts).expect("traced fleet");
    assert_eq!(untraced.completed, traced.completed);
    assert_eq!(untraced.failed, traced.failed);
    let trace = TraceDir::open(&dir).expect("open fleet trace");
    let h = fold_series(&trace, 0xcbf2_9ce4_8422_2325).expect("fold fleet trace");
    assert_eq!(
        traced.counter_fingerprint(h),
        untraced.fingerprint(),
        "traced fleet fingerprint diverged from the in-memory path"
    );
    // Materialize every pod's trace; labels are already `podNN/`-prefixed.
    let mut store = SeriesStore::new();
    for pod in 0..cfg.pods {
        let path = dir.join(format!("pod{pod:02}.cctr"));
        store.merge_renamed(read_store(&path).expect("read pod trace"), "");
    }
    assert_stores_equal(&untraced.store, &store, "fleet traced vs resident");
}

/// Round-trip one synthetic series through the codec.
fn codec_round_trip(values: &[f64]) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = tmp(&format!(
        "roundtrip{}.cctr",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let start = SimTime::from_secs(2);
    let dt = SimDuration::from_secs_f64(2.0);
    let metric = catalog().ids().next().expect("catalog metric");
    let mut w = ChunkWriter::create(&path, "", CHUNK_SAMPLES).expect("create writer");
    let host = w.host_id("prop-host");
    for &v in values {
        w.record_value(host, metric, start, dt, v).expect("record");
    }
    w.finish().expect("finish writer");
    let reader = ChunkReader::open(&path).expect("open trace");
    let mut cur = reader.cursor("prop-host", metric).expect("cursor");
    let mut got: Vec<u64> = Vec::new();
    while let Some(chunk) = cur.next_chunk().expect("decode chunk") {
        got.extend(chunk.iter().map(|v| v.to_bits()));
    }
    let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "decoded series is not bit-identical");
}

proptest! {
    /// Arbitrary bit patterns: NaN payloads, infinities, subnormals —
    /// the codec is bit-level and must preserve every one.
    #[test]
    fn codec_round_trips_arbitrary_bits(bits in proptest::collection::vec(any::<u64>(), 0..600)) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        codec_round_trip(&values);
    }

    #[test]
    fn codec_round_trips_constant_runs(bits in any::<u64>(), n in 0usize..700) {
        codec_round_trip(&vec![f64::from_bits(bits); n]);
    }

    #[test]
    fn codec_round_trips_step_changes(a in -1e9f64..1e9, b in -1e9f64..1e9, n in 1usize..300) {
        let mut values = vec![a; n];
        values.extend(std::iter::repeat(b).take(n));
        values.push(a);
        codec_round_trip(&values);
    }
}
