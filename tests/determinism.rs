//! Reproducibility integration tests: identical seeds must give
//! bit-identical results across the whole stack; different seeds must
//! diverge; results must be robust to seed choice.

use cloudchar_core::{run, Deployment, ExperimentConfig, ExperimentResult};
use cloudchar_monitor::{catalog, Source};
use cloudchar_rubis::WorkloadMix;

fn cfg(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(50));
    c.seed = seed;
    c
}

/// Hash every sampled series of a result.
fn fingerprint(r: &ExperimentResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let c = catalog();
    for host in &r.hosts {
        for id in c.ids() {
            if let Some(s) = r.store.get(host, id) {
                for &v in &s.values {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

#[test]
fn identical_seed_identical_everything() {
    let a = run(cfg(1234));
    let b = run(cfg(1234));
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.events, b.events);
    assert_eq!(a.response_time_mean_s, b.response_time_mean_s);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn different_seed_different_fingerprint() {
    let a = run(cfg(1));
    let b = run(cfg(2));
    assert_ne!(fingerprint(&a), fingerprint(&b));
    // But the workload level should be comparable (same closed
    // population): completions within 10%.
    let ratio = a.completed as f64 / b.completed as f64;
    assert!((0.9..1.1).contains(&ratio), "completions ratio {ratio}");
}

#[test]
fn headline_findings_hold_across_seeds() {
    // The paper's qualitative findings must not be a seed artifact.
    for seed in [11, 22, 33] {
        let mut vcfg = cfg(seed);
        vcfg.mix = WorkloadMix::BROWSING;
        let v = run(vcfg);
        let web: f64 = v.cpu_cycles("web-vm").iter().sum();
        let db: f64 = v.cpu_cycles("mysql-vm").iter().sum();
        let dom0: f64 = v.cpu_cycles("dom0").iter().sum();
        assert!(web > db, "seed {seed}: front-end must dominate");
        assert!(web + db > dom0, "seed {seed}: VMs must exceed dom0 view");
        let web_net: f64 = v.net_kb("web-vm").iter().sum();
        let db_net: f64 = v.net_kb("mysql-vm").iter().sum();
        assert!(web_net > 5.0 * db_net, "seed {seed}: net ratio");
    }
}

#[test]
fn deterministic_across_deployments_independently() {
    // The physical run's determinism must not depend on the virt run
    // having executed (no hidden global state).
    let p1 = run(ExperimentConfig::fast(
        Deployment::NonVirtualized,
        WorkloadMix::BIDDING,
    ));
    let _side_effect = run(cfg(999));
    let p2 = run(ExperimentConfig::fast(
        Deployment::NonVirtualized,
        WorkloadMix::BIDDING,
    ));
    assert_eq!(fingerprint(&p1), fingerprint(&p2));
}

#[test]
fn replay_is_byte_identical_across_all_tiers() {
    // Stronger than the fingerprint check: two runs with the same master
    // seed must serialize to *byte-identical* metric stores — every
    // sampled series on every tier (web-vm, mysql-vm, dom0 / physical
    // hosts), in a stable key order.
    for deployment in [Deployment::Virtualized, Deployment::NonVirtualized] {
        let run_once = || {
            let mut c = ExperimentConfig::fast(deployment, WorkloadMix::percent_browsing(70));
            c.seed = 777;
            run(c)
        };
        let a = run_once();
        let b = run_once();
        let bytes_a = serde_json::to_vec(&a.store).expect("store serializes");
        let bytes_b = serde_json::to_vec(&b.store).expect("store serializes");
        assert_eq!(
            bytes_a, bytes_b,
            "{deployment:?}: replay produced different serialized stores"
        );
        assert!(!bytes_a.is_empty());
    }
}

#[test]
fn query_cache_eviction_is_replayable() {
    // A 64 KiB query cache fills within seconds, so the run depends on
    // which entry each insert evicts. The victim must follow from the
    // run itself, never from the process's hash seed.
    let run_once = || {
        let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        c.mysql.query_cache_bytes = 64 * 1024;
        run(c)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.completed, b.completed);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn golden_replay_fingerprint_unchanged() {
    // Golden hashes recorded from the pre-calendar-queue (`BinaryHeap`)
    // engine at seed 777 / 70% browsing, one per deployment. They pin the
    // *exact* event execution order across scheduler refactors: any
    // change to tie-breaking or event ordering shifts every sampled
    // series and shows up here as a different fingerprint.
    for (deployment, golden) in [
        (Deployment::Virtualized, 0x2b5f_f10d_8fc4_8142_u64),
        (Deployment::NonVirtualized, 0x3388_2b26_c4d7_e4d9_u64),
    ] {
        let mut c = ExperimentConfig::fast(deployment, WorkloadMix::percent_browsing(70));
        c.seed = 777;
        let r = run(c);
        assert_eq!(
            fingerprint(&r),
            golden,
            "{deployment:?}: result diverged from the pre-refactor golden hash"
        );
    }
}

#[test]
fn golden_fig_csv_bytes_unchanged() {
    // The figure exporters feed straight from `resource_series`, so the
    // fig CSVs are the user-visible face of the store's values and
    // order. Rebuild all 20 fast-config CSVs exactly as the repro binary
    // formats them and pin one combined hash, recorded from the
    // pre-columnar (BTreeMap-keyed) store.
    use cloudchar_analysis::Resource;
    let mut results = Vec::new();
    for deployment in [Deployment::Virtualized, Deployment::NonVirtualized] {
        for mix in [WorkloadMix::BROWSING, WorkloadMix::BIDDING] {
            results.push(run(ExperimentConfig::fast(deployment, mix)));
        }
    }
    let (virt_browse, virt_bid, phys_browse, phys_bid) =
        (&results[0], &results[1], &results[2], &results[3]);
    let csv = |browse: &ExperimentResult, bid: &ExperimentResult, res: Resource, host: &str| {
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
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |text: &str| {
        for &byte in text.as_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    const RESOURCES: [Resource; 4] = [Resource::Cpu, Resource::Ram, Resource::Disk, Resource::Net];
    for res in RESOURCES {
        for host in ["web-vm", "mysql-vm", "dom0"] {
            absorb(&csv(virt_browse, virt_bid, res, host));
        }
    }
    for res in RESOURCES {
        for host in ["web-pm", "mysql-pm"] {
            absorb(&csv(phys_browse, phys_bid, res, host));
        }
    }
    assert_eq!(
        h, 0xbfab_2c52_3515_9df3,
        "fig CSV bytes diverged from the pre-columnar golden hash"
    );
}

#[test]
fn pre_columnar_trace_deserializes_byte_compatibly() {
    // `trace_pre_columnar.json` was written by `save_json` while the
    // store was still the keyed BTreeMap. Old traces must (a) still load
    // and (b) re-serialize to the *same bytes* — the columnar store's
    // on-disk entry format is unchanged.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/trace_pre_columnar.json"
    );
    let r = ExperimentResult::load_json(path).expect("pre-columnar trace loads");
    assert_eq!(r.hosts, vec!["web-vm", "mysql-vm", "dom0"]);
    assert_eq!(r.store.len(), 3 * (182 + 154));
    let c = catalog();
    for host in &r.hosts {
        let sampled = c
            .ids()
            .filter(|&id| r.store.get(host, id).is_some())
            .count();
        assert_eq!(sampled, 182 + 154, "{host} metric coverage");
    }
    let original = std::fs::read(path).expect("fixture bytes");
    let reserialized = serde_json::to_vec(&r).expect("result serializes");
    assert_eq!(
        reserialized, original,
        "columnar store re-serializes pre-columnar traces byte-identically"
    );
}

#[test]
fn catalog_is_global_and_stable() {
    let c1 = catalog();
    let c2 = catalog();
    assert!(std::ptr::eq(c1, c2));
    assert_eq!(c1.len(), 518);
    assert_eq!(c1.by_source(Source::PerfCounter).len(), 154);
}

/// FNV-1a over the bytes of a serialized value.
fn fnv_json<T: serde::Serialize>(value: &T) -> u64 {
    let text = serde_json::to_string(value).expect("characterization serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn golden_characterization_json_unchanged() {
    // Pins every field of both characterization passes (summary, fit
    // family and KS distance, autocorrelation, jumps, period) on the
    // fast virtualized browsing run at seed 42, so a change to how the
    // catalog is profiled must reproduce the output byte for byte.
    use cloudchar_core::{characterize_jobs, full_characterize};
    let r = run(ExperimentConfig::fast(
        Deployment::Virtualized,
        WorkloadMix::BROWSING,
    ));
    assert_eq!(r.config.seed, 42);
    let full = fnv_json(&full_characterize(&r, 1));
    let full_pooled = fnv_json(&full_characterize(&r, 4));
    let resource = fnv_json(&characterize_jobs(&r, 1));
    assert_eq!(
        full, 0x684d_7faf_211c_7acc,
        "full_characterize(jobs 1) JSON diverged"
    );
    assert_eq!(
        full_pooled, 0x684d_7faf_211c_7acc,
        "full_characterize(jobs 4) JSON diverged"
    );
    assert_eq!(
        resource, 0xb09e_1bfe_7a73_7df4,
        "characterize_jobs(jobs 1) JSON diverged"
    );
}
