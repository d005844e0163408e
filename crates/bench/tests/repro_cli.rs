//! CLI integration tests for the `repro` harness (run with `--fast` so
//! the whole suite stays quick).

use std::process::Command;

fn repro(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro {args:?} failed: {out:?}");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table1_lists_the_catalog() {
    let (stdout, _) = repro(&["table1"]);
    assert!(stdout.contains("518 profiled performance metrics"));
    assert!(stdout.contains("182 hypervisor sysstat + 182 VM sysstat + 154 perf = 518"));
    assert!(stdout.contains("%steal"));
    assert!(stdout.contains("cache-misses"));
}

#[test]
fn fast_fig1_produces_all_panels() {
    let (stdout, stderr) = repro(&["--fast", "fig1"]);
    for panel in ["Web+App. (VM) browse", "Mysql (VM) bid", "Domain0 browse"] {
        assert!(stdout.contains(panel), "missing panel {panel}\n{stdout}");
    }
    assert!(stderr.contains("wrote results/fig1_web-vm.csv"));
}

#[test]
fn fast_ratios_prints_paper_and_measured() {
    let (stdout, _) = repro(&["--fast", "ratios"]);
    assert!(stdout.contains("R1: front-end vs back-end"));
    assert!(stdout.contains("16.84")); // paper value present
    assert!(stdout.contains("(measured)"));
    assert_eq!(stdout.matches("(paper)").count(), 4);
}

#[test]
fn fast_ratios_sweep_prints_per_claim_mean_stddev() {
    let (stdout, stderr) = repro(&["--fast", "ratios", "--sweep", "3", "--jobs", "2"]);
    assert!(
        stdout.contains("Claims across 3 seeds"),
        "missing sweep header\n{stdout}"
    );
    for claim in [
        "R1 front/back cpu",
        "R2 VMs/dom0 disk",
        "R3 nonvirt/virt net",
        "R4 phys delta % ram",
        "Q1 lag samples",
        "Q2 ram jumps",
        "Q3 disk cv web-pm",
    ] {
        assert!(
            stdout.contains(claim),
            "missing claim row {claim}\n{stdout}"
        );
    }
    // Every claim printed as mean ± stddev: 4 ratio sets × 4 resources
    // plus the 4 qualitative rows, plus the header.
    assert_eq!(stdout.matches('±').count(), 21, "{stdout}");
    assert!(stderr.contains("sweeping 3 seeds"));
}

#[test]
fn fast_characterize_full_profiles_the_catalog() {
    let (stdout, stderr) = repro(&["--fast", "characterize", "--full", "--jobs", "2"]);
    assert!(
        stdout.contains("== Workload characterization: full metric catalog =="),
        "{stdout}"
    );
    for label in ["virtualized/browsing", "virtualized/bidding"] {
        assert!(stdout.contains(label), "missing run {label}\n{stdout}");
    }
    // Both runs report the per-host catalog rollup.
    assert_eq!(
        stdout.matches("full-catalog characterization:").count(),
        2,
        "{stdout}"
    );
    for host in ["web-vm", "mysql-vm", "dom0"] {
        assert!(
            stdout.contains(&format!("{host}: ")),
            "missing host {host}\n{stdout}"
        );
    }
    assert!(stderr.contains("profiled"), "{stderr}");
}

#[test]
fn fast_trace_out_then_trace_in_characterizes_out_of_core() {
    // Write compressed traces with --trace-out, then re-analyze them
    // with --trace-in: the second invocation must not rerun anything —
    // it reads `<dir>/<name>.cctr` and characterizes off disk, printing
    // what the resident `characterize --full` prints.
    let dir = std::env::temp_dir().join("cloudchar-repro-cli-traces");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let (_, stderr) = repro(&["--fast", "--trace-out", dir_s, "fig1"]);
    assert!(
        stderr.contains("streaming trace"),
        "missing trace-out log\n{stderr}"
    );
    for name in ["virt_browse.cctr", "virt_bid.cctr"] {
        assert!(dir.join(name).is_file(), "missing trace file {name}");
    }
    let (stdout, stderr) = repro(&["--fast", "--trace-in", dir_s, "characterize", "--jobs", "2"]);
    assert!(
        stdout.starts_with("== Workload characterization: full metric catalog ==\n"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("full-catalog characterization:").count(),
        2,
        "{stdout}"
    );
    assert!(
        stderr.contains("(out-of-core)"),
        "missing out-of-core timing line\n{stderr}"
    );
    assert!(
        !stderr.contains("running virt"),
        "--trace-in must not rerun experiments\n{stderr}"
    );
}

#[test]
fn trace_in_missing_file_fails_with_hint() {
    let dir = std::env::temp_dir().join("cloudchar-repro-cli-missing");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--fast", "--trace-in", dir.to_str().expect("utf-8"), "fig1"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "missing trace dir must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace-out"),
        "error must hint at --trace-out\n{stderr}"
    );
}

#[test]
fn unknown_flag_is_rejected() {
    // An unknown flag must fail loudly, not be taken for a command
    // name that displaces the default `all`.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--fast", "--no-such-flag"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag \"--no-such-flag\""),
        "{stderr}"
    );
}

#[test]
fn help_lists_shared_flags_for_every_subcommand() {
    // The satellite contract: global help and each subcommand's help
    // must list the shared flags consistently — no drift between what
    // run/fleet/characterize/figures claim to accept.
    let shared = ["--trace-out", "--trace-in", "--clients"];
    let (global, _) = repro(&["--help"]);
    for flag in shared {
        assert!(
            global.contains(flag),
            "global help missing {flag}\n{global}"
        );
    }
    for topic in ["run", "fleet", "characterize", "figures"] {
        let (stdout, _) = repro(&[topic, "--help"]);
        assert!(
            stdout.contains(&format!("repro {topic}")) || stdout.contains("fig1..fig8"),
            "help for {topic} missing its usage header\n{stdout}"
        );
        for flag in shared {
            assert!(
                stdout.contains(flag),
                "{topic} help missing {flag}\n{stdout}"
            );
        }
        assert!(
            stdout.contains("--online") && stdout.contains("--window"),
            "{topic} help missing the online flags\n{stdout}"
        );
    }
    // `fig3 --help` routes to the figures topic.
    let (stdout, _) = repro(&["fig3", "-h"]);
    assert!(stdout.contains("fig1..fig8"), "{stdout}");
}

#[test]
fn fast_run_online_prints_live_profiles() {
    let (stdout, _) = repro(&["--fast", "run", "--online", "--window", "20"]);
    assert!(
        stdout.contains("online profiles (window 20 samples):"),
        "{stdout}"
    );
    // Every host × resource series reports windows with the full
    // profile line: summary, lag-1 autocorrelation, period, jumps.
    for host in ["web-vm", "mysql-vm", "dom0"] {
        for res in ["cpu", "ram", "disk", "net"] {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.contains(host) && l.contains(&format!(" {res} "))),
                "missing {host}/{res} snapshot\n{stdout}"
            );
        }
    }
    for piece in ["mean=", "cv=", "ac1=", "jumps="] {
        assert!(stdout.contains(piece), "missing {piece}\n{stdout}");
    }
}

#[test]
fn fast_fleet_online_prefixes_pod_hosts() {
    let (stdout, _) = repro(&[
        "--fast", "fleet", "--online", "--window", "15", "--jobs", "2",
    ]);
    assert!(
        stdout.contains("online profiles (window 15 samples):"),
        "{stdout}"
    );
    assert!(stdout.contains("pod00/web-vm"), "{stdout}");
    assert!(stdout.contains("pod03/dom0"), "{stdout}");
    // Live profiling must not perturb the simulation: the fingerprint
    // line is still printed (pinned byte-identical by the fleet tests).
    assert!(stdout.contains("fingerprint 0x"), "{stdout}");
}

#[test]
fn fast_qualitative_commands_run() {
    let (stdout, _) = repro(&["--fast", "lag", "jumps", "variance"]);
    assert!(stdout.contains("Q1: web→db workload lag"));
    assert!(stdout.contains("Q2: RAM level shifts"));
    assert!(stdout.contains("Q3: disk-traffic coefficient of variation"));
}

#[test]
fn fast_report_writes_markdown() {
    let (_, stderr) = repro(&["--fast", "report"]);
    assert!(stderr.contains("wrote results/REPORT.md"));
    let report = std::fs::read_to_string(std::env::temp_dir().join("results/REPORT.md"))
        .expect("report written");
    assert!(report.contains("# cloudchar reproduction report"));
    assert!(report.contains("### Figure 8"));
}

/// Run repro expecting exit code 2; returns its stderr.
fn repro_rejects(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {out:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn fleet_rejects_host_counts_without_a_topology() {
    // Only the paper testbed and the scale-out fleet exist; any other
    // count used to run one of them silently.
    for hosts in ["40", "99", "101"] {
        let stderr = repro_rejects(&["fleet", "--hosts", hosts]);
        assert!(
            stderr.contains("13") && stderr.contains("100") && stderr.contains(hosts),
            "{stderr}"
        );
    }
}

#[test]
fn fleet_clients_sets_the_session_count() {
    let (stdout, _) = repro(&["fleet", "--clients", "8", "--jobs", "2"]);
    assert!(
        stdout.contains("== Fleet: 13 hosts (4 pods + generator), 8 sessions"),
        "{stdout}"
    );
    // Fewer sessions than pods fails FleetConfig::validate.
    let stderr = repro_rejects(&["fleet", "--clients", "3"]);
    assert!(stderr.contains("fewer sessions than pods"), "{stderr}");
}
