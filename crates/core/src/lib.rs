//! # cloudchar-core
//!
//! Public API of **cloudchar**, a simulation-based reproduction of
//! *"Characterizing Workload of Web Applications on Virtualized
//! Servers"* (Wang, Huang, Fu, Kavi).
//!
//! The crate deploys the RUBiS auction benchmark on a simulated cloud
//! testbed — either inside Xen VMs (§4.1) or on bare physical servers
//! (§4.2) — drives it with an emulated client population, profiles 518
//! metrics every 2 seconds, and computes the paper's workload
//! characterizations.
//!
//! ## Quick start
//!
//! ```
//! use cloudchar_core::{run, Deployment, ExperimentConfig};
//! use cloudchar_rubis::WorkloadMix;
//!
//! // A reduced-scale browsing run in VMs (the paper uses
//! // `ExperimentConfig::paper` with 1000 clients for 20 minutes).
//! let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
//! let result = run(cfg);
//! assert!(result.completed > 0);
//! let web_cpu = result.cpu_cycles("web-vm");
//! assert!(!web_cpu.is_empty());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod characterize;
pub mod compare;
pub mod config;
pub mod experiment;
pub mod faults;
pub mod fleet;
pub mod online;
pub mod phys;
pub mod platform;
pub mod report;
pub mod source;
pub mod sweep;
pub mod trace;
pub mod virt;
pub mod workload;

pub use batch::{run_batch, BatchConfig, BatchResult};
pub use characterize::{
    characterize, characterize_jobs, full_characterize, full_characterize_source, Characterization,
    FullCharacterization, MetricProfile, ResourceProfile, TransactionProfile,
};
pub use compare::{
    paper_values, q1_tier_lag, q2_ram_jumps, q3_disk_cv, r1_front_vs_back, r2_vms_vs_dom0,
    r3_nonvirt_vs_virt, r4_physical_percent, ratio_report, RatioReport,
};
pub use config::{Deployment, ExperimentConfig};
pub use experiment::{run, run_opts, ExperimentResult, RunOptions};
pub use faults::{scenario, scenario_report, PhaseDelta, ScenarioReport, SCENARIOS};
pub use fleet::{run_fleet, run_fleet_opts, FleetConfig, FleetMsg, FleetResult};
pub use online::{OnlineBank, OnlineReport, OnlineSnapshot};
pub use phys::{HostIoPolicy, PhysPlatform};
pub use platform::{Platform, Tier, TierLoad};
pub use report::{render_report, render_report_jobs, ReportInputs};
pub use source::{fold_series, resource_series, SeriesSource};
pub use sweep::{
    default_jobs, par_map_ordered_with, run_seeds, run_seeds_jobs, sweep_stat, SweepStat,
};
pub use trace::{full_characterize_trace, TraceDir};
pub use virt::{VirtOptions, VirtPlatform};
pub use workload::World;
