//! The two workloads, one end-to-end repetition of each, the fleet
//! probe of the traced run, and the correctness gate over their outputs.

use crate::adapter::{
    self as cc, Deployment, ExperimentConfig, ExperimentResult, FleetResult, FullCharacterization,
    ShardCounts, SimDuration, WorkloadMix,
};
use crate::spans::Tracer;
use std::time::Instant;

/// The workloads, by the name the command line uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's virtualized experiment at the `--fast` scale: Xen
    /// scheduler, hw and the RUBiS DB do most of the work.
    Paper,
    /// 2,000 bare-metal clients: cohort, timer wheel and event queue;
    /// Xen does no work.
    Crowd,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Paper, Kind::Crowd];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Crowd => "crowd",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Seed at which each workload's outputs are pinned.
pub const PINNED_SEED: u64 = 42;

/// Clients of `crowd`: 17× `paper`'s 120, at the same horizon.
const CROWD_CLIENTS: u32 = 2_000;
/// Simulated horizon of the traced run's fleet probe.
const FLEET_SECONDS: u64 = 300;

/// A workload at one seed.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub tiny: bool,
    pub cfg: ExperimentConfig,
    /// Whether a repetition ends with the workload's analysis pass.
    pub analyze: bool,
}

impl Workload {
    /// The workload `kind` at `seed`; `tiny` shrinks it for the
    /// benchmark's self-test.
    pub fn new(kind: Kind, seed: u64, tiny: bool) -> Workload {
        let mut cfg = match kind {
            Kind::Paper => cc::fast_config(Deployment::Virtualized, WorkloadMix::BROWSING),
            Kind::Crowd => {
                let mut cfg = cc::fast_config(Deployment::NonVirtualized, WorkloadMix::BROWSING);
                cfg.clients = CROWD_CLIENTS;
                cfg
            }
        };
        if tiny {
            cfg.duration = SimDuration::from_secs(20);
        }
        cfg.seed = seed;
        Workload {
            kind,
            seed,
            tiny,
            cfg,
            analyze: kind == Kind::Paper,
        }
    }

    /// The pinned outputs at [`PINNED_SEED`], when this is the pinned
    /// seed at full scale.
    pub fn pin(&self) -> Option<Signature> {
        if self.tiny || self.seed != PINNED_SEED {
            return None;
        }
        Some(match self.kind {
            Kind::Paper => Signature {
                series: 0xe98d_8f24_21ac_e6f1,
                analysis: 0x32d9_26a6_ccc4_e5c6,
                completed: 2_138,
                failed: 0,
                rounds: 0,
                messages: 0,
            },
            Kind::Crowd => Signature {
                series: 0x7df6_274a_2227_3611,
                analysis: 0,
                completed: 34_586,
                failed: 0,
                rounds: 0,
                messages: 0,
            },
        })
    }

    /// One set-up: the run truncated to its first sampling interval.
    /// Returns its host seconds and its outputs.
    pub fn setup(&self, t: &mut Tracer) -> (f64, Signature) {
        let (result, s) = t.span("core.run_first_interval", |_| {
            cc::run_first_interval(&self.cfg)
        });
        let out = Output {
            result: Box::new(result),
            full: None,
        };
        (s, out.signature())
    }

    /// One repetition through the program's own entry points: the run
    /// (`run_opts`), then the workload's analysis calls, each timed.
    pub fn run(&self, t: &mut Tracer) -> Rep {
        let (result, run_s) = t.span("core.run", |_| cc::run_single(&self.cfg));
        let (mut characterize_s, mut full_s, mut full) = (None, None, None);
        if self.analyze {
            characterize_s = Some(
                t.span("analysis.characterize", |_| cc::characterize(&result))
                    .1,
            );
            let (f, s) = t.span("analysis.full_characterize", |_| {
                cc::full_characterize(&result, 1)
            });
            full_s = Some(s);
            full = Some(f);
        }
        Rep {
            run_s,
            characterize_s,
            full_s,
            output: Output {
                result: Box::new(result),
                full,
            },
        }
    }

    /// The fleet of the traced run's shard-runner probe: `fleet100` (33
    /// pods, 99 monitored hosts, plus the generator) at this seed.
    fn fleet_config(&self) -> cc::FleetConfig {
        let mut cfg = cc::fleet100_config();
        cfg.base.seed = self.seed;
        cfg.base.duration = SimDuration::from_secs(FLEET_SECONDS);
        if self.tiny {
            cfg.pods = 3;
            cfg.base.clients = 150;
            cfg.base.duration = SimDuration::from_secs(20);
        }
        cfg
    }

    /// The fleet probe's pinned outputs at [`PINNED_SEED`].
    pub fn fleet_pin(&self) -> Option<Signature> {
        (!self.tiny && self.seed == PINNED_SEED).then_some(Signature {
            series: 0x8788_3d0a_61dd_b457,
            analysis: 0,
            completed: 71_126,
            failed: 0,
            rounds: 49_507,
            messages: 142_255,
        })
    }

    /// Run the fleet on one and then two shard-runner workers. The two
    /// runs must produce the same outputs.
    pub fn fleet_probe(&self, t: &mut Tracer) -> FleetProbe {
        let cfg = self.fleet_config();
        let (one, jobs1_s) = t.span("core.run_fleet_jobs1", |_| cc::run_fleet(&cfg, 1));
        let (two, jobs2_s) = t.span("core.run_fleet_jobs2", |_| cc::run_fleet(&cfg, 2));
        FleetProbe {
            counts: cc::shard_counts(&one),
            jobs1_s,
            jobs2_s,
            signatures: [fleet_signature(&one), fleet_signature(&two)],
        }
    }
}

/// The outputs of a fleet run the gate compares.
fn fleet_signature(r: &FleetResult) -> Signature {
    let counts = cc::shard_counts(r);
    let (completed, failed) = cc::fleet_requests(r);
    Signature {
        series: cc::fleet_fingerprint(r),
        analysis: 0,
        completed,
        failed,
        rounds: counts.rounds,
        messages: counts.messages,
    }
}

/// What the fleet probe measured.
pub struct FleetProbe {
    /// Shard-runner counters of the one-worker run.
    pub counts: ShardCounts,
    pub jobs1_s: f64,
    pub jobs2_s: f64,
    /// Outputs of the one-worker and the two-worker run.
    pub signatures: [Signature; 2],
}

/// The outputs the correctness gate compares between repetitions and
/// against the pinned values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Replay fingerprint of the sampled series (plus, for a fleet, the
    /// generator's counters).
    pub series: u64,
    /// Fold over the analysis results; 0 when the workload has none.
    pub analysis: u64,
    pub completed: u64,
    pub failed: u64,
    /// Shard-runner windowed rounds and cross-shard messages (0 for a
    /// single-host run).
    pub rounds: u64,
    pub messages: u64,
}

/// What a repetition produced, before it is checked.
pub struct Output {
    pub result: Box<ExperimentResult>,
    pub full: Option<FullCharacterization>,
}

/// One timed repetition.
pub struct Rep {
    /// Host seconds of the run call.
    pub run_s: f64,
    /// Host seconds of the analysis calls, when the workload makes them.
    pub characterize_s: Option<f64>,
    pub full_s: Option<f64>,
    pub output: Output,
}

impl Rep {
    /// Host seconds from the first call into the program to the last
    /// result.
    pub fn whole_s(&self) -> f64 {
        self.run_s + self.characterize_s.unwrap_or(0.0) + self.full_s.unwrap_or(0.0)
    }
}

impl Output {
    /// The outputs the gate compares (outside the timed region).
    pub fn signature(&self) -> Signature {
        let (completed, failed) = cc::requests(&self.result);
        Signature {
            series: cc::store_fingerprint(&self.result),
            analysis: self.full.as_ref().map_or(0, cc::analysis_fingerprint),
            completed,
            failed,
            rounds: 0,
            messages: 0,
        }
    }

    /// The catalog profile of every series on `jobs` workers. Returns
    /// (seconds, profiles).
    pub fn analysis_on(&self, jobs: usize) -> (f64, usize) {
        let start = Instant::now();
        let profiles = cc::profile_count(&cc::full_characterize(&self.result, jobs));
        (start.elapsed().as_secs_f64(), profiles)
    }

    /// R1 and R2 beside the paper's values, for a virtualized run.
    pub fn model_error_line(&self) -> Option<String> {
        let mut line = String::from("model error vs paper:");
        for (name, sim, paper) in cc::model_error(&self.result)? {
            for (res, s, p) in [
                ("cpu", sim.cpu, paper.cpu),
                ("ram", sim.ram, paper.ram),
                ("disk", sim.disk, paper.disk),
                ("net", sim.net, paper.net),
            ] {
                line.push_str(&format!(
                    " {name}.{res} {s:.2} (paper {p:.2}, {:+.0}%)",
                    100.0 * (s - p) / p
                ));
            }
        }
        Some(line)
    }
}

/// Counts attempted and failed operations: an operation fails when its
/// outputs differ from the pinned values, or, off the pinned seed, from
/// the first operation of the same kind in the run.
pub struct Gate {
    pin: Option<Signature>,
    first: Option<Signature>,
    series_override: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// `series_override` replaces the pinned series fingerprint (the
    /// self-test's negative case pins a wrong one).
    pub fn new(pin: Option<Signature>, series_override: Option<u64>) -> Gate {
        Gate {
            pin,
            first: None,
            series_override,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn check(&mut self, what: &str, sig: Signature) {
        self.attempted += 1;
        let mut reference = *self.pin.as_ref().or(self.first.as_ref()).unwrap_or(&sig);
        if let Some(series) = self.series_override {
            reference.series = series;
        }
        self.first.get_or_insert(sig);
        if sig != reference {
            self.failed += 1;
            eprintln!("e2ebench: {what} outputs differ: got {sig:x?}, expected {reference:x?}");
        }
    }
}
