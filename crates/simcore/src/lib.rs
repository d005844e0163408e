//! # cloudchar-simcore
//!
//! Deterministic discrete-event simulation engine underpinning the
//! `cloudchar` testbed — the reproduction of *"Characterizing Workload of
//! Web Applications on Virtualized Servers"* (Wang et al.).
//!
//! The crate provides twelve building blocks:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`],
//!   [`SimDuration`]) and float-to-integer rounding ([`round_u64`]);
//! * [`audit`] — opt-in runtime invariant checks ([`AuditReport`]);
//! * [`bits`] — MSB-first bit-level I/O for the compressed trace codec
//!   ([`BitWriter`], [`BitReader`]);
//! * [`rng`] — seeded, named-stream random numbers ([`SimRng`]);
//! * [`dist`] — the probability distributions workload and device models
//!   draw from ([`Dist`]);
//! * [`queue`] — the pending-event set, a hierarchical calendar queue
//!   ([`CalendarQueue`]);
//! * [`engine`] — the event scheduler and clock ([`Engine`]);
//! * [`wheel`] — batched timer buckets for client populations
//!   ([`TimerWheel`]);
//! * [`shard`] — conservative parallel execution over per-host event
//!   queues ([`ShardedEngine`]);
//! * [`fault`] — deterministic fault-injection schedules ([`FaultPlan`]);
//! * [`stats`] — streaming accumulators ([`Welford`], [`Counter`], …);
//! * [`hash`] — a seedless integer hasher for hot id-keyed maps
//!   ([`IntMap`], [`IntSet`]).
//!
//! Everything is deterministic: a `(seed, configuration)` pair fully
//! determines a simulation run, which the higher layers rely on when
//! comparing virtualized against non-virtualized deployments.
//!
//! ## Example
//!
//! ```
//! use cloudchar_simcore::{Engine, SimDuration, SimTime};
//!
//! struct World { pings: u32 }
//!
//! // A periodic tick is a handler that re-arms itself.
//! fn ping(engine: &mut Engine<World>, world: &mut World, interval_s: u64) {
//!     world.pings += 1;
//!     if world.pings < 5 {
//!         engine.schedule_in(SimDuration::from_secs(interval_s), ping, interval_s);
//!     }
//! }
//!
//! let mut engine: Engine<World> = Engine::new();
//! let mut world = World { pings: 0 };
//! engine.schedule_at(SimTime::ZERO, ping, 2);
//! engine.run(&mut world);
//! assert_eq!(world.pings, 5);
//! assert_eq!(engine.now(), SimTime::from_secs(8));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod bits;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod wheel;

pub use audit::AuditReport;
pub use bits::{BitReader, BitWriter};
pub use dist::{Dist, Sample};
pub use engine::{Engine, EventId, Handler};
pub use fault::{FaultEvent, FaultKind, FaultPhase, FaultPlan, FaultTier};
pub use hash::{IntHasher, IntMap, IntSet};
pub use queue::CalendarQueue;
pub use rng::SimRng;
pub use shard::{RunMode, ShardCtx, ShardId, ShardLogic, ShardStats, ShardedEngine, Topology};
pub use stats::{Counter, Ewma, LogHistogram, Welford};
pub use time::{round_u64, SimDuration, SimTime};
pub use wheel::TimerWheel;
