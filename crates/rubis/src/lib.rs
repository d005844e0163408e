//! # cloudchar-rubis
//!
//! A faithful model of the RUBiS auction-site benchmark — the workload
//! the paper drives its testbed with. The crate provides:
//!
//! * [`schema`] — the eBay-like table schema and synthetic population
//!   generator;
//! * [`storage`] — InnoDB-style buffer pool and MySQL-style query cache;
//! * [`db`] — the relational engine and the [`db::MySqlServer`] process
//!   model producing CPU + disk work per query;
//! * [`interactions`] — the 23 page interactions with calibrated
//!   resource profiles;
//! * [`transition`] — the browsing and bidding Markov mixes;
//! * [`client`] — the closed-population client emulator (1000 clients,
//!   7 s think time in the paper);
//! * [`cohort`] — the same population as parallel columns, for
//!   100k–1M-client runs (the per-object path stays as its test
//!   oracle);
//! * [`webserver`] — the Apache prefork + PHP tier with worker-pool
//!   dynamics that generate the paper's RAM "jumps";
//! * [`wire`] — typed client↔tier message envelopes for sharded runs.
//!
//! The crate is engine-agnostic: all models are passive state machines
//! driven by `cloudchar-core`'s orchestrator, so the same application
//! runs unchanged on virtualized and non-virtualized deployments.

#![warn(missing_docs)]

pub mod client;
pub mod cohort;
pub mod db;
pub mod interactions;
pub mod schema;
pub mod storage;
pub mod transition;
pub mod webserver;
pub mod wire;

pub use client::{ClientPopulation, RetryDecision, RetryPolicy, Session, WorkloadMix};
pub use cohort::ClientCohort;
pub use db::{Database, DbWork, MySqlConfig, MySqlServer, Query};
pub use interactions::{EntityRanges, Interaction, InteractionProfile, QueryList};
pub use schema::{DbScale, ItemId, UserId};
pub use transition::{Mix, NextAction, TransitionTable};
pub use webserver::{WebAppServer, WebConfig};
pub use wire::{CompletionEnvelope, Outcome, RequestEnvelope};
