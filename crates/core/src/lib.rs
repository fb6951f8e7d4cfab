//! # mhw-core
//!
//! The ecosystem orchestrator: wires every substrate into one closed
//! simulated world and runs scenarios.
//!
//! * [`config`] — scenario configuration: era (2011/2012 tactics),
//!   population size, crew roster, attack volume, and defense toggles
//!   (for the §8 ablations);
//! * [`ecosystem`] — the [`Ecosystem`]: the main
//!   day-by-day simulation loop interleaving organic user activity,
//!   phishing campaigns, crew work shifts, defense reactions and
//!   account recovery;
//! * [`world`] — the adapter implementing the adversary's
//!   [`HijackerWorld`](mhw_adversary::HijackerWorld) over the real
//!   substrates;
//! * [`campaigns`] — standalone external phishing-form campaigns (the
//!   §4.2 Google-Forms dataset generator behind Figures 3–6);
//! * [`engine`] — the sharded parallel engine: logical shards with
//!   deterministic per-shard RNG streams, worker threads, cross-shard
//!   exchange at day barriers, and globally ordered merged logs;
//! * [`pool`] — the persistent work-stealing worker pool the engine
//!   (and the experiment context) dispatch parallel phases on, with
//!   per-job panic isolation;
//! * [`checkpoint`] — versioned, checksummed day-barrier checkpoint
//!   files for crash-safe resume of long runs;
//! * [`fault`] — the deterministic fault-injection harness
//!   ([`FaultPlan`]) behind the chaos tests and `--fault-plan`;
//! * [`replay`] — serve-mode login-log replay: synthetic workload
//!   generation, recorded-log conversion, and the chained verdict
//!   digest behind the batch/serve parity tests;
//! * [`resilience`] — overload-safe replay: [`ServeFaultPlan`]
//!   signal-source faults, bounded admission queues with load
//!   shedding, and the deterministic virtual-time loop behind
//!   `tests/serve_chaos.rs`;
//! * [`decoy`] — the §5.1 decoy-credential experiment (Figure 7);
//! * [`datasets`] — extraction of the paper's 14 datasets (Table 1)
//!   from the raw logs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod campaigns;
pub mod checkpoint;
pub mod config;
pub mod datasets;
pub mod decoy;
pub mod ecosystem;
pub mod engine;
pub mod fault;
pub mod pool;
mod record_digest;
pub mod replay;
pub mod resilience;
pub mod world;

pub use builder::ScenarioBuilder;
pub use campaigns::{run_form_campaigns, FormCampaignOutput};
pub use checkpoint::Checkpoint;
pub use config::{DefenseConfig, RecoveryConfig, ScenarioConfig};
pub use datasets::DatasetInventory;
pub use decoy::{run_decoy_experiment, DecoyOutcome, DecoyReport};
pub use ecosystem::{Ecosystem, Incident, RunStats};
pub use engine::{
    default_workers, CheckpointPolicy, ForkBuilder, RunFailure, ShardedEngine, ShardedRun,
    WorldSnapshot,
};
pub use fault::FaultPlan;
pub use mhw_types::{EngineError, EngineResult};
pub use pool::{JobPanic, WorkerPool};
pub use replay::{
    generate_workload, replay_stream, verdict_digest_from_log, ReplayLog, ReplayLogin,
    WorkloadConfig,
};
pub use resilience::{
    replay_stream_resilient, ReplayStats, ServeFaultPlan, ServeOptions, ShedPolicy,
};
