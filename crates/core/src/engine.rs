//! The sharded scenario engine: one scenario, many logical shards,
//! any number of worker threads — identical output at every
//! parallelism level.
//!
//! # Shards are semantics, workers are mechanics
//!
//! A [`ShardedEngine`] partitions the user population into `n_shards`
//! **logical shards**. Each shard is a full [`Ecosystem`] with its own
//! deterministic RNG streams derived from `(seed, shard_id)` via
//! [`mhw_simclock::SimRng::shard_stream`], its own id namespaces (the
//! shard id rides in the high byte of session/message ids), and its own
//! per-shard log segments keyed `(SimTime, shard, seq)`.
//!
//! The shard count is part of the scenario definition, exactly like the
//! seed: changing it changes the world. The **worker** count is pure
//! mechanics: shards advance one simulated day at a time, and within a
//! day each shard's events touch only shard-local state, so any
//! assignment of shards to threads produces the same per-shard logs.
//! Cross-shard traffic is exchanged only at day barriers, single
//! threaded, in shard order. The result: the merged dataset digest is
//! byte-identical for `workers = 1` and `workers = N`.
//!
//! Execution runs on a persistent [`WorkerPool`]: threads are spawned
//! once per run (not once per day) and each phase — world build, every
//! shard-day — is dispatched as index-addressed jobs that idle workers
//! *steal* from a shared atomic claim counter, so one slow shard never
//! stalls a statically assigned bucket. Shards live in cache-line
//! padded slots ([`mhw_types::CachePadded`]) so neighbouring shards'
//! hot state never false-shares a line across workers.
//!
//! # Cross-shard effects
//!
//! Three effects cross shard boundaries, all via per-day exchange
//! queues drained at the barrier:
//!
//! * **credential market** — each crew sells a `market_share` fraction
//!   of fresh captures; buyers are rotated over the *global* offer
//!   sequence (crews are global actors; exploitation runs in the
//!   victim's shard under the buying crew's flag);
//! * **contact-graph mail** — a fraction of each exploited victim's
//!   phishing blast targets contacts living in other shards, queued as
//!   next-day lures there;
//! * **decoy pickups** — engine-scheduled decoy submissions are spread
//!   round-robin over shards, so Figure 7-style probes land in every
//!   segment of the merged log.
//!
//! # One way to restore a run at a day barrier
//!
//! Everything the day loop carries between days — shard worlds,
//! exchange RNG, exported-incident marks, the engine registry — is one
//! `Barrier` value, and every run is build → advance → finish over it.
//! A snapshot ([`ShardedEngine::snapshot_after`]) keeps the barrier
//! instead of finishing; a fork clones it, verifies the clone against
//! the snapshot's record and advances it. A resume
//! ([`ShardedEngine::resume_from`]) checks the record's identity
//! before building, advances the fresh barrier fault-free to the
//! recorded day in place, verifies it with the same barrier verifier,
//! and advances on under the run's own faults and checkpoints.

use crate::checkpoint::{self, Checkpoint, ShardCheckpoint};
use crate::config::{DefenseConfig, RecoveryConfig, ScenarioConfig};
use crate::ecosystem::{Ecosystem, Incident, RunStats};
use crate::fault::FaultPlan;
use crate::pool::WorkerPool;
use crate::record_digest::RecordDigest;
use mhw_adversary::SessionReport;
use mhw_defense::NotificationRecord;
use mhw_identity::LoginRecord;
use mhw_mailsys::MailEvent;
use mhw_obs::{EngineProfile, MetricId, MetricsSnapshot, PhaseProfiler, Registry, RunReport};
use mhw_simclock::SimRng;
use mhw_types::{
    CachePadded, CheckpointOp, CrewId, EngineError, EngineResult, Entry, Fnv1a, LogStore,
    RetryPolicy, SimDuration, SimTime, DAY,
};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Credentials that changed hands on the cross-shard market (mirrors
/// [`ShardedRun::market_trades`] in the metrics snapshot).
pub const M_MARKET_TRADES: MetricId = MetricId("engine.market_trades");
/// Lures routed across shard boundaries at day barriers (mirrors
/// [`ShardedRun::cross_shard_lures`]).
pub const M_CROSS_SHARD_LURES: MetricId = MetricId("engine.cross_shard_lures");
/// Decoy-credential probes scheduled by the engine.
pub const M_DECOY_PROBES: MetricId = MetricId("engine.decoy_probes");
/// Peak per-barrier exchange-queue depth (market offers drained at a
/// single day barrier). A sim-time quantity: deterministic per scenario.
pub const M_EXCHANGE_QUEUE_PEAK: MetricId = MetricId("engine.exchange_queue_peak");

// Crash-safety metrics. These count *mechanics* — faults fired, panics
// caught, checkpoint files written — so they live in the separate ops
// registry ([`ShardedRun::ops_metrics`]) and are deliberately excluded
// from [`ShardedRun::metrics_snapshot`]/[`RunReport`]: a resumed run
// must serialize the very same report as an uninterrupted one.
/// Faults the [`FaultPlan`] actually injected (panics, slowdowns,
/// checkpoint-write failures).
pub const M_FAULTS_INJECTED: MetricId = MetricId("engine.ops.faults_injected");
/// Shard-job panics caught at the worker-pool boundary.
pub const M_PANICS_CAUGHT: MetricId = MetricId("engine.ops.panics_caught");
/// Checkpoint files successfully written.
pub const M_CHECKPOINTS_WRITTEN: MetricId = MetricId("engine.ops.checkpoints_written");
/// Checkpoints restored (resume replays verified against the file).
pub const M_CHECKPOINTS_RESTORED: MetricId = MetricId("engine.ops.checkpoints_restored");
/// Transient checkpoint-write failures absorbed by the bounded retry.
pub const M_CHECKPOINT_RETRIES: MetricId = MetricId("engine.ops.checkpoint_retries");

/// Checkpoint writes give up after this many failed attempts; the
/// sleep between attempts doubles each time (bounded backoff).
const CHECKPOINT_WRITE_ATTEMPTS: u32 = 3;

/// The shared bounded-backoff policy applied to every durable write in
/// the engine: day-barrier checkpoints and fork-point records. The 4ms
/// base doubling to 8ms reproduces the historical `2 << attempt`
/// schedule of the original inline loop.
const CHECKPOINT_RETRY: RetryPolicy = RetryPolicy {
    attempts: CHECKPOINT_WRITE_ATTEMPTS,
    base_delay: Duration::from_millis(4),
};

/// Worker threads used when [`ShardedEngine::workers`] is never
/// called: everything the machine offers.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and how often the engine writes day-barrier checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory checkpoint files land in (created if missing).
    pub dir: PathBuf,
    /// Write a checkpoint every this many completed days (must be ≥ 1;
    /// the final barrier is never checkpointed — the run is done).
    pub every: u64,
}

/// Everything salvageable from an aborted run: the typed cause, the
/// shards that were alive when it died, and a degraded forensic
/// [`RunReport`]. Returned by [`ShardedEngine::run_salvage`];
/// [`ShardedEngine::run`] keeps only the [`error`](RunFailure::error).
pub struct RunFailure {
    /// The typed failure cause.
    pub error: EngineError,
    /// Shards built when the run aborted, in shard order. A panicked
    /// shard is still present, frozen at its last completed activity;
    /// shards whose build never ran are absent.
    pub partial_shards: Vec<Ecosystem>,
    /// Simulated days every shard fully completed (barrier included)
    /// before the failure.
    pub completed_days: u64,
    /// End-of-run report over the partial shards, with
    /// `degraded: true` and the failure cause recorded.
    pub report: RunReport,
}

impl std::fmt::Debug for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunFailure")
            .field("error", &self.error)
            .field("partial_shards", &self.partial_shards.len())
            .field("completed_days", &self.completed_days)
            .field("report", &self.report)
            .finish()
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.error, f)
    }
}

impl std::error::Error for RunFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The engine's whole state at a day barrier: the shard worlds plus
/// every piece of cross-shard state the day loop carries from one day
/// to the next.
///
/// Every way of running reaches a barrier through this one value: a
/// fresh run starts from [`Barrier::start`] and builds its shards into
/// it, [`ShardedEngine::snapshot_after`] freezes one, a fork clones the
/// frozen one, and a resume advances a freshly built one to the
/// recorded day. Checkpoint files record a barrier ([`Barrier::record`])
/// and restores prove they reached one ([`Barrier::verify`]).
#[derive(Clone)]
struct Barrier {
    /// Shard worlds in shard order, each in its own cache-line padded
    /// slot so two workers advancing neighbouring shards never
    /// false-share a line.
    shards: Vec<CachePadded<Ecosystem>>,
    /// Simulated days every shard has completed, exchange included.
    completed_days: u64,
    /// The stream contact-graph spillover draws destinations from.
    exchange_rng: SimRng,
    /// Per-shard incident counts already exported at earlier barriers.
    seen_incidents: Vec<usize>,
    /// The engine registry: market trades, cross-shard lures, decoy
    /// probes and the exchange-queue peak. It is the only copy of those
    /// counters.
    metrics: Registry,
}

impl Barrier {
    /// Day 0 of a fresh run, before any shard is built.
    fn start(seed: u64, n_shards: usize) -> Self {
        Barrier {
            shards: Vec::with_capacity(n_shards),
            completed_days: 0,
            exchange_rng: SimRng::stream(seed, "exchange"),
            seen_incidents: vec![0; n_shards],
            metrics: Registry::new()
                .with_counter(M_MARKET_TRADES)
                .with_counter(M_CROSS_SHARD_LURES)
                .with_counter(M_DECOY_PROBES)
                .with_gauge(M_EXCHANGE_QUEUE_PEAK),
        }
    }

    fn market_trades(&self) -> u64 {
        self.metrics.counter_value(M_MARKET_TRADES).unwrap_or(0)
    }

    fn cross_shard_lures(&self) -> u64 {
        self.metrics.counter_value(M_CROSS_SHARD_LURES).unwrap_or(0)
    }

    /// The single-threaded exchange that closes `day`, in shard order.
    fn exchange(&mut self, day: u64, spill: f64, days: u64) {
        let Barrier { shards, exchange_rng, seen_incidents, metrics, .. } = self;
        let k = shards.len();
        let n_crews = shards.first().map_or(0, |e| e.crews.crews.len());

        // Credential market. Buyers rotate over the global offer
        // sequence, so the volume any shard sells shifts who buys
        // everywhere else — shards are genuinely coupled — while
        // exploitation stays in the victim's shard (the account lives
        // there; crews are global).
        let mut offer_seq = 0usize;
        for shard in shards.iter_mut() {
            for (seller, credential) in shard.drain_market_outbox() {
                let buyer = if n_crews > 1 {
                    CrewId::from_index((seller.index() + 1 + offer_seq % (n_crews - 1)) % n_crews)
                } else {
                    seller
                };
                offer_seq += 1;
                if shard.import_market_credential(buyer, credential) {
                    metrics.inc(M_MARKET_TRADES);
                }
            }
        }
        metrics.gauge_max(M_EXCHANGE_QUEUE_PEAK, offer_seq as u64);

        // Contact-graph mail: new exploited incidents spill part of
        // their phishing blast into other shards as next-day lures.
        if k > 1 && spill > 0.0 && day + 1 < days {
            let next_day = SimTime::from_secs((day + 1) * DAY);
            let mut exports: Vec<(usize, SimTime, CrewId)> = Vec::new();
            for s in 0..k {
                let eco = &shards[s];
                for inc in &eco.incidents()[seen_incidents[s]..] {
                    let session = &eco.sessions()[inc.session];
                    if !session.exploited || session.phishing_messages == 0 {
                        continue;
                    }
                    let n_out = (session.phishing_messages as f64 * spill).round() as u64;
                    for _ in 0..n_out {
                        let mut dest = exchange_rng.below(k as u64 - 1) as usize;
                        if dest >= s {
                            dest += 1;
                        }
                        let at = next_day.plus(SimDuration::from_secs(exchange_rng.below(DAY)));
                        exports.push((dest, at, inc.crew));
                    }
                }
                seen_incidents[s] = eco.incidents().len();
            }
            for (dest, at, crew) in exports {
                let n_users = shards[dest].population.len() as u64;
                if n_users == 0 {
                    continue;
                }
                let target =
                    shards[dest].population.users[exchange_rng.below(n_users) as usize].account;
                shards[dest].queue_external_lure(at, target, crew);
                metrics.inc(M_CROSS_SHARD_LURES);
            }
        } else {
            for (seen, eco) in seen_incidents.iter_mut().zip(shards.iter()) {
                *seen = eco.incidents().len();
            }
        }
    }

    /// This barrier as a [`Checkpoint`] of `engine`'s scenario: what
    /// checkpoint files and fork-point records hold, and what restores
    /// compare against them.
    fn record(&self, engine: &ShardedEngine) -> Checkpoint {
        let merged = MetricsSnapshot::merge_all(
            self.shards
                .iter()
                .map(|e| e.metrics_snapshot())
                .chain(std::iter::once(self.metrics.snapshot())),
        );
        Checkpoint {
            seed: engine.base.seed,
            n_shards: engine.n_shards,
            days: engine.base.days,
            users: engine.base.population.n_users as u64,
            config_fingerprint: engine.config_fingerprint(),
            completed_days: self.completed_days,
            exchange_rng: self.exchange_rng.state(),
            market_trades: self.market_trades(),
            cross_shard_lures: self.cross_shard_lures(),
            seen_incidents: self.seen_incidents.iter().map(|n| *n as u64).collect(),
            metrics_digest: mhw_types::fnv::digest(format!("{merged:?}").as_bytes()),
            shards: self
                .shards
                .iter()
                .map(|e| ShardCheckpoint {
                    state_digest: e.state_digest(),
                    log_lens: e.log_lens(),
                    rng_states: e.rng_states(),
                })
                .collect(),
        }
    }

    /// Prove this barrier is the one `recorded` describes: the barrier
    /// verifier both resume and forks use.
    fn verify(
        &self,
        engine: &ShardedEngine,
        recorded: &Checkpoint,
        path: &str,
    ) -> EngineResult<()> {
        compare_barrier(path, recorded, &self.record(engine))
    }

    fn into_shards(self) -> Vec<Ecosystem> {
        self.shards.into_iter().map(CachePadded::into_inner).collect()
    }
}

/// The one barrier comparison: the recorded barrier state against the
/// current one, field by field, naming the first disagreement. Record
/// identity (scenario, shard count) is
/// [`ShardedEngine::check_identity`]'s job.
fn compare_barrier(path: &str, recorded: &Checkpoint, current: &Checkpoint) -> EngineResult<()> {
    macro_rules! check {
        ($field:ident) => {
            if recorded.$field != current.$field {
                return Err(EngineError::CheckpointMismatch {
                    path: path.to_string(),
                    field: stringify!($field).to_string(),
                    expected: format!("{:?}", recorded.$field),
                    found: format!("{:?}", current.$field),
                });
            }
        };
    }
    check!(completed_days);
    check!(exchange_rng);
    check!(market_trades);
    check!(cross_shard_lures);
    check!(seen_incidents);
    check!(metrics_digest);
    for (s, (rec, cur)) in recorded.shards.iter().zip(current.shards.iter()).enumerate() {
        if rec != cur {
            return Err(EngineError::CheckpointMismatch {
                path: path.to_string(),
                field: format!("shards[{s}]"),
                expected: format!("{rec:?}"),
                found: format!("{cur:?}"),
            });
        }
    }
    Ok(())
}

/// A checkpoint file read for a resume, with the path it came from.
type Restore = (Checkpoint, String);

/// Configures and runs a sharded scenario.
pub struct ShardedEngine {
    base: ScenarioConfig,
    n_shards: u16,
    workers: usize,
    contact_spillover: f64,
    decoys: Option<(usize, u64)>,
    shard_weights: Option<Vec<u64>>,
    checkpoints: Option<CheckpointPolicy>,
    resume: Option<PathBuf>,
    faults: FaultPlan,
}

impl ShardedEngine {
    /// A sharded scenario over `n_shards` logical shards. The base
    /// config's `population.n_users` is the *total* population; it is
    /// split as evenly as possible over the shards. Workers default to
    /// the machine's [available parallelism](default_workers). Panics
    /// if `n_shards == 0`.
    pub fn new(base: ScenarioConfig, n_shards: u16) -> Self {
        assert!(n_shards > 0, "a sharded scenario needs at least one shard");
        ShardedEngine {
            base,
            n_shards,
            workers: default_workers(),
            contact_spillover: 0.25,
            decoys: None,
            shard_weights: None,
            checkpoints: None,
            resume: None,
            faults: FaultPlan::new(),
        }
    }

    /// Number of worker threads (clamped to `1..=n_shards`, and at run
    /// time to the hardware's available parallelism — oversubscribing
    /// CPU-bound shard work is always a loss). Pure mechanics: never
    /// affects the produced datasets.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Split the population over shards proportionally to `weights`
    /// instead of evenly — one weight per shard, deterministic largest-
    /// prefix rounding. Like the shard count itself this is scenario
    /// *semantics* (it changes the world), not mechanics; it exists so
    /// load-imbalance experiments (and the work-stealing tests) can
    /// make one shard arbitrarily heavier than its peers. Panics if the
    /// weight count does not match the shard count or all weights are
    /// zero.
    pub fn shard_weights(mut self, weights: Vec<u64>) -> Self {
        assert_eq!(
            weights.len(),
            self.n_shards as usize,
            "need exactly one weight per shard"
        );
        assert!(weights.iter().any(|w| *w > 0), "at least one weight must be positive");
        self.shard_weights = Some(weights);
        self
    }

    /// Fraction of each exploited victim's phishing messages that
    /// target contacts in *other* shards (default 0.25; irrelevant for
    /// a single shard).
    pub fn contact_spillover(mut self, fraction: f64) -> Self {
        self.contact_spillover = fraction.clamp(0.0, 1.0);
        self
    }

    /// Schedule `total` decoy-credential submissions spread round-robin
    /// over the shards and uniformly over the first `over_days` days.
    pub fn decoys(mut self, total: usize, over_days: u64) -> Self {
        self.decoys = Some((total, over_days.max(1)));
        self
    }

    /// Write a day-barrier checkpoint into `dir` every `every`
    /// completed days. Like the worker count this is pure mechanics —
    /// the produced datasets and [`RunReport`] are byte-identical with
    /// checkpointing on or off. `every == 0` is rejected at run time as
    /// [`EngineError::InvalidConfig`].
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoints = Some(CheckpointPolicy { dir: dir.into(), every });
        self
    }

    /// Restore the run at the day barrier recorded in `file` — a
    /// checkpoint written under [`checkpoint_to`](Self::checkpoint_to)
    /// or a fork-point record ([`WorldSnapshot::write_record`]; the
    /// format is the same). The record's identity (seed, shard count,
    /// days, population, full engine configuration, one entry per
    /// shard) is checked before any shard is built. The shards are then
    /// built and advanced to the recorded barrier in place, fault-free
    /// and checkpoint-free as the original run computed those days,
    /// and every recorded digest and RNG position is verified with the
    /// same barrier verifier forks use before the run continues under
    /// its own faults and checkpoints. Any disagreement aborts with
    /// [`EngineError::CheckpointMismatch`] naming the first divergent
    /// field.
    pub fn resume_from(mut self, file: impl Into<PathBuf>) -> Self {
        self.resume = Some(file.into());
        self
    }

    /// Inject a deterministic [`FaultPlan`] (shard panics, slow
    /// workers, checkpoint-write failures). Faults are crash mechanics,
    /// never world events: a slowed shard still produces byte-identical
    /// datasets, and days before a restored barrier (under
    /// [`resume_from`](Self::resume_from)) skip the plan entirely.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// FNV-1a fingerprint over the full engine configuration, recorded
    /// in checkpoints so a resume against a different scenario fails
    /// loudly instead of replaying garbage.
    fn config_fingerprint(&self) -> u64 {
        let desc = format!(
            "{:?}|{:?}|{:?}|{:?}|{}",
            self.base, self.contact_spillover, self.decoys, self.shard_weights, self.n_shards
        );
        mhw_types::fnv::digest(desc.as_bytes())
    }

    /// Per-shard scenario configs (shard ids `0..n_shards`, population
    /// split evenly — or by [`ShardedEngine::shard_weights`] — and
    /// everything else inherited from the base).
    fn shard_configs(&self) -> Vec<ScenarioConfig> {
        let k = self.n_shards as usize;
        let n = self.base.population.n_users;
        let sizes: Vec<usize> = match &self.shard_weights {
            None => (0..k).map(|s| n / k + usize::from(s < n % k)).collect(),
            Some(weights) => {
                // Cumulative-prefix rounding: shard s gets
                // round(prefix_s/total · n) − round(prefix_{s-1}/total · n),
                // which sums to exactly n and is order-deterministic.
                let total: u128 = weights.iter().map(|w| *w as u128).sum();
                let mut prefix = 0u128;
                let mut allocated = 0usize;
                weights
                    .iter()
                    .map(|w| {
                        prefix += *w as u128;
                        let upto = (prefix * n as u128 / total) as usize;
                        let size = upto - allocated;
                        allocated = upto;
                        size
                    })
                    .collect()
            }
        };
        sizes
            .into_iter()
            .enumerate()
            .map(|(s, n_users)| {
                let mut c = self.base.clone();
                c.shard = s as u16;
                c.population.n_users = n_users;
                c
            })
            .collect()
    }

    /// The requested worker count, clamped to the shard count.
    fn worker_count(&self) -> usize {
        self.workers.min(self.n_shards as usize).max(1)
    }

    /// The one record-identity check: `recorded` must come from this
    /// scenario — seed, shard count, days, population, configuration
    /// fingerprint, one entry per shard — at a mid-run barrier. The
    /// barrier state itself is [`compare_barrier`]'s job.
    fn check_identity(&self, recorded: &Checkpoint, path: &str) -> EngineResult<()> {
        let days = self.base.days;
        let mismatch = |field: &str, expected: String, found: String| {
            EngineError::CheckpointMismatch {
                path: path.to_string(),
                field: field.to_string(),
                expected,
                found,
            }
        };
        let identity: [(&str, u64, u64); 6] = [
            ("seed", recorded.seed, self.base.seed),
            ("n_shards", recorded.n_shards as u64, self.n_shards as u64),
            ("days", recorded.days, days),
            ("users", recorded.users, self.base.population.n_users as u64),
            ("config_fingerprint", recorded.config_fingerprint, self.config_fingerprint()),
            ("shards.len", recorded.shards.len() as u64, self.n_shards as u64),
        ];
        for (field, rec, ours) in identity {
            if rec != ours {
                return Err(mismatch(field, rec.to_string(), ours.to_string()));
            }
        }
        if recorded.completed_days == 0 || recorded.completed_days >= days {
            return Err(mismatch(
                "completed_days",
                format!("1..{days}"),
                recorded.completed_days.to_string(),
            ));
        }
        Ok(())
    }

    /// Reject a bad configuration before any thread spawns, and read
    /// and identity-check the resume record (if any) before any shard
    /// is built. `snapshot_day` is the barrier a snapshot stops at.
    fn prepare(&self, snapshot_day: Option<u64>) -> EngineResult<Option<Restore>> {
        let days = self.base.days;
        if let Some(policy) = &self.checkpoints {
            if policy.every == 0 {
                return Err(EngineError::InvalidConfig {
                    reason: "checkpoint interval must be at least 1 day (got 0)".to_string(),
                });
            }
            std::fs::create_dir_all(&policy.dir).map_err(|e| EngineError::CheckpointIo {
                op: CheckpointOp::Write,
                path: policy.dir.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        self.faults.validate(days, self.n_shards)?;
        if let Some(day) = snapshot_day {
            if day == 0 || day >= days {
                return Err(EngineError::InvalidConfig {
                    reason: format!(
                        "snapshot day must be a mid-run barrier (1..{days}), got {day}"
                    ),
                });
            }
        }
        let Some(file) = &self.resume else { return Ok(None) };
        let record = Checkpoint::read(file)?;
        let path = file.display().to_string();
        self.check_identity(&record, &path)?;
        if let Some(day) = snapshot_day.filter(|day| record.completed_days > *day) {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "snapshot day {day} precedes the resumed barrier at day {}",
                    record.completed_days
                ),
            });
        }
        Ok(Some((record, path)))
    }

    /// Package an abort into a [`RunFailure`] with a degraded report
    /// over whatever shards survived.
    fn salvage(
        &self,
        error: EngineError,
        partial_shards: Vec<Ecosystem>,
        completed_days: u64,
    ) -> Box<RunFailure> {
        let metrics =
            MetricsSnapshot::merge_all(partial_shards.iter().map(|e| e.metrics_snapshot()));
        let report = RunReport::new(
            self.base.seed,
            self.n_shards,
            self.base.days as u32,
            self.base.population.n_users as u32,
            metrics,
        )
        .with_failure(error.to_string());
        Box::new(RunFailure { error, partial_shards, completed_days, report })
    }

    /// Spawn this run's worker pool once, let `steps` move `barrier` on
    /// it, and keep the barrier wherever it stopped: on success it comes
    /// back with the run's wall-clock profile and ops registry, on an
    /// abort its shards are salvaged into a [`RunFailure`].
    fn drive(
        &self,
        mut barrier: Barrier,
        steps: impl FnOnce(&mut Runtime<'_, '_>, &mut Barrier) -> EngineResult<()>,
    ) -> Result<(Barrier, PhaseProfiler, Registry), Box<RunFailure>> {
        // Never oversubscribe: shard days are CPU-bound, so threads
        // beyond the hardware's parallelism only add context-switch and
        // cache churn (half of the original inverse-scaling bug). The
        // requested count is still what the profile reports — it is the
        // scenario-independent knob — but the pool spawns at most one
        // participant per hardware thread.
        let threads = self.worker_count().min(default_workers());
        let (outcome, profiler, ops) = WorkerPool::scoped(threads, |pool| {
            let mut rt = Runtime {
                engine: self,
                pool,
                profiler: PhaseProfiler::new(),
                // Crash-safety mechanics live in their own registry,
                // never merged into the sim-time snapshot: a resumed
                // run's report must byte-equal an uninterrupted one.
                ops: Registry::new()
                    .with_counter(M_FAULTS_INJECTED)
                    .with_counter(M_PANICS_CAUGHT)
                    .with_counter(M_CHECKPOINTS_WRITTEN)
                    .with_counter(M_CHECKPOINTS_RESTORED)
                    .with_counter(M_CHECKPOINT_RETRIES),
            };
            let outcome = steps(&mut rt, &mut barrier);
            (outcome, rt.profiler, rt.ops)
        });
        match outcome {
            Ok(()) => Ok((barrier, profiler, ops)),
            Err(error) => {
                let completed_days = barrier.completed_days;
                Err(self.salvage(error, barrier.into_shards(), completed_days))
            }
        }
    }

    /// Package a barrier at the scenario's last day as the public
    /// [`ShardedRun`]. The logs stay per shard: the accessors and
    /// `dataset_digest` merge them on demand.
    fn finish(&self, barrier: Barrier, profiler: PhaseProfiler, ops: Registry) -> ShardedRun {
        let market_trades = barrier.market_trades();
        let cross_shard_lures = barrier.cross_shard_lures();
        let Barrier { shards, metrics, .. } = barrier;
        let shards: Vec<Ecosystem> = shards.into_iter().map(CachePadded::into_inner).collect();
        ShardedRun {
            shards,
            market_trades,
            cross_shard_lures,
            seed: self.base.seed,
            days: self.base.days,
            users: self.base.population.n_users as u32,
            n_shards: self.n_shards,
            workers: self.worker_count(),
            metrics,
            ops,
            profiler,
        }
    }

    /// Build all shards and run every configured day, exchanging
    /// cross-shard traffic at each day barrier.
    ///
    /// Parallel phases run on one persistent [`WorkerPool`] for the
    /// whole run. Every phase is a list of index-addressed jobs the
    /// workers claim from a shared atomic counter (work stealing), and
    /// each job touches only its own shard — which is why scheduling
    /// can never leak into the produced datasets.
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidConfig`] — bad checkpoint policy or
    ///   out-of-range fault plan, rejected before anything runs;
    /// * [`EngineError::ShardPanicked`] — a shard job panicked (organic
    ///   or injected); the pool drains cleanly and other shards'
    ///   partial state survives (see [`run_salvage`](Self::run_salvage));
    /// * [`EngineError::CheckpointIo`] / [`CheckpointCorrupt`](EngineError::CheckpointCorrupt) /
    ///   [`CheckpointMismatch`](EngineError::CheckpointMismatch) —
    ///   checkpoint writes exhausted their bounded retries, or the
    ///   resume file is unreadable, corrupt, or disagrees with the
    ///   restored state.
    pub fn run(self) -> EngineResult<ShardedRun> {
        self.run_salvage().map_err(|failure| failure.error)
    }

    /// Like [`run`](Self::run), but on failure hands back the whole
    /// [`RunFailure`] — the typed error, every shard that survived, and
    /// a degraded forensic [`RunReport`] — instead of just the error.
    pub fn run_salvage(self) -> Result<ShardedRun, Box<RunFailure>> {
        let restore = self.prepare(None).map_err(|e| self.salvage(e, Vec::new(), 0))?;
        let start = Barrier::start(self.base.seed, self.n_shards as usize);
        let (barrier, profiler, ops) = self.drive(start, |rt, barrier| {
            rt.build_or_restore(barrier, restore.as_ref())?;
            rt.advance(barrier, self.base.days, &self.faults, self.checkpoints.as_ref())
        })?;
        Ok(self.finish(barrier, profiler, ops))
    }

    /// Run the scenario through `day` complete days, then freeze the
    /// world at that barrier as a copy-on-write [`WorldSnapshot`]
    /// instead of finishing the run.
    ///
    /// The snapshot is captured *mid-run of this scenario* — the
    /// barrier spillover horizon and decoy schedule are those of the
    /// full `days`-day run — so a continuation forked with the original
    /// seed and config reproduces the uninterrupted run's dataset
    /// byte-for-byte. The barrier state is also recorded as a
    /// [`Checkpoint`] ([`WorldSnapshot::checkpoint`]); every fork is
    /// digest-verified against it before diverging. With
    /// [`resume_from`](Self::resume_from), the prefix up to the
    /// recorded barrier is restored instead of simulated live.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if `day` is not a mid-run barrier
    /// (`1..days`) or precedes a resumed barrier, plus everything
    /// [`run`](Self::run) can return.
    pub fn snapshot_after(self, day: u64) -> EngineResult<WorldSnapshot> {
        let restore = self.prepare(Some(day))?;
        let start = Barrier::start(self.base.seed, self.n_shards as usize);
        let (barrier, _, _) = self
            .drive(start, |rt, barrier| {
                rt.build_or_restore(barrier, restore.as_ref())?;
                rt.advance(barrier, day, &self.faults, self.checkpoints.as_ref())
            })
            .map_err(|failure| failure.error)?;
        let checkpoint = barrier.record(&self);
        Ok(WorldSnapshot { engine: self, barrier, checkpoint })
    }
}

/// One run's mechanics while its worker pool is up: the pool every
/// phase dispatches on, the wall-clock phase profile and the
/// crash-safety ops registry. None of it is barrier state.
struct Runtime<'a, 'pool> {
    engine: &'a ShardedEngine,
    pool: &'a WorkerPool<'pool>,
    profiler: PhaseProfiler,
    ops: Registry,
}

impl Runtime<'_, '_> {
    /// Build every shard world into `barrier` (each worker steals
    /// unbuilt shards by index), then schedule the engine's decoy
    /// probes round-robin over the shards.
    // The `expect` is a claim-protocol invariant, not error handling:
    // every build job claims its config index exactly once.
    #[allow(clippy::expect_used)]
    fn build(&mut self, barrier: &mut Barrier) -> EngineResult<()> {
        let engine = self.engine;
        let k = engine.n_shards as usize;
        let configs: Vec<Mutex<Option<ScenarioConfig>>> =
            engine.shard_configs().into_iter().map(|c| Mutex::new(Some(c))).collect();
        let built: Vec<Mutex<Option<Ecosystem>>> = (0..k).map(|_| Mutex::new(None)).collect();
        let pool = self.pool;
        let outcome = self.profiler.time("build", || {
            pool.run(k, &|_worker, i| {
                let config = configs[i].lock().take().expect("build job claimed once");
                *built[i].lock() = Some(Ecosystem::build(config));
            })
        });
        self.profiler.set_build_workers(pool.take_worker_busy());
        // Slot i is shard i; shards whose build never ran are absent.
        barrier.shards =
            built.into_iter().filter_map(|slot| slot.into_inner()).map(CachePadded::new).collect();
        if let Err(p) = outcome {
            self.ops.inc(M_PANICS_CAUGHT);
            return Err(EngineError::ShardPanicked {
                shard: p.index as u16,
                day: 0,
                payload: p.payload,
            });
        }

        if let Some((total, over_days)) = engine.decoys {
            let mut rng = SimRng::stream(engine.base.seed, "engine-decoys");
            let horizon = over_days.min(engine.base.days.max(1));
            for i in 0..total {
                let shard = &mut barrier.shards[i % k];
                let account = shard.add_decoy_account(&format!("decoy-probe-{i}"));
                let crew_count = shard.crews.crews.len() as u64;
                let crew = CrewId::from_index(rng.below(crew_count) as usize);
                let at = SimTime::from_secs(rng.below(horizon) * DAY + rng.below(DAY));
                shard.schedule_decoy_submission(at, account, crew);
                barrier.metrics.inc(M_DECOY_PROBES);
            }
        }
        Ok(())
    }

    /// Build the shard worlds and, when resuming, bring them to the
    /// recorded barrier in place and prove they reached it.
    fn build_or_restore(
        &mut self,
        barrier: &mut Barrier,
        restore: Option<&Restore>,
    ) -> EngineResult<()> {
        self.build(barrier)?;
        if let Some((record, path)) = restore {
            // Days before the recorded barrier run exactly as the
            // original run computed them: fault-free, checkpoint-free.
            self.advance(barrier, record.completed_days, &FaultPlan::new(), None)?;
            let engine = self.engine;
            self.profiler.time("checkpoint", || barrier.verify(engine, record, path))?;
            self.ops.inc(M_CHECKPOINTS_RESTORED);
        }
        Ok(())
    }

    /// The day loop: advance `barrier` until `until` days are complete.
    /// `faults` fire and `checkpoints` are written only on the days
    /// advanced here.
    fn advance(
        &mut self,
        barrier: &mut Barrier,
        until: u64,
        faults: &FaultPlan,
        checkpoints: Option<&CheckpointPolicy>,
    ) -> EngineResult<()> {
        let engine = self.engine;
        let k = barrier.shards.len();
        // Claim granularity: single jobs for small shard counts (max
        // balance), short runs for huge ones (less claim traffic).
        let claim_chunk = (k / (engine.worker_count() * 8)).max(1);
        for day in barrier.completed_days..until {
            // ---- parallel section: one day, shard-local state only.
            // Workers steal shard-days from the claim index; any claim
            // order yields the same logs because shards never touch
            // each other mid-day.
            let slots: Vec<Mutex<&mut Ecosystem>> =
                barrier.shards.iter_mut().map(|e| Mutex::new(&mut **e)).collect();
            let (pool, ops) = (self.pool, &self.ops);
            let day_result = self.profiler.time("shard_day", || {
                pool.run_chunked(k, claim_chunk, &|_worker, i| {
                    // Injected faults fire before the shard's slot is
                    // even locked: a panicking job never unwinds holding
                    // shard state, and a slowdown only delays identical
                    // work.
                    if faults.should_panic(day, i as u16) {
                        ops.inc(M_FAULTS_INJECTED);
                        panic!("injected fault: shard {i} panicked on day {day}");
                    }
                    if let Some(ms) = faults.slowdown_ms(day, i as u16) {
                        ops.inc(M_FAULTS_INJECTED);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    slots[i].lock().run_day(day);
                })
            });
            drop(slots);
            if let Err(p) = day_result {
                self.ops.inc(M_PANICS_CAUGHT);
                return Err(EngineError::ShardPanicked {
                    shard: p.index as u16,
                    day,
                    payload: p.payload,
                });
            }

            // ---- day barrier: single-threaded exchange in shard
            // order, on the coordinator.
            self.profiler.time("barrier_exchange", || {
                barrier.exchange(day, engine.contact_spillover, engine.base.days)
            });
            barrier.completed_days = day + 1;

            if let Some(policy) = checkpoints {
                let completed = barrier.completed_days;
                if completed.is_multiple_of(policy.every) && completed < engine.base.days {
                    self.write_checkpoint(barrier, policy, faults.checkpoint_failures_at(day))?;
                }
            }
        }
        Ok(())
    }

    /// Write `barrier` as a checkpoint file. Bounded-backoff retries
    /// absorb transient I/O failures (the first `to_inject` attempts
    /// fail on purpose); exhaustion aborts the run with the last error.
    fn write_checkpoint(
        &mut self,
        barrier: &Barrier,
        policy: &CheckpointPolicy,
        mut to_inject: u32,
    ) -> EngineResult<()> {
        let (engine, ops) = (self.engine, &self.ops);
        self.profiler.time("checkpoint", || {
            let ckpt = barrier.record(engine);
            let path = policy.dir.join(checkpoint::file_name(barrier.completed_days));
            let mut attempt = 0u32;
            let outcome = CHECKPOINT_RETRY.run_with(
                &mut || {
                    attempt += 1;
                    if to_inject > 0 {
                        to_inject -= 1;
                        ops.inc(M_FAULTS_INJECTED);
                        return Err(EngineError::CheckpointIo {
                            op: CheckpointOp::Write,
                            path: path.display().to_string(),
                            detail: format!("injected transient write failure (attempt {attempt})"),
                        });
                    }
                    ckpt.write_atomic(&path)
                },
                |_| ops.inc(M_CHECKPOINT_RETRIES),
            );
            if outcome.is_ok() {
                ops.inc(M_CHECKPOINTS_WRITTEN);
            }
            outcome
        })
    }
}

/// A frozen, copy-on-write world at a day barrier — the expensive
/// common prefix of a sweep, built once and forked N times.
///
/// Produced by [`ShardedEngine::snapshot_after`]. Each [`Ecosystem`]'s
/// structural state (geo plan, domain model, population + contact
/// graph) is `Arc`-shared, so forking copies only the dynamic
/// simulation state (logs, stores, per-user columns, RNG streams) —
/// O(changed-state), not O(world). The snapshot also records the
/// barrier as a [`Checkpoint`]; [`ForkBuilder::run`] verifies its
/// clone of the barrier against that record before diverging, so a
/// corrupted or stale snapshot fails loudly with
/// [`EngineError::CheckpointMismatch`] naming the first divergent
/// field — the same verifier [`ShardedEngine::resume_from`] uses.
pub struct WorldSnapshot {
    /// The engine that ran the prefix (its configuration is what forks
    /// inherit and records are identity-checked against).
    engine: ShardedEngine,
    barrier: Barrier,
    checkpoint: Checkpoint,
}

impl std::fmt::Debug for WorldSnapshot {
    /// Compact summary (the shard worlds are megabytes of state).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("seed", &self.seed())
            .field("n_shards", &self.n_shards())
            .field("days", &self.days())
            .field("completed_days", &self.completed_days())
            .field("market_trades", &self.barrier.market_trades())
            .field("cross_shard_lures", &self.barrier.cross_shard_lures())
            .finish_non_exhaustive()
    }
}

impl WorldSnapshot {
    /// The master seed the prefix was built with.
    pub fn seed(&self) -> u64 {
        self.engine.base.seed
    }

    /// Total days of the scenario the snapshot belongs to.
    pub fn days(&self) -> u64 {
        self.engine.base.days
    }

    /// Complete days simulated before the world was frozen.
    pub fn completed_days(&self) -> u64 {
        self.barrier.completed_days
    }

    /// Shard count of the frozen world.
    pub fn n_shards(&self) -> u16 {
        self.engine.n_shards
    }

    /// The scenario configuration the prefix was built with.
    pub fn config(&self) -> &ScenarioConfig {
        &self.engine.base
    }

    /// The recorded barrier state at the fork point. Every fork is
    /// verified against this record; it can also be written to disk
    /// ([`WorldSnapshot::write_record`]) so a later process can restore
    /// the run at this barrier ([`ShardedEngine::resume_from`]).
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// Write the fork-point record to `path` in the checkpoint format
    /// (atomic tmp-file + rename), absorbing transient I/O failures
    /// with the same bounded-backoff retry policy the engine applies to
    /// day-barrier checkpoints.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointIo`] once every retry attempt has
    /// failed.
    pub fn write_record(&self, path: &Path) -> EngineResult<()> {
        CHECKPOINT_RETRY.run(|| self.checkpoint.write_atomic(path))
    }

    /// Verify that `recorded` (a fork-point record read back from
    /// `path`) describes exactly this snapshot's barrier — the record
    /// identity check first, then the barrier comparison, both shared
    /// with the resume path.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointMismatch`] naming the first divergent
    /// field.
    pub fn verify_record(&self, recorded: &Checkpoint, path: &str) -> EngineResult<()> {
        self.engine.check_identity(recorded, path)?;
        compare_barrier(path, recorded, &self.checkpoint)
    }

    /// Start a forked continuation of this world. The defaults
    /// reproduce the uninterrupted run exactly; use the builder's
    /// setters to diverge on seed, defense config, or fault plan.
    pub fn fork(&self) -> ForkBuilder<'_> {
        ForkBuilder {
            snapshot: self,
            seed: None,
            defense: None,
            recovery: None,
            faults: FaultPlan::new(),
            checkpoints: None,
            workers: None,
        }
    }
}

/// A divergent continuation of a [`WorldSnapshot`], built by
/// [`WorldSnapshot::fork`] (or
/// [`ScenarioBuilder::fork_from`](crate::ScenarioBuilder::fork_from)).
///
/// Defaults reproduce the uninterrupted run byte-for-byte; each setter
/// diverges one axis. [`run`](Self::run) clones the snapshot's barrier
/// (cheap: structural state is `Arc`-shared), verifies the clone
/// against the snapshot's fork-point [`Checkpoint`], applies the
/// divergence, and advances the day loop from the barrier — no
/// rebuild, no replay.
pub struct ForkBuilder<'a> {
    snapshot: &'a WorldSnapshot,
    seed: Option<u64>,
    defense: Option<DefenseConfig>,
    recovery: Option<RecoveryConfig>,
    faults: FaultPlan,
    checkpoints: Option<CheckpointPolicy>,
    workers: Option<usize>,
}

impl<'a> ForkBuilder<'a> {
    /// Continue with a different master seed: every shard RNG stream
    /// (and the exchange stream) is deterministically perturbed from
    /// its snapshot position mixed with the new seed, so the
    /// continuation diverges immediately but reproducibly — the same
    /// `(snapshot, seed)` pair always yields the same world. Passing
    /// the snapshot's own seed is a no-op.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Continue under a different defense configuration (the §8
    /// ablation surface): per-event toggles switch instantly, and the
    /// login risk engine is swapped in place when
    /// `login_risk_analysis` flips.
    pub fn defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = Some(defense);
        self
    }

    /// Continue under a different recovery risk policy (claim scoring
    /// posture + adversary pivot — the `sweep` grid's second axis).
    /// Nothing recovery-side is baked at build time, so the swap is a
    /// plain config write on every shard.
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Inject deterministic faults into the continuation (days are
    /// absolute scenario days, as in [`ShardedEngine::fault_plan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Checkpoint the continuation every `every` days into `dir`. Only
    /// a fork that keeps the snapshot's configuration may checkpoint:
    /// resuming a checkpoint re-runs the whole prefix under the
    /// recorded configuration, which a diverged fork never ran.
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoints = Some(CheckpointPolicy { dir: dir.into(), every });
        self
    }

    /// Worker threads for the continuation (mechanics, never
    /// semantics). Defaults to the engine's hardware-derived default.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Verify the fork point and run the continuation to the end of
    /// the scenario.
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidConfig`] — checkpoints were requested
    ///   for a fork whose configuration diverges from the snapshot's
    ///   (rejected before anything is cloned or written);
    /// * [`EngineError::CheckpointMismatch`] — the cloned barrier does
    ///   not reproduce the snapshot's recorded one (a corrupted
    ///   snapshot or a clone bug), naming the first divergent field;
    /// * everything [`ShardedEngine::run`] can return.
    pub fn run(self) -> EngineResult<ShardedRun> {
        let snap = self.snapshot;
        let mut base = snap.engine.base.clone();
        if let Some(defense) = self.defense {
            base.defense = defense;
        }
        if let Some(recovery) = self.recovery {
            base.recovery = recovery;
        }
        let reseed = self.seed.filter(|seed| *seed != base.seed);
        if let Some(seed) = reseed {
            base.seed = seed;
        }
        let engine = ShardedEngine {
            base,
            n_shards: snap.engine.n_shards,
            workers: self.workers.unwrap_or_else(default_workers),
            contact_spillover: snap.engine.contact_spillover,
            decoys: snap.engine.decoys,
            shard_weights: snap.engine.shard_weights.clone(),
            checkpoints: self.checkpoints,
            resume: None,
            faults: self.faults,
        };
        if engine.checkpoints.is_some()
            && engine.config_fingerprint() != snap.checkpoint.config_fingerprint
        {
            return Err(EngineError::InvalidConfig {
                reason: "a fork that diverges from its snapshot's configuration cannot write \
                         checkpoints: resuming one would re-run the prefix under a \
                         configuration it never ran with"
                    .to_string(),
            });
        }
        engine.prepare(None)?;

        // Clone the barrier (structural state is `Arc`-shared; only the
        // dynamic state is copied) and prove the clone is the recorded
        // fork point before any divergence is applied.
        let mut barrier = snap.barrier.clone();
        barrier.verify(&snap.engine, &snap.checkpoint, "<fork>")?;

        for eco in barrier.shards.iter_mut() {
            if let Some(defense) = self.defense {
                eco.set_defense(defense);
            }
            if let Some(recovery) = self.recovery {
                eco.set_recovery(recovery);
            }
            if let Some(seed) = reseed {
                let shard = u64::from(eco.config.shard);
                eco.config.seed = seed;
                eco.perturb_rngs(seed ^ (shard + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            }
        }
        if let Some(seed) = reseed {
            barrier.exchange_rng.perturb(seed);
        }

        let (barrier, profiler, ops) = engine
            .drive(barrier, |rt, barrier| {
                rt.advance(barrier, engine.base.days, &engine.faults, engine.checkpoints.as_ref())
            })
            .map_err(|failure| failure.error)?;
        Ok(engine.finish(barrier, profiler, ops))
    }
}

/// A finished sharded run: the per-shard worlds plus merged views.
pub struct ShardedRun {
    shards: Vec<Ecosystem>,
    /// Credentials that changed hands on the cross-shard market.
    pub market_trades: u64,
    /// Lures routed across shard boundaries at day barriers.
    pub cross_shard_lures: u64,
    seed: u64,
    days: u64,
    users: u32,
    n_shards: u16,
    workers: usize,
    metrics: Registry,
    ops: Registry,
    profiler: PhaseProfiler,
}

impl std::fmt::Debug for ShardedRun {
    /// Compact summary (shard worlds elided — each is megabytes of
    /// Debug output); mainly so `Result<ShardedRun, _>` works with
    /// `expect_err` in the chaos suite.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRun")
            .field("seed", &self.seed)
            .field("n_shards", &self.n_shards)
            .field("days", &self.days)
            .field("users", &self.users)
            .field("workers", &self.workers)
            .field("market_trades", &self.market_trades)
            .field("cross_shard_lures", &self.cross_shard_lures)
            .finish_non_exhaustive()
    }
}

impl ShardedRun {
    /// The per-shard worlds, in shard order.
    pub fn shards(&self) -> &[Ecosystem] {
        &self.shards
    }

    /// Consume the run, yielding the per-shard worlds in shard order
    /// (for callers that carry a single-shard world onward, e.g. the
    /// experiment context's checkpointable path).
    pub fn into_shards(self) -> Vec<Ecosystem> {
        self.shards
    }

    /// All login records, globally ordered by `(SimTime, shard, seq)`.
    pub fn merged_logins(&self) -> Vec<Entry<'_, LoginRecord>> {
        LogStore::merge(self.shards.iter().map(|e| e.login_log.store()))
    }

    /// All mail-provider events, globally ordered.
    pub fn merged_mail_events(&self) -> Vec<Entry<'_, MailEvent>> {
        LogStore::merge(self.shards.iter().map(|e| e.provider.log()))
    }

    /// All notification records, globally ordered.
    pub fn merged_notifications(&self) -> Vec<Entry<'_, NotificationRecord>> {
        LogStore::merge(self.shards.iter().map(|e| e.notifications.log()))
    }

    /// All incidents, tagged with their shard id.
    pub fn incidents(&self) -> impl Iterator<Item = (u16, &Incident)> {
        self.shards
            .iter()
            .flat_map(|e| e.incidents().iter().map(move |i| (e.config.shard, i)))
    }

    /// All hijack-session reports, tagged with their shard id.
    pub fn sessions(&self) -> impl Iterator<Item = (u16, &SessionReport)> {
        self.shards
            .iter()
            .flat_map(|e| e.sessions().iter().map(move |s| (e.config.shard, s)))
    }

    /// Aggregate run counters, summed over shards.
    pub fn total_stats(&self) -> RunStats {
        let mut total = RunStats::default();
        for s in self.shards.iter().map(|e| &e.stats) {
            total.organic_logins += s.organic_logins;
            total.organic_challenges += s.organic_challenges;
            total.organic_challenge_failures += s.organic_challenge_failures;
            total.lures_delivered += s.lures_delivered;
            total.lures_spam_foldered += s.lures_spam_foldered;
            total.credentials_captured += s.credentials_captured;
            total.contact_lure_captures += s.contact_lure_captures;
            total.contact_lures_read += s.contact_lures_read;
            total.sessions_run += s.sessions_run;
            total.incidents += s.incidents;
            total.exploited += s.exploited;
            total.recovered += s.recovered;
            total.recovery_lockouts += s.recovery_lockouts;
            total.recovery_step_ups += s.recovery_step_ups;
            total.pivot_attempts += s.pivot_attempts;
            total.pivot_takeovers += s.pivot_takeovers;
        }
        total
    }

    /// A digest over every produced dataset: the three merged event
    /// logs (in global order, keys included), every incident and
    /// session report, and the aggregate counters. Two runs of the same
    /// sharded scenario must produce the same digest regardless of
    /// worker count — this is the engine's determinism contract and is
    /// what `tests/sharding.rs` pins.
    ///
    /// One FNV-1a chain over these rows in order, with nothing between
    /// rows: `"{key:?}|{record:?}"` per merged login, mail and
    /// notification entry, `"{shard}|{incident:?}"` per incident,
    /// `"{shard}|{session:?}"` per session report, and `"{:?}"` of
    /// [`total_stats`](Self::total_stats). The log entries, nearly all
    /// of the bytes, are hashed by an encoder that produces that text's
    /// bytes without formatting it (see `record_digest.rs`).
    pub fn dataset_digest(&self) -> u64 {
        let mut enc = RecordDigest::new(Fnv1a::OFFSET);
        for e in self.merged_logins() {
            enc.login(e.key, e.record);
        }
        for e in self.merged_mail_events() {
            enc.mail(e.key, e.record);
        }
        for e in self.merged_notifications() {
            enc.notification(e.key, e.record);
        }
        for (shard, inc) in self.incidents() {
            enc.formatted(format_args!("{shard}|{inc:?}"));
        }
        for (shard, sess) in self.sessions() {
            enc.formatted(format_args!("{shard}|{sess:?}"));
        }
        enc.formatted(format_args!("{:?}", self.total_stats()));
        enc.finish()
    }

    /// The engine's own metrics registry (market trades, cross-shard
    /// lures, decoy probes, exchange-queue peak).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The crash-safety ops registry: faults injected, panics caught,
    /// checkpoints written/restored, checkpoint-write retries. Pure
    /// run *mechanics* — deliberately kept out of
    /// [`metrics_snapshot`](Self::metrics_snapshot) and the
    /// [`RunReport`], which must not change when a run is resumed or
    /// fault-injected.
    pub fn ops_metrics(&self) -> &Registry {
        &self.ops
    }

    /// Sim-time metrics merged over every shard plus the engine's own
    /// counters. All quantities are functions of the scenario (seed,
    /// shards, days, population) alone — the worker count never appears,
    /// so two runs of the same scenario produce identical snapshots at
    /// any parallelism level.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::merge_all(
            self.shards
                .iter()
                .map(|e| e.metrics_snapshot())
                .chain(std::iter::once(self.metrics.snapshot())),
        )
    }

    /// The deterministic end-of-run report. Serialises byte-identically
    /// across worker counts for a fixed scenario — this is the report
    /// half of the determinism contract, pinned alongside
    /// [`dataset_digest`](Self::dataset_digest) by
    /// `tests/observability.rs`.
    pub fn run_report(&self) -> RunReport {
        RunReport::new(self.seed, self.n_shards, self.days as u32, self.users, self.metrics_snapshot())
    }

    /// Wall-clock per-phase profile of the run (world build, parallel
    /// shard days, barrier exchange). Pure mechanics: useful for
    /// benchmarking, deliberately **not** part of [`RunReport`].
    pub fn profile(&self) -> EngineProfile {
        self.profiler.report(self.n_shards, self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn tiny(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::small_test(seed);
        c.days = 4;
        c.population.n_users = 120;
        c.market_share = 0.3;
        c
    }

    #[test]
    fn single_shard_matches_plain_ecosystem() {
        // One shard, no market: the engine is the plain simulator.
        let mut config = tiny(3);
        config.market_share = 0.0;
        let mut direct = Ecosystem::build(config.clone());
        direct.run();
        let run = ShardedEngine::new(config, 1).run().unwrap();
        assert_eq!(run.shards().len(), 1);
        let eco = &run.shards()[0];
        assert_eq!(eco.login_log.len(), direct.login_log.len());
        assert_eq!(eco.stats.lures_delivered, direct.stats.lures_delivered);
        assert_eq!(eco.stats.incidents, direct.stats.incidents);
    }

    #[test]
    fn population_splits_evenly() {
        let mut c = tiny(5);
        c.population.n_users = 10;
        let engine = ShardedEngine::new(c, 3);
        let sizes: Vec<usize> =
            engine.shard_configs().iter().map(|c| c.population.n_users).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn weighted_split_is_proportional_and_exact() {
        let mut c = tiny(5);
        c.population.n_users = 130;
        let engine = ShardedEngine::new(c, 4).shard_weights(vec![10, 1, 1, 1]);
        let sizes: Vec<usize> =
            engine.shard_configs().iter().map(|c| c.population.n_users).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 130, "no user lost to rounding");
        assert!(sizes[0] >= 9 * sizes[1], "shard 0 carries ~10x the load");
        // Zero-weight shards end up empty.
        let mut c = tiny(5);
        c.population.n_users = 50;
        let engine = ShardedEngine::new(c, 2).shard_weights(vec![1, 0]);
        let sizes: Vec<usize> =
            engine.shard_configs().iter().map(|c| c.population.n_users).collect();
        assert_eq!(sizes, vec![50, 0]);
    }

    #[test]
    fn worker_count_does_not_change_the_digest() {
        let a = ShardedEngine::new(tiny(7), 3).workers(1).run().unwrap();
        let b = ShardedEngine::new(tiny(7), 3).workers(3).run().unwrap();
        assert_eq!(a.dataset_digest(), b.dataset_digest());
        assert_eq!(a.market_trades, b.market_trades);
        assert_eq!(a.cross_shard_lures, b.cross_shard_lures);
    }

    #[test]
    fn shard_count_is_scenario_semantics() {
        // Different shard counts are different scenarios.
        let a = ShardedEngine::new(tiny(7), 2).run().unwrap();
        let b = ShardedEngine::new(tiny(7), 3).run().unwrap();
        assert_ne!(a.dataset_digest(), b.dataset_digest());
    }

    #[test]
    fn merged_logs_are_globally_ordered_and_complete() {
        let run = ShardedEngine::new(tiny(11), 3).workers(2).run().unwrap();
        let merged = run.merged_logins();
        let total: usize = run.shards().iter().map(|e| e.login_log.len()).sum();
        assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            assert!(w[0].key < w[1].key, "merged log out of order");
        }
        // Shard ids really appear in the keys.
        let shards_seen: std::collections::HashSet<u16> =
            merged.iter().map(|r| r.key.shard).collect();
        assert_eq!(shards_seen.len(), 3);
    }

    #[test]
    fn run_report_is_byte_identical_across_worker_counts() {
        let a = ShardedEngine::new(tiny(7), 3).workers(1).run().unwrap();
        let b = ShardedEngine::new(tiny(7), 3).workers(3).run().unwrap();
        assert_eq!(a.run_report().to_json(), b.run_report().to_json());
        let snap = a.metrics_snapshot();
        assert_eq!(
            snap.counters.iter().find(|c| c.name == "engine.market_trades").map(|c| c.value),
            Some(a.market_trades),
        );
    }

    #[test]
    fn profile_covers_every_engine_phase() {
        let run = ShardedEngine::new(tiny(9), 2).workers(2).run().unwrap();
        let profile = run.profile();
        let phases: Vec<&str> = profile.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, vec!["build", "shard_day", "barrier_exchange"]);
        assert_eq!(profile.workers, 2);
        // One timing per day for the in-loop phases.
        assert_eq!(profile.phases[1].calls, 4);
    }

    #[test]
    fn engine_decoys_land_in_every_shard() {
        let run = ShardedEngine::new(tiny(13), 3).decoys(9, 2).run().unwrap();
        for eco in run.shards() {
            assert_eq!(eco.decoy_accounts.len(), 3);
        }
    }
}
