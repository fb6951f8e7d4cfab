//! `serve` — replay a login stream through streaming `RiskService`
//! instances, healthy and under injected partial outages, and report
//! each arm's verdicts and availability.
//!
//! ```text
//! serve [--users N] [--days N] [--logins-per-user-day N] [--attack-rate F]
//!       [--seed N] [--threads LIST] [--log-in FILE] [--log-out FILE]
//!       [--fault-plan SPEC[;SPEC...]] [--deadline-ns N] [--queue-cap N]
//!       [--shed-policy fifo|lowest-risk] [--out BENCH_serve.json] [--smoke]
//! ```
//!
//! Where `repro`/`scenario` run the closed-loop simulation, `serve`
//! treats login scoring as the serving workload the paper's defense
//! actually was: a time-ordered stream of login events is sharded by
//! account across `--threads` worker threads (each owning one
//! [`StreamingRiskService`] with bounded state) and replayed through
//! the overload-safe path — a bounded admission queue (`--queue-cap`)
//! shedding by `--shed-policy`, per-request deadline budgets
//! (`--deadline-ns`) that downgrade signals instead of blocking, and
//! per-source circuit breakers. Each thread-count configuration in
//! `--threads` (default `1,4,8`) is replayed separately.
//!
//! **Arms.** The clean arm injects no faults and has no deadline.
//! Each `;`-separated spec in `--fault-plan` (grammar:
//! `geo-down@A..B`, `slow-signal@SRC:NS`, `cache-wipe@E`,
//! `seeded:geo=N,slow=N,wipe=N`) adds one *fault arm* per thread
//! count; fault coordinates address each worker's local substream.
//! Every arm runs through the same loop, so every row of the
//! [`ServeReport`] written to `--out` has the same fields:
//! *virtual*-clock latency quantiles (queueing + modeled scoring
//! cost), the peak bounded-state footprint, the chained verdict
//! digest, and a [`ServeAvailability`] block — shed rate, per-source
//! degradation counts, breaker transitions, and decision divergence
//! from the clean arm at the same thread count. Nothing in the report
//! reads a wall clock, so it is deterministic for a fixed stream, plan
//! and thread count. Wall-clock throughput and latency of the scoring
//! path are the benchmark's serve-replay workload (`benchmark/`).
//!
//! The stream is either generated deterministically from the workload
//! knobs (`--users`/`--days`/`--seed`…, optionally saved with
//! `--log-out`) or loaded from a previously saved file (`--log-in`).
//! `--smoke` runs the small default workload on 1 and 2 threads,
//! re-reads the written report and checks that every arm scored or
//! shed every event and that the clean arm shed and degraded nothing;
//! when fault arms are present it replays each twice to assert a
//! byte-identical digest and a shed rate ≤ 0.5: the CI chaos hook.
//! Usage errors exit 2, runtime failures exit 1.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

use mhw_core::replay::{self, ReplayLog, ReplayLogin, WorkloadConfig};
use mhw_core::resilience::{
    replay_stream_resilient, ReplayStats, ServeFaultPlan, ServeOptions, ShedPolicy,
    DEFAULT_DEADLINE_NS, DEFAULT_QUEUE_CAP,
};
use mhw_defense::{
    BreakerTransitions, ResilienceConfig, RiskDecision, RiskEngine, RiskService, ServiceLimits,
    StateSize, StreamingRiskService, DEADLINE_UNLIMITED,
};
use mhw_experiments::cli::{self, Failure, UsageError};
use mhw_netmodel::GeoDb;
use mhw_obs::{
    buckets, MetricId, MetricsSnapshot, Registry, ServeAvailability, ServeReport, ServeRun,
    ARM_CLEAN,
};
use mhw_types::RetryPolicy;

const USAGE: &str = "usage: serve [--users N] [--days N] [--logins-per-user-day N] [--attack-rate F]\n\
     \x20            [--seed N] [--threads LIST] [--log-in FILE] [--log-out FILE]\n\
     \x20            [--fault-plan SPEC[;SPEC...]] [--deadline-ns N] [--queue-cap N]\n\
     \x20            [--shed-policy fifo|lowest-risk] [--out FILE] [--smoke]";

/// Per-login latency in virtual ns: queueing + modeled scoring cost.
const M_LATENCY: MetricId = MetricId("serve.latency_ns");

/// Fault arms in `--smoke` must shed no more than this fraction.
const SMOKE_MAX_SHED_RATE: f64 = 0.5;

fn main() {
    cli::run_main(USAGE, run);
}

/// One worker's replay result: its digest, its latency histogram, its
/// final state footprint, its per-event decisions (for the divergence
/// comparison) and its overload accounting.
struct ShardResult {
    digest: u64,
    snapshot: MetricsSnapshot,
    peak: StateSize,
    decisions: Vec<RiskDecision>,
    stats: ReplayStats,
    breakers: BreakerTransitions,
    deadline_downgrades: u64,
}

/// Replay one shard through a fresh service on the overload-safe path
/// under `opts`, recording *virtual* per-login latency.
fn replay_shard(geo: &GeoDb, events: &[ReplayLogin], opts: &ServeOptions) -> ShardResult {
    let mut service = StreamingRiskService::with_resilience(
        RiskEngine::default(),
        ServiceLimits::default(),
        ResilienceConfig::with_deadline(opts.deadline_ns),
    );
    let registry = Registry::new().with_histogram(M_LATENCY, buckets::SERVE_LATENCY_NANOS);
    let mut stats = ReplayStats::default();
    let mut decisions = vec![RiskDecision::Allow; events.len()];
    let digest = replay_stream_resilient(
        &mut service,
        geo,
        events,
        replay::DIGEST_SEED,
        opts,
        &mut stats,
        |index, _event, verdict, _outcome, virtual_ns| {
            registry.observe(M_LATENCY, virtual_ns);
            decisions[index] = verdict.decision;
        },
    );
    let resilience = service.resilience_snapshot();
    ShardResult {
        digest,
        snapshot: registry.snapshot(),
        peak: service.state_size(),
        decisions,
        stats,
        breakers: resilience.breakers,
        deadline_downgrades: resilience.deadline_downgrades,
    }
}

/// Shard the stream by account, replay every shard concurrently under
/// `opts`, and merge the shards into one [`ServeRun`] row. Decisions
/// are compared against `clean`, the clean arm's shards at the same
/// thread count; the clean arm itself passes `None`.
fn measure(
    geo: &GeoDb,
    events: &[ReplayLogin],
    threads: usize,
    arm: &str,
    opts: &ServeOptions,
    clean: Option<&[ShardResult]>,
) -> Result<(ServeRun, Vec<ShardResult>), Failure> {
    let shards = replay::shard_events(events, threads);
    let results: Result<Vec<ShardResult>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(move || replay_shard(geo, shard, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay worker panicked".to_string()))
            .collect()
    });
    let results = results.map_err(Failure::Runtime)?;

    let merged = MetricsSnapshot::merge_all(results.iter().map(|r| r.snapshot.clone()));
    let latency = merged
        .histogram(M_LATENCY.0)
        .ok_or_else(|| Failure::Runtime("latency histogram missing from snapshot".to_string()))?;
    let digests: Vec<u64> = results.iter().map(|r| r.digest).collect();
    let mut stats = ReplayStats::default();
    let mut breakers = BreakerTransitions::default();
    let mut deadline_downgrades = 0u64;
    let mut diverged = 0u64;
    let clean = clean.unwrap_or(&results);
    for (result, clean) in results.iter().zip(clean) {
        stats.merge(&result.stats);
        breakers.merge(&result.breakers);
        deadline_downgrades += result.deadline_downgrades;
        diverged += result
            .decisions
            .iter()
            .zip(&clean.decisions)
            .filter(|(decision, clean)| decision != clean)
            .count() as u64;
    }
    let availability = ServeAvailability {
        fault_plan: opts.faults.to_string(),
        shed_policy: opts.shed_policy.name().to_string(),
        deadline_ns: opts.deadline_ns,
        queue_cap: opts.queue_cap as u64,
        events_scored: stats.scored,
        events_shed: stats.shed,
        shed_rate: stats.shed_rate(),
        degraded_events: stats.degraded_events,
        degraded_geo: stats.degraded_by_source[2],
        degraded_ip_cache: stats.degraded_by_source[1],
        degraded_history: stats.degraded_by_source[0],
        deadline_downgrades,
        cache_wipes: stats.cache_wipes,
        breaker_opened: breakers.opened,
        breaker_half_opened: breakers.half_opened,
        breaker_closed: breakers.closed,
        peak_queue_depth: stats.peak_queue_depth,
        divergence_from_clean: if events.is_empty() {
            0.0
        } else {
            diverged as f64 / events.len() as f64
        },
        diverged_events: diverged,
    };
    // Shards hold disjoint state, so the run's footprint is the sum of
    // the per-shard footprints.
    let run = ServeRun::from_measurement(
        arm,
        threads,
        events.len() as u64,
        latency,
        results.iter().map(|r| r.peak.approx_bytes as u64).sum(),
        results.iter().map(|r| r.peak.accounts as u64).sum(),
        results.iter().map(|r| r.peak.ip_entries as u64).sum(),
        replay::fold_digests(&digests),
        availability,
    );
    Ok((run, results))
}

/// Print one report row.
fn print_run(run: &ServeRun) {
    let avail = &run.availability;
    println!(
        "threads {:>2} [{}]: virtual p50 {:>6.0} ns   p99 {:>7.0} ns   shed {:>5.3}   \
         degraded {}   breakers {}/{}/{}   peak state {} B   digest {:#018x}",
        run.threads,
        run.arm,
        run.p50_ns,
        run.p99_ns,
        avail.shed_rate,
        avail.degraded_events,
        avail.breaker_opened,
        avail.breaker_half_opened,
        avail.breaker_closed,
        run.peak_state_bytes,
        run.verdict_digest
    );
}

/// Write `contents` to `path`, absorbing transient I/O errors with the
/// workspace's bounded-backoff retry policy.
fn write_artifact(path: &str, contents: &str) -> Result<(), Failure> {
    RetryPolicy::default()
        .run(|| std::fs::write(path, contents.as_bytes()))
        .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))
}

fn usage(message: String) -> Failure {
    UsageError(message).into()
}

fn run(args: &[String]) -> Result<(), Failure> {
    let smoke = cli::flag(args, "--smoke");
    let seed = cli::value::<u64>(args, "--seed")?.unwrap_or(0x5E12_E014);
    let threads = match cli::value_list::<usize>(args, "--threads")? {
        Some(list) => list,
        None if smoke => vec![1, 2],
        None => vec![1, 4, 8],
    };
    if threads.contains(&0) {
        return Err(usage("--threads values must be >= 1".to_string()));
    }
    let out_path =
        cli::value::<String>(args, "--out")?.unwrap_or_else(|| "BENCH_serve.json".to_string());
    let log_in = cli::value::<String>(args, "--log-in")?;
    let log_out = cli::value::<String>(args, "--log-out")?;
    if log_in.is_some() && log_out.is_some() {
        return Err(usage("--log-out would just copy --log-in back out; pick one".to_string()));
    }
    let deadline_ns = cli::value::<u64>(args, "--deadline-ns")?.unwrap_or(DEFAULT_DEADLINE_NS);
    if deadline_ns == 0 {
        return Err(usage("--deadline-ns must be >= 1".to_string()));
    }
    let queue_cap = cli::value::<usize>(args, "--queue-cap")?.unwrap_or(DEFAULT_QUEUE_CAP);
    if queue_cap == 0 {
        return Err(usage("--queue-cap must be >= 1".to_string()));
    }
    let shed_policy = match cli::value::<String>(args, "--shed-policy")? {
        Some(name) => name.parse::<ShedPolicy>().map_err(usage)?,
        None => ShedPolicy::default(),
    };
    let fault_spec = cli::value::<String>(args, "--fault-plan")?;
    let fault_arms: Vec<&str> = fault_spec.as_deref().map_or_else(Vec::new, |spec| {
        spec.split(';').map(str::trim).filter(|p| !p.is_empty()).collect()
    });
    // Refuse a malformed arm before the stream is built or read; only
    // the seeded-count bound and the coordinate check need its length.
    for part in &fault_arms {
        ServeFaultPlan::check_grammar(part).map_err(usage)?;
    }

    let geo = GeoDb::new();
    let (stream_seed, users, days, events) = if let Some(path) = log_in {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| Failure::Runtime(format!("reading {path}: {e}")))?;
        let log = ReplayLog::from_json(&json)
            .map_err(|e| Failure::Runtime(format!("parsing {path}: {e}")))?;
        eprintln!("loaded {} events from {path}", log.events.len());
        (log.seed, 0, 0, log.events)
    } else {
        let mut cfg = if smoke {
            WorkloadConfig::small(seed)
        } else {
            WorkloadConfig {
                users: 5_000,
                days: 10,
                logins_per_user_day: 2,
                wrong_password_rate: 0.03,
                travel_rate: 0.02,
                attack_rate: 0.01,
                seed,
            }
        };
        if let Some(u) = cli::value::<u32>(args, "--users")? {
            cfg.users = u;
        }
        if let Some(d) = cli::value::<u32>(args, "--days")? {
            cfg.days = d;
        }
        if let Some(l) = cli::value::<u32>(args, "--logins-per-user-day")? {
            cfg.logins_per_user_day = l;
        }
        if let Some(a) = cli::value::<f64>(args, "--attack-rate")? {
            cfg.attack_rate = a;
        }
        eprintln!(
            "generating workload: {} users x {} days x {} logins/day, seed {:#x} …",
            cfg.users, cfg.days, cfg.logins_per_user_day, cfg.seed
        );
        let events = replay::generate_workload(&cfg, &geo);
        if let Some(path) = log_out {
            write_artifact(&path, &ReplayLog::new(cfg.seed, events.clone()).to_json())?;
            eprintln!("wrote {path}");
        }
        (cfg.seed, cfg.users, cfg.days, events)
    };
    if events.is_empty() {
        return Err(Failure::Runtime("login stream is empty".to_string()));
    }

    // Parse fault arms against the stream we now know the length of;
    // coordinates apply to each worker's local substream, so ranges
    // past a short shard simply never fire there.
    let mut arms: Vec<ServeFaultPlan> = Vec::new();
    for part in &fault_arms {
        let plan =
            ServeFaultPlan::parse_spec(part, stream_seed, events.len() as u64).map_err(usage)?;
        plan.validate(events.len() as u64).map_err(usage)?;
        arms.push(plan);
    }

    // The clean arm: no faults and no deadline, so no signal ever
    // degrades and the stream never queues.
    let clean_opts = ServeOptions {
        deadline_ns: DEADLINE_UNLIMITED,
        queue_cap,
        shed_policy,
        faults: ServeFaultPlan::new(),
    };
    let mut report = ServeReport::new(stream_seed, users, days, events.len() as u64);
    for &t in &threads {
        eprintln!("replaying {} events on {t} thread(s) [{ARM_CLEAN}] …", events.len());
        let (clean_run, clean_shards) = measure(&geo, &events, t, ARM_CLEAN, &clean_opts, None)?;
        print_run(&clean_run);
        report.runs.push(clean_run);
        for plan in &arms {
            let arm = plan.to_string();
            let opts = ServeOptions { deadline_ns, queue_cap, shed_policy, faults: plan.clone() };
            eprintln!("replaying {} events on {t} thread(s) [{arm}] …", events.len());
            let (run, _) = measure(&geo, &events, t, &arm, &opts, Some(&clean_shards))?;
            if smoke {
                // The chaos gate: a second replay of the same arm must
                // produce a byte-identical digest.
                let (again, _) = measure(&geo, &events, t, &arm, &opts, Some(&clean_shards))?;
                if again.verdict_digest != run.verdict_digest {
                    return Err(Failure::Runtime(format!(
                        "smoke: fault arm `{arm}` at {t} thread(s) is nondeterministic: \
                         {:#018x} then {:#018x}",
                        run.verdict_digest, again.verdict_digest
                    )));
                }
            }
            print_run(&run);
            report.runs.push(run);
        }
    }
    write_artifact(&out_path, &report.to_json())?;
    println!("wrote {out_path}");

    if smoke {
        // Re-read what was just written: the smoke gate checks the
        // artifact on disk, not the in-memory report.
        let json = std::fs::read_to_string(&out_path)
            .map_err(|e| Failure::Runtime(format!("re-reading {out_path}: {e}")))?;
        let back = ServeReport::from_json(&json)
            .map_err(|e| Failure::Runtime(format!("re-parsing {out_path}: {e}")))?;
        let expected = threads.len() * (1 + arms.len());
        if back.runs.len() != expected {
            return Err(Failure::Runtime(format!(
                "smoke: expected {expected} runs in {out_path}, found {}",
                back.runs.len()
            )));
        }
        for run in &back.runs {
            let avail = &run.availability;
            if run.events != back.events || avail.events_scored + avail.events_shed != run.events
            {
                return Err(Failure::Runtime(format!(
                    "smoke: arm `{}` at {} thread(s) lost events: {} scored + {} shed != {}",
                    run.arm, run.threads, avail.events_scored, avail.events_shed, back.events
                )));
            }
            if run.arm == ARM_CLEAN {
                if avail.events_shed > 0 || avail.degraded_events > 0 {
                    return Err(Failure::Runtime(format!(
                        "smoke: the clean arm at {} thread(s) shed {} and degraded {} events",
                        run.threads, avail.events_shed, avail.degraded_events
                    )));
                }
            } else if avail.shed_rate > SMOKE_MAX_SHED_RATE {
                return Err(Failure::Runtime(format!(
                    "smoke: fault arm `{}` shed {:.3} of the stream (cap {SMOKE_MAX_SHED_RATE})",
                    run.arm, avail.shed_rate
                )));
            }
        }
        println!(
            "serve smoke OK: {} events, {} thread configs, {} fault arm(s)",
            back.events,
            threads.len(),
            arms.len()
        );
    }
    Ok(())
}
