//! `scale-world`: the low-activity scale preset over 8 logical shards
//! driven by one worker, through `ShardedEngine::run` and
//! `ShardedRun::dataset_digest`.
//!
//! Mailboxes are not seeded and activity is turned down, so per-user
//! state columns, log appends, the barrier exchange, the k-way log
//! merge and bytes per user dominate; mail storage barely runs.

use super::{counter, counters_fingerprint, fold, ms_since, repeat_for, Outcome, Params, Repeats};
use crate::host;
use crate::trace::Tracer;
use mhw_core::{ScenarioConfig, ShardedEngine, ShardedRun};
use std::time::Instant;

pub const USERS: usize = 30_000;
pub const DAYS: u64 = 100;
pub const SHARDS: u16 = 8;
const USER_DAYS: u64 = USERS as u64 * DAYS;

fn engine(seed: u64) -> ShardedEngine {
    ShardedEngine::new(ScenarioConfig::scale_world(seed, USERS, DAYS), SHARDS).workers(1)
}

/// One finished world with its timings.
struct Unit {
    run: ShardedRun,
    build_s: f64,
    /// The run after the build, plus the dataset digest.
    timed_s: f64,
    digest_ms: f64,
    fingerprint: u64,
}

fn phase_ms(run: &ShardedRun, phase: &str) -> f64 {
    run.profile()
        .phases
        .iter()
        .find(|p| p.phase == phase)
        .map_or(0.0, |p| p.total_ms)
}

fn unit(seed: u64, tracer: &mut Option<Tracer>) -> Result<Unit, String> {
    if let Some(t) = tracer.as_mut() {
        t.begin("ShardedEngine::run", "core", seed);
    }
    let t0 = Instant::now();
    let run = engine(seed)
        .run()
        .map_err(|e| format!("scale-world run failed: {e}"))?;
    let run_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_mut() {
        t.end();
        t.begin("ShardedRun::dataset_digest", "core", seed);
    }
    let t1 = Instant::now();
    let digest = run.dataset_digest();
    let digest_ms = ms_since(t1);
    if let Some(t) = tracer.as_mut() {
        t.end();
    }
    let build_s = phase_ms(&run, "build") / 1e3;
    let fingerprint = fold([digest, counters_fingerprint(&run.metrics_snapshot())]);
    Ok(Unit {
        timed_s: run_s - build_s + digest_ms / 1e3,
        build_s,
        digest_ms,
        fingerprint,
        run,
    })
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut repeats = Repeats::default();
    let (mut setup_s, mut throughput, mut latency_us) = (Vec::new(), Vec::new(), Vec::new());
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    repeat_for(budget, || {
        let u = unit(p.seed, &mut None)?;
        setup_s.push(u.build_s);
        throughput.push(USER_DAYS as f64 / u.timed_s);
        latency_us.push(u.timed_s * 1e6);
        repeats.observe(u.fingerprint, USER_DAYS);
        out.attempted += USER_DAYS;
        Ok(())
    })?;

    if p.trace {
        let mut tracer = Some(Tracer::new());
        let mut last = None;
        repeat_for(p.seconds / 2.0, || {
            drop(last.take()); // free the previous unit before the next
            let u = unit(p.seed, &mut tracer)?;
            out.traced_throughput.push(USER_DAYS as f64 / u.timed_s);
            repeats.observe(u.fingerprint, USER_DAYS);
            out.attempted += USER_DAYS;
            last = Some(u);
            Ok(())
        })?;
        let u = last.expect("repeat_for runs at least one unit");
        let run = &u.run;
        let snap = run.metrics_snapshot();
        out.layer("core.build_ms", u.build_s * 1e3, "ms");
        out.layer("core.shard_day_ms", phase_ms(run, "shard_day"), "ms");
        out.layer(
            "core.barrier_exchange_ms",
            phase_ms(run, "barrier_exchange"),
            "ms",
        );
        out.layer("core.log_merge_ms", phase_ms(run, "log_merge"), "ms");
        out.layer("core.dataset_digest_ms", u.digest_ms, "ms");
        let records: u64 = run
            .shards()
            .iter()
            .map(|e| e.log_lens().iter().sum::<u64>())
            .sum();
        out.layer("core.log_records", records as f64, "count");
        out.layer("engine.market_trades", run.market_trades as f64, "count");
        out.layer(
            "engine.cross_shard_lures",
            run.cross_shard_lures as f64,
            "count",
        );
        out.layer(
            "identity.login_attempts",
            counter(&snap, "identity.login_attempts"),
            "count",
        );
        out.layer(
            "identity.challenges_issued",
            counter(&snap, "identity.challenges_issued"),
            "count",
        );
        drop(u);
        // The engine builds inside `run`; its first observable barrier
        // is after day 1, so that is where resident memory is read.
        if let Some(t) = tracer.as_mut() {
            t.begin("ShardedEngine::snapshot_after(1)", "core", p.seed);
        }
        let snapshot = engine(p.seed)
            .snapshot_after(1)
            .map_err(|e| format!("scale-world snapshot failed: {e}"))?;
        if let Some(t) = tracer.as_mut() {
            t.end();
        }
        out.layer("core.rss_after_build_mib", host::rss_mib(), "MiB");
        drop(snapshot);
        out.tracer = tracer;
    }

    out.checks
        .push(repeats.check("dataset digest and layer counters"));
    out.failed = repeats.failed_items;
    out.digest = repeats.fingerprint();
    out.timed.setup_s = setup_s;
    out.timed.throughput = throughput;
    out.timed.throughput_of = "user-days/s";
    out.timed.latency_us = latency_us;
    out.timed.latency_of = "ShardedEngine::run + dataset_digest (one world)";
    Ok(out)
}
