//! `bench_engine_scaling`: the sharded engine at increasing worker
//! counts over a fixed scenario (same seed, same shard count — worker
//! count is pure mechanics, so every configuration produces the same
//! dataset digest; only the wall clock should move).
//!
//! On a multi-core host the 4-worker point should approach a 4x
//! speedup over 1 worker; on a single hardware thread the points
//! collapse onto each other and the bench instead measures the
//! engine's coordination overhead. No ratio is asserted here — the
//! digest equality that matters is pinned by `tests/sharding.rs`.

//! Besides the criterion timings, the bench writes `BENCH_obs.json`:
//! the engine's per-phase wall-clock profile ([`mhw_obs::EngineProfile`])
//! at 1/2/4/8 workers over the same scenario, plus the dataset digest of
//! each run (all identical — the digests double as a determinism check).
//! It also distils the same runs into `BENCH_scaling.json` — one row
//! per worker count with the `shard_day` wall-clock and its speedup
//! over the 1-worker baseline — so the scaling trajectory is tracked
//! PR over PR.
//!
//! Run with `-- --smoke` (what `scripts/check.sh bench-smoke` does) to
//! skip criterion and profile a smaller scenario: it writes
//! `BENCH_scaling.json` into the temp dir (`std::env::temp_dir()`, which
//! honours `TMPDIR`), never over the committed artifact, reads it back
//! and checks it parses to what was written, and warns — non-fatally,
//! CI timing is noisy — if the 8-worker `shard_day` wall-clock exceeds
//! the 1-worker one.

use criterion::{criterion_group, Criterion};
use mhw_core::{ScenarioConfig, ShardedEngine};
use mhw_obs::EngineProfile;
use serde::{Deserialize, Serialize};
use std::path::Path;

fn scaling_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(0x5CA1);
    config.days = 4;
    config.population.n_users = 400;
    config.market_share = 0.25;
    config
}

fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("4_shards_{workers}_workers"), |b| {
            b.iter(|| {
                ShardedEngine::new(scaling_config(), 4)
                    .workers(workers)
                    .contact_spillover(0.25)
                    .run()
                    .expect("bench run")
                    .dataset_digest()
            })
        });
    }
    // The unsharded baseline: what the same population costs without
    // the engine (one shard, no barriers, no exchange).
    group.bench_function("unsharded_baseline", |b| {
        b.iter(|| {
            let mut config = scaling_config();
            config.market_share = 0.0;
            ShardedEngine::new(config, 1).run().expect("bench run").total_stats().incidents
        })
    });
    group.finish();
}

criterion_group!(engine, bench_engine_scaling);

/// One row of `BENCH_obs.json`: the per-phase profile of a single
/// engine run plus the digest it produced.
#[derive(Serialize)]
struct ObsRun {
    digest: String,
    profile: EngineProfile,
}

/// The whole `BENCH_obs.json` document.
#[derive(Serialize)]
struct ObsBench {
    scenario: String,
    runs: Vec<ObsRun>,
}

/// One row of `BENCH_scaling.json`: how one worker count fared on the
/// same scenario, against the 1-worker baseline.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ScalingRow {
    workers: usize,
    build_ms: f64,
    shard_day_ms: f64,
    total_ms: f64,
    /// `shard_day` wall-clock at 1 worker divided by this row's —
    /// above 1.0 means adding workers helped.
    speedup: f64,
    digest: String,
}

/// The whole `BENCH_scaling.json` document.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ScalingBench {
    scenario: String,
    rows: Vec<ScalingRow>,
}

/// Run the engine over `config` at 1/2/4/8 workers, collecting each
/// run's per-phase profile and digest.
fn profile_runs(config: &ScenarioConfig, n_shards: u16) -> Vec<ObsRun> {
    const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let one_run = |workers: usize| {
        // Idle briefly first: on cgroup-quota-limited hosts a
        // continuous run drains the CPU budget, and whichever
        // configuration happens to run early would look faster. The
        // pause lets the quota window refill so every run starts equal.
        std::thread::sleep(std::time::Duration::from_millis(250));
        let run = ShardedEngine::new(config.clone(), n_shards)
            .workers(workers)
            .contact_spillover(0.25)
            .run()
            .expect("bench run");
        (run.dataset_digest(), run.profile())
    };
    // Warm caches and the allocator before anything is measured.
    let _ = one_run(1);
    // Shared hosts drift — and quota-throttled ones systematically
    // favour whatever runs right after an idle gap — so reps are
    // interleaved over the worker counts with a rotating starting
    // offset (each count goes first equally often) and each count keeps
    // its fastest rep: the minimum is the standard low-variance
    // estimator of true cost.
    let mut best: Vec<Option<(u64, EngineProfile)>> = vec![None; WORKER_COUNTS.len()];
    for rep in 0..2 * WORKER_COUNTS.len() {
        for j in 0..WORKER_COUNTS.len() {
            let slot = (rep + j) % WORKER_COUNTS.len();
            let workers = WORKER_COUNTS[slot];
            let (digest, profile) = one_run(workers);
            let faster = best[slot].as_ref().is_none_or(|(_, prev)| {
                phase_ms(&profile, "shard_day") < phase_ms(prev, "shard_day")
            });
            if faster {
                best[slot] = Some((digest, profile));
            }
        }
    }
    let mut runs = Vec::new();
    for (slot, workers) in WORKER_COUNTS.into_iter().enumerate() {
        let (digest, profile) = best[slot].take().expect("profiled every count");
        let total: f64 = profile.phases.iter().map(|p| p.total_ms).sum();
        println!("obs profile: {workers} workers, total {total:.0} ms, digest {digest:016x}");
        runs.push(ObsRun { digest: format!("{digest:016x}"), profile });
    }
    runs
}

fn phase_ms(profile: &EngineProfile, phase: &str) -> f64 {
    profile.phases.iter().find(|p| p.phase == phase).map_or(0.0, |p| p.total_ms)
}

/// Distil profiled runs into the per-worker-count speedup table, write
/// it to `path` and return the document written.
fn write_scaling_bench(runs: &[ObsRun], scenario: &str, path: &Path) -> ScalingBench {
    let baseline = phase_ms(&runs[0].profile, "shard_day").max(f64::MIN_POSITIVE);
    let rows: Vec<ScalingRow> = runs
        .iter()
        .map(|run| {
            let shard_day_ms = phase_ms(&run.profile, "shard_day");
            ScalingRow {
                workers: run.profile.workers,
                build_ms: phase_ms(&run.profile, "build"),
                shard_day_ms,
                total_ms: run.profile.phases.iter().map(|p| p.total_ms).sum(),
                speedup: baseline / shard_day_ms.max(f64::MIN_POSITIVE),
                digest: run.digest.clone(),
            }
        })
        .collect();
    for row in &rows {
        println!(
            "scaling: {} workers, shard_day {:.1} ms, speedup {:.2}x",
            row.workers, row.shard_day_ms, row.speedup
        );
    }
    let doc = ScalingBench { scenario: scenario.to_string(), rows };
    let json = serde_json::to_string(&doc).expect("serialize BENCH_scaling.json");
    std::fs::write(path, json).expect("write BENCH_scaling.json");
    println!("wrote {}", path.display());
    doc
}

/// Non-fatal guard: shout if the worst worker count is slower than the
/// single-worker baseline (the inverse-scaling bug this bench exists to
/// keep dead). Timing on shared CI is noisy, so this warns, never fails.
fn warn_if_inverse_scaling(runs: &[ObsRun]) {
    let baseline = phase_ms(&runs[0].profile, "shard_day");
    for run in &runs[1..] {
        let ms = phase_ms(&run.profile, "shard_day");
        if ms > baseline {
            eprintln!(
                "warning: shard_day at {} workers ({ms:.1} ms) exceeds the \
                 1-worker baseline ({baseline:.1} ms) — inverse scaling",
                run.profile.workers
            );
        }
    }
}

/// Profile the full scenario at increasing worker counts and write the
/// per-phase wall-clock breakdown to `BENCH_obs.json`.
fn write_obs_profile() -> Vec<ObsRun> {
    let runs = profile_runs(&scaling_config(), 8);
    let doc = ObsBench {
        scenario: "8 shards, 400 users, 4 days, seed 0x5CA1".to_string(),
        runs,
    };
    let json = serde_json::to_string(&doc).expect("serialize BENCH_obs.json");
    // Cargo runs benches with the package dir as CWD; anchor the
    // artifact at the workspace root instead.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");
    doc.runs
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        // The check.sh bench-smoke step: a scenario small enough to run
        // on every push, feeding the same BENCH_scaling.json format.
        let mut config = ScenarioConfig::small_test(0x5CA1);
        config.days = 2;
        config.population.n_users = 160;
        config.market_share = 0.25;
        let runs = profile_runs(&config, 8);
        let path = std::env::temp_dir().join("BENCH_scaling.json");
        let doc =
            write_scaling_bench(&runs, "smoke: 8 shards, 160 users, 2 days, seed 0x5CA1", &path);
        let json = std::fs::read_to_string(&path).expect("read back BENCH_scaling.json");
        let back: ScalingBench = serde_json::from_str(&json).expect("parse BENCH_scaling.json");
        assert_eq!(back, doc, "BENCH_scaling.json must read back as written");
        warn_if_inverse_scaling(&runs);
        return;
    }
    // Profile before the criterion group: on quota-throttled hosts the
    // criterion warm-up burns the CPU budget and would skew whatever
    // runs after it.
    let runs = write_obs_profile();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    write_scaling_bench(&runs, "8 shards, 400 users, 4 days, seed 0x5CA1", Path::new(path));
    warn_if_inverse_scaling(&runs);
    engine();
}
