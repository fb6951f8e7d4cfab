//! `scenario` — run one configurable ecosystem scenario and print a
//! full situation report. The knobs cover everything DESIGN.md lists
//! as calibration parameters, so reviewers can probe the model without
//! writing code.
//!
//! ```text
//! scenario [--users N] [--days N] [--seed N] [--era 2011|2012]
//!          [--shards N] [--workers N]
//!          [--lures F] [--no-defense] [--no-classifier] [--no-monitor]
//!          [--no-challenge] [--twofactor F] [--report run-report.json]
//!          [--validate] [--fidelity-out FIDELITY.json]
//!          [--checkpoint-dir DIR] [--checkpoint-every N] [--fault-plan SPEC]
//!          [--snapshot-at DAY --snapshot-out FILE]
//!          [--fork-from FILE] [--fork-seed N]
//! ```
//!
//! With `--shards N` (N > 1) the run goes through the sharded parallel
//! engine; `--workers` caps its worker threads (default: all cores) and
//! is pure mechanics — the printed report is byte-identical at any
//! worker count. With `--report`, the run's deterministic
//! [`mhw_obs::RunReport`] is written as JSON to the given path.
//!
//! With `--validate`, the finished world is additionally scored
//! against the world-derivable subset of the calibration-target
//! registry (T3, F8–F11, §5 — the rest need `repro --validate`'s
//! companion runs) and the partial scorecard is printed and written to
//! `--fidelity-out` when given. Only single-world runs can be scored;
//! combining `--validate` with `--shards` > 1 is a usage error.
//!
//! The crash-safety and restore flags (see `docs/REPRODUCING.md`)
//! force the engine path even at `--shards 1` and compose freely:
//! `--checkpoint-dir DIR` / `--checkpoint-every N` write day-barrier
//! checkpoints and `--fault-plan SPEC` injects deterministic faults.
//! `--fork-from FILE` restores the run at the day barrier recorded in a
//! checkpoint or fork-point record (the scenario flags must describe
//! the original run: the record's identity is checked before anything
//! is built, and the re-simulated prefix is digest-verified against it
//! — any drift is a fatal `CheckpointMismatch` naming the first
//! divergent field), then finishes the run under its own checkpoints
//! and faults. `--fork-seed N` diverges the restored run's RNG from the
//! barrier onward; it cannot be combined with `--checkpoint-dir`, since
//! a diverged run's checkpoints could never be resumed. `--snapshot-at
//! DAY --snapshot-out FILE` runs the scenario through `DAY` complete
//! days, writes the fork-point record and stops (unlike `repro`, which
//! finishes the run). Flag values that fail to parse and impossible
//! flag combinations are fatal usage errors (exit 2); runtime failures
//! exit 1.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mhw_adversary::Era;
use mhw_analysis::{bar_chart, Breakdown, Ecdf};
use mhw_core::{Ecosystem, ScenarioBuilder, ScenarioConfig, ShardedRun};
use mhw_experiments::cli::{self, Failure, UsageError};
use mhw_experiments::context::EngineOptions;
use mhw_types::Actor;

/// A finished run: the plain single-world path, or the sharded engine.
enum Run {
    Single(Box<Ecosystem>),
    Sharded(Box<ShardedRun>),
}

impl Run {
    fn worlds(&self) -> Vec<&Ecosystem> {
        match self {
            Run::Single(eco) => vec![eco],
            Run::Sharded(run) => run.shards().iter().collect(),
        }
    }

    fn report_json(&self) -> String {
        match self {
            Run::Single(eco) => eco.run_report().to_json(),
            Run::Sharded(run) => run.run_report().to_json(),
        }
    }
}

const USAGE: &str = "usage: scenario [--users N] [--days N] [--seed N] [--era 2011|2012]\n\
     \x20               [--shards N] [--workers N] [--lures F] [--twofactor F]\n\
     \x20               [--no-defense] [--no-classifier] [--no-monitor] [--no-challenge]\n\
     \x20               [--report FILE] [--validate] [--fidelity-out FILE]\n\
     \x20               [--checkpoint-dir DIR] [--checkpoint-every N] [--fault-plan SPEC]\n\
     \x20               [--snapshot-at DAY --snapshot-out FILE]\n\
     \x20               [--fork-from FILE] [--fork-seed N]";

fn main() {
    cli::run_main(USAGE, run);
}

fn run(args: &[String]) -> Result<(), Failure> {
    let mut config = ScenarioConfig::measurement(cli::value(args, "--seed")?.unwrap_or(0x5C3A));
    if let Some(n) = cli::value::<usize>(args, "--users")? {
        config.population.n_users = n;
    }
    if let Some(d) = cli::value::<u64>(args, "--days")? {
        config.days = d;
    }
    if let Some(l) = cli::value::<f64>(args, "--lures")? {
        config.lures_per_user_day = l;
    }
    if let Some(t) = cli::value::<f64>(args, "--twofactor")? {
        config.population.twofactor_rate = t;
    }
    match cli::value::<u32>(args, "--era")? {
        None | Some(2012) => {}
        Some(2011) => config.era = Era::Y2011,
        Some(other) => {
            return Err(Failure::Usage(UsageError(format!(
                "invalid value for --era: {other} (expected 2011 or 2012)"
            ))));
        }
    }
    if cli::flag(args, "--no-defense") {
        config.defense = mhw_core::DefenseConfig::none();
    }
    if cli::flag(args, "--no-classifier") {
        config.defense.mail_classifier = false;
    }
    if cli::flag(args, "--no-monitor") {
        config.defense.activity_monitor = false;
    }
    if cli::flag(args, "--no-challenge") {
        config.defense.login_risk_analysis = false;
    }
    let shards = cli::value::<u16>(args, "--shards")?.unwrap_or(1).max(1);
    let workers =
        cli::value::<usize>(args, "--workers")?.unwrap_or_else(mhw_core::default_workers);
    let validate = cli::flag(args, "--validate");
    let fidelity_out = cli::value::<String>(args, "--fidelity-out")?;
    if validate && shards > 1 {
        return Err(Failure::Usage(UsageError(
            "--validate scores a single world; it cannot be combined with --shards > 1"
                .to_string(),
        )));
    }
    if fidelity_out.is_some() && !validate {
        return Err(Failure::Usage(UsageError(
            "--fidelity-out requires --validate".to_string(),
        )));
    }

    let opts = EngineOptions::from_args(args, config.seed, config.days, shards)?;
    let report_path = cli::value::<String>(args, "--report")?;
    if opts.snapshot.is_some() && (validate || report_path.is_some()) {
        return Err(Failure::Usage(UsageError(
            "--snapshot-out stops mid-run; --report/--validate need a finished run".to_string(),
        )));
    }
    let runtime = |e: mhw_core::EngineError| Failure::Runtime(e.to_string());

    // Freeze mode: run the prefix, write the fork-point record, stop.
    if let Some((day, out)) = &opts.snapshot {
        let engine = ScenarioBuilder::new(config).workers(workers).sharded(shards);
        let t0 = std::time::Instant::now();
        let snapshot = opts.configure(engine).snapshot_after(*day).map_err(runtime)?;
        snapshot.write_record(out).map_err(runtime)?;
        eprintln!(
            "froze {} shard(s) after day {}/{} in {:.1}s; fork-point record -> {}",
            snapshot.n_shards(),
            snapshot.completed_days(),
            snapshot.days(),
            t0.elapsed().as_secs_f64(),
            out.display()
        );
        return Ok(());
    }

    eprintln!(
        "running: {} users, {} days, era {:?}, lures/user/day {}, seed {:#x}, {} shard(s), {} worker(s)",
        config.population.n_users,
        config.days,
        config.era,
        config.lures_per_user_day,
        config.seed,
        shards,
        workers
    );
    if let Some(file) = &opts.fork_from {
        eprintln!("restoring from {}", file.display());
    }
    let days = config.days;
    let seed = config.seed;
    let t0 = std::time::Instant::now();
    // Crash-safety and restore machinery lives in the engine, so any of
    // its flags forces the engine path even for a single shard
    // (identical output; the engine's determinism tests pin it).
    let run = if shards > 1 || !opts.is_default() {
        let engine = ScenarioBuilder::new(config).workers(workers).sharded(shards);
        Run::Sharded(Box::new(opts.run(engine, workers).map_err(runtime)?))
    } else {
        Run::Single(Box::new(ScenarioBuilder::new(config).run()))
    };
    eprintln!("done in {:.1}s\n", t0.elapsed().as_secs_f64());

    let worlds = run.worlds();
    let s = match &run {
        Run::Single(eco) => eco.stats.clone(),
        Run::Sharded(sharded) => sharded.total_stats(),
    };
    println!("== traffic ==");
    println!("organic logins          {:>10}", s.organic_logins);
    println!("owner challenges        {:>10}  ({:.2}% FP rate)", s.organic_challenges, s.organic_challenges as f64 / s.organic_logins.max(1) as f64 * 100.0);
    println!("lures delivered         {:>10}  ({:.0}% spam-foldered)", s.lures_delivered, s.lures_spam_foldered as f64 / s.lures_delivered.max(1) as f64 * 100.0);
    println!("credentials captured    {:>10}  ({} via hijacked contacts)", s.credentials_captured, s.contact_lure_captures);

    println!("\n== hijacking ==");
    println!("sessions run            {:>10}", s.sessions_run);
    println!("successful hijacks      {:>10}", s.incidents);
    println!("exploited               {:>10}", s.exploited);
    println!("recovered               {:>10}", s.recovered);
    let population: usize = worlds.iter().map(|e| e.population.len()).sum();
    let real_incidents: usize = worlds.iter().map(|e| e.real_incidents().count()).sum();
    let rate = real_incidents as f64 / (population as f64 * days as f64) * 1e6;
    println!("rate                    {rate:>10.1}  per M active users per day");
    if let Run::Sharded(sharded) = &run {
        println!("\n== cross-shard ==");
        println!("market trades           {:>10}", sharded.market_trades);
        println!("cross-shard lures       {:>10}", sharded.cross_shard_lures);
        println!("dataset digest          {:>#18x}", sharded.dataset_digest());
    }

    // Session outcome mix.
    let mut outcomes = Breakdown::new();
    for sess in worlds.iter().flat_map(|e| e.sessions()) {
        outcomes.add(if sess.exploited {
            "exploited"
        } else if sess.logged_in {
            "abandoned after profiling"
        } else if sess.password_eventually_correct {
            "stopped at login defense"
        } else {
            "bad credentials"
        });
    }
    println!("\n== session outcomes ==");
    print!("{}", bar_chart(&outcomes, 36));

    // Hijacker IP origins (each shard resolves against its own geo).
    let mut countries = Breakdown::new();
    for eco in &worlds {
        for r in eco.login_log.records() {
            if matches!(r.actor, Actor::Hijacker(_)) {
                if let Some(c) = eco.geo.locate(r.ip) {
                    countries.add(c.code().to_string());
                }
            }
        }
    }
    println!("\n== hijacker login origins ==");
    print!("{}", bar_chart(&countries, 36));

    // Recovery latency.
    let latencies: Vec<f64> = worlds
        .iter()
        .flat_map(|e| e.real_incidents())
        .filter_map(|i| Some(i.recovered_at?.since(i.flagged_at?).as_hours_f64()))
        .collect();
    if !latencies.is_empty() {
        let e = Ecdf::new(latencies);
        println!("\n== recovery latency (hours from flagging) ==");
        println!(
            "n={}  p25 {:.1}  median {:.1}  p75 {:.1}  max {:.1}",
            e.len(),
            e.quantile(0.25),
            e.quantile(0.5),
            e.quantile(0.75),
            e.max().unwrap_or(0.0)
        );
    }

    if let Some(path) = report_path {
        std::fs::write(&path, run.report_json())
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        eprintln!("wrote {path}");
    }

    if validate {
        // Shards > 1 was rejected up front, so the run is single-world.
        if let Run::Single(eco) = &run {
            let report =
                mhw_experiments::fidelity::validate_world(eco, mhw_experiments::Scale::Full, seed);
            println!("\n{}", report.scorecard_markdown());
            println!(
                "(partial scorecard: world-derivable targets only — \
                 `repro --validate` covers all {}.)",
                mhw_experiments::fidelity::registry().len()
            );
            if let Some(path) = fidelity_out {
                std::fs::write(&path, report.to_json())
                    .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
                eprintln!("wrote {path}");
            }
        }
    }
    Ok(())
}
