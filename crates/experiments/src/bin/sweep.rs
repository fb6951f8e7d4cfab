//! `sweep` — fan a defense × recovery posture grid from one snapshot.
//!
//! ```text
//! sweep [--quick] [--seed N] [--workers N] [--out BENCH_sweep.json]
//!       [--markdown FILE] [--smoke] [--validate]
//! ```
//!
//! Builds the expensive world prefix once, freezes it as a
//! [`mhw_core::WorldSnapshot`], then forks one copy-on-write
//! continuation per grid cell via [`mhw_bench::sweep::fork_sweep`] —
//! every cell pays only its divergent tail days. The grid crosses three
//! defense postures (`full`, `no-challenge`, `none`) with three
//! recovery policies (`legacy` unscored, `paper`, `strict`), and the
//! per-cell attack-success / legitimate-lockout counts are written to
//! `--out` as a [`mhw_obs::SweepReport`] (`BENCH_sweep.json`), with the
//! frontier table printed as markdown (and written to `--markdown` when
//! given). The baseline cell (`full/legacy`) applies no divergence at
//! all, so it reproduces the paper configuration byte for byte.
//!
//! `--smoke` is the CI gate: a tiny 2×2 grid run **twice**, erroring
//! unless both passes produce identical per-cell digests and the
//! artifact re-read from `--out` agrees — determinism of the whole
//! snapshot → fork → digest pipeline in a few seconds.
//!
//! `--validate` is the fidelity gate: the baseline cell's configuration
//! is re-run from scratch as a single world, digest-checked against the
//! forked baseline cell (proving the fork reproduced the paper world
//! exactly), then scored against the world-derivable calibration
//! targets (`mhw_experiments::fidelity::validate_world` — the same
//! registry subset `repro --validate` covers for the main world). Any
//! FAILing target or digest disagreement exits 1.
//!
//! Exit status: 0 on success, 2 on a usage error, 1 on any runtime
//! failure (including smoke/validate gate misses).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mhw_bench::sweep::{fork_sweep, CellOutcome, SweepCell};
use mhw_core::{DefenseConfig, RecoveryConfig, ScenarioBuilder, ScenarioConfig};
use mhw_experiments::cli::{self, Failure};
use mhw_experiments::Scale;
use mhw_obs::{FidelityStatus, SweepCellRow, SweepReport};
use std::fmt::Write as _;

const USAGE: &str = "usage: sweep [--quick] [--seed N] [--workers N] [--out FILE]\n\
     \x20           [--markdown FILE] [--smoke] [--validate]";

fn main() {
    cli::run_main(USAGE, run);
}

/// One axis value: a display label plus the divergence it applies
/// (`None` keeps the snapshot's own configuration).
struct Axis<T> {
    label: &'static str,
    value: Option<T>,
}

/// The defense axis: the §8 ablation surface, coarsened to the three
/// postures the frontier needs.
fn defense_axis() -> Vec<Axis<DefenseConfig>> {
    let no_challenge = DefenseConfig { login_risk_analysis: false, ..DefenseConfig::default() };
    vec![
        Axis { label: "full", value: None },
        Axis { label: "no-challenge", value: Some(no_challenge) },
        Axis { label: "none", value: Some(DefenseConfig::none()) },
    ]
}

/// The recovery axis: unscored legacy pipeline, then the scored
/// postures with the adversary pivot enabled.
fn recovery_axis() -> Vec<Axis<RecoveryConfig>> {
    vec![
        Axis { label: "legacy", value: None },
        Axis { label: "paper", value: Some(RecoveryConfig::paper()) },
        Axis { label: "strict", value: Some(RecoveryConfig::strict()) },
    ]
}

/// Cross the axes into grid cells, defense-major, labelled
/// `defense/recovery`. Returns the cells plus each cell's axis labels
/// in the same order.
fn cross(
    defenses: &[Axis<DefenseConfig>],
    recoveries: &[Axis<RecoveryConfig>],
) -> (Vec<SweepCell>, Vec<(String, String)>) {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for d in defenses {
        for r in recoveries {
            let mut cell = SweepCell::baseline(format!("{}/{}", d.label, r.label));
            if let Some(defense) = d.value {
                cell = cell.defense(defense);
            }
            if let Some(recovery) = r.value {
                cell = cell.recovery(recovery);
            }
            cells.push(cell);
            labels.push((d.label.to_string(), r.label.to_string()));
        }
    }
    (cells, labels)
}

/// A tiny scenario for the `--smoke` double run: big enough that every
/// counter moves, small enough for CI.
fn smoke_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(seed);
    config.days = 8;
    config.population.n_users = 250;
    config
}

/// Freeze the prefix after `snapshot_day` and fork one continuation per
/// cell.
fn run_grid(
    config: ScenarioConfig,
    snapshot_day: u64,
    cells: &[SweepCell],
    workers: usize,
) -> Result<Vec<CellOutcome>, Failure> {
    let engine = ScenarioBuilder::new(config).workers(workers).sharded(1);
    let snapshot = engine.snapshot_after(snapshot_day).map_err(|e| Failure::Runtime(e.to_string()))?;
    fork_sweep(&snapshot, cells, workers).map_err(|e| Failure::Runtime(e.to_string()))
}

/// Assemble the report from one grid pass.
fn report_from(
    config: &ScenarioConfig,
    snapshot_day: u64,
    outcomes: &[CellOutcome],
    labels: &[(String, String)],
) -> SweepReport {
    let mut report = SweepReport::new(
        config.seed,
        config.population.n_users as u32,
        config.days as u32,
        snapshot_day,
    );
    for (outcome, (defense, recovery)) in outcomes.iter().zip(labels) {
        report.cells.push(SweepCellRow {
            label: outcome.label.clone(),
            defense: defense.clone(),
            recovery: recovery.clone(),
            seed: outcome.seed,
            digest: outcome.digest,
            incidents: outcome.incidents,
            exploited: outcome.exploited,
            pivot_attempts: outcome.pivot_attempts,
            pivot_takeovers: outcome.pivot_takeovers,
            recovery_lockouts: outcome.recovery_lockouts,
            recovery_step_ups: outcome.recovery_step_ups,
        });
    }
    report
}

fn write_file(path: &str, contents: &str) -> Result<(), Failure> {
    std::fs::write(path, contents).map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))
}

fn run(args: &[String]) -> Result<(), Failure> {
    let quick = cli::flag(args, "--quick");
    let smoke = cli::flag(args, "--smoke");
    let validate = cli::flag(args, "--validate");
    let seed = cli::value::<u64>(args, "--seed")?.unwrap_or(0x1914_2014);
    let out = cli::value::<String>(args, "--out")?.unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let markdown_out = cli::value::<String>(args, "--markdown")?;
    let workers =
        cli::value::<usize>(args, "--workers")?.unwrap_or_else(mhw_core::default_workers);

    // Scenario coordinates: the snapshot sits at ~2/3 of the run, so
    // the shared prefix dominates and each cell pays only the tail.
    let (config, scale) = if smoke {
        (smoke_config(seed), Scale::Quick)
    } else if quick {
        (ScenarioConfig::small_test(seed), Scale::Quick)
    } else {
        (ScenarioConfig::measurement(seed), Scale::Full)
    };
    let snapshot_day = (config.days * 2 / 3).max(1);

    // Smoke shrinks the grid to its 2×2 corners; the full grid crosses
    // all three postures on each axis.
    let (defenses, recoveries) = if smoke {
        (
            vec![defense_axis().remove(0), defense_axis().remove(2)],
            vec![recovery_axis().remove(0), recovery_axis().remove(2)],
        )
    } else {
        (defense_axis(), recovery_axis())
    };
    let (cells, labels) = cross(&defenses, &recoveries);

    eprintln!(
        "sweep: {} users × {} days, snapshot at day {}, {} cells ({}×{}), seed {seed:#x}, {workers} worker(s)",
        config.population.n_users,
        config.days,
        snapshot_day,
        cells.len(),
        defenses.len(),
        recoveries.len(),
    );
    let t0 = std::time::Instant::now();
    let outcomes = run_grid(config.clone(), snapshot_day, &cells, workers)?;
    eprintln!("grid done in {:.1}s", t0.elapsed().as_secs_f64());
    let report = report_from(&config, snapshot_day, &outcomes, &labels);

    if smoke {
        // Second pass from scratch: the whole snapshot → fork → digest
        // pipeline must reproduce byte-identically.
        let second = run_grid(config.clone(), snapshot_day, &cells, workers)?;
        let second_report = report_from(&config, snapshot_day, &second, &labels);
        if report.digests() != second_report.digests() {
            return Err(Failure::Runtime(format!(
                "smoke double run diverged: first {:x?}, second {:x?}",
                report.digests(),
                second_report.digests()
            )));
        }
        eprintln!("smoke: double run digests agree");
    }

    write_file(&out, &report.to_json())?;
    println!("wrote {out}");

    if smoke {
        // The artifact must survive its own round trip.
        let disk = std::fs::read_to_string(&out)
            .map_err(|e| Failure::Runtime(format!("re-reading {out}: {e}")))?;
        let back =
            SweepReport::from_json(&disk).map_err(|e| Failure::Runtime(format!("parsing {out}: {e}")))?;
        if back.digests() != report.digests() {
            return Err(Failure::Runtime(format!(
                "artifact round trip changed digests: wrote {:x?}, read {:x?}",
                report.digests(),
                back.digests()
            )));
        }
        eprintln!("smoke: artifact round trip agrees");
    }

    let frontier = report.frontier_markdown();
    println!("\n{frontier}");
    if let Some(path) = markdown_out {
        write_file(&path, &frontier)?;
    }

    if validate {
        // The baseline cell applies no divergence, so a from-scratch
        // run of the snapshot's own configuration must reproduce its
        // digest exactly — then the world it built is scored against
        // the paper's numbers.
        let baseline = report
            .cells
            .first()
            .ok_or_else(|| Failure::Runtime("empty grid".to_string()))?;
        let scratch = ScenarioBuilder::new(config.clone())
            .workers(workers)
            .sharded(1)
            .run()
            .map_err(|e| Failure::Runtime(e.to_string()))?;
        if scratch.dataset_digest() != baseline.digest {
            return Err(Failure::Runtime(format!(
                "baseline cell {} (digest {:#x}) does not reproduce the from-scratch world \
                 (digest {:#x})",
                baseline.label,
                baseline.digest,
                scratch.dataset_digest()
            )));
        }
        let worlds = scratch.shards();
        let eco = worlds
            .first()
            .ok_or_else(|| Failure::Runtime("engine returned no shards".to_string()))?;
        let fidelity = mhw_experiments::fidelity::validate_world(eco, scale, seed);
        println!(
            "validate: baseline cell digest {:#x} confirmed; fidelity {} PASS, {} WARN, {} FAIL \
             (overall {})",
            baseline.digest,
            fidelity.count(FidelityStatus::Pass),
            fidelity.count(FidelityStatus::Warn),
            fidelity.count(FidelityStatus::Fail),
            fidelity.overall(),
        );
        if fidelity.overall() == FidelityStatus::Fail {
            let mut msg = String::from("baseline cell drifted off the paper's numbers:");
            for f in fidelity.failures() {
                let _ = write!(
                    msg,
                    "\n  {} — {}: {} vs paper {}",
                    f.target, f.component, f.measured, f.paper
                );
            }
            return Err(Failure::Runtime(msg));
        }
    }
    Ok(())
}
