//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [--quick] [--seed N] [--workers N] [--out EXPERIMENTS.md]
//!       [--report run-report.json]
//!       [--validate] [--fidelity-out FIDELITY.json] [--scorecard FIDELITY.md]
//!       [--checkpoint-dir DIR] [--checkpoint-every N] [--fault-plan SPEC]
//!       [--snapshot-at DAY --snapshot-out FILE]
//!       [--fork-from FILE] [--fork-seed N]
//! ```
//!
//! Runs the full experiment battery against freshly simulated worlds,
//! prints each figure/table as text, and writes the paper-vs-measured
//! comparison to the output markdown file. With `--report`, also writes
//! the 2012-era world's deterministic [`mhw_obs::RunReport`] as JSON —
//! byte-identical for a fixed seed and scale. `--workers` caps how many
//! threads build the independent worlds (default: all cores); it is
//! pure mechanics and never changes any result.
//!
//! With `--validate`, the battery is skipped: the same worlds are
//! measured against the calibration-target registry
//! (`mhw_experiments::fidelity`) and the deterministic scorecard is
//! written to `--fidelity-out` (JSON, default `FIDELITY.json`) and
//! `--scorecard` (markdown, default `FIDELITY.md`). The process exits 1
//! when any target FAILs, so CI can gate on it directly.
//!
//! The crash-safety and restore flags apply to the main 2012-era run
//! and compose freely (see `docs/REPRODUCING.md`): `--checkpoint-dir
//! DIR` writes day-barrier checkpoints there (every
//! `--checkpoint-every` days, default 1) and `--fault-plan SPEC`
//! injects deterministic faults. `--fork-from FILE` restores the run at
//! the day barrier recorded in a checkpoint or fork-point record: the
//! record's identity is checked before anything is built, the prefix
//! is re-simulated fault-free and digest-verified against the record,
//! and the run continues under its own checkpoints and faults.
//! `--fork-seed N` diverges the restored run's RNG from the barrier
//! onward (a diverged run cannot write resumable checkpoints, so it
//! cannot be combined with `--checkpoint-dir`). `--snapshot-at DAY
//! --snapshot-out FILE` records the fork point after `DAY` complete
//! days; the battery still runs to completion — finishing via a
//! same-seed fork is byte-identical to never snapshotting. Exit status:
//! 0 on success, 2 on a usage error, 1 on any runtime failure.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mhw_core::ScenarioConfig;
use mhw_experiments::cli::{self, Failure};
use mhw_experiments::context::EngineOptions;
use mhw_experiments::{all_experiments, Context, Scale};
use std::fmt::Write as _;

const USAGE: &str = "usage: repro [--quick] [--seed N] [--workers N] [--out FILE] [--report FILE]\n\
     \x20            [--validate] [--fidelity-out FILE] [--scorecard FILE]\n\
     \x20            [--checkpoint-dir DIR] [--checkpoint-every N] [--fault-plan SPEC]\n\
     \x20            [--snapshot-at DAY --snapshot-out FILE]\n\
     \x20            [--fork-from FILE] [--fork-seed N]";

fn main() {
    cli::run_main(USAGE, run);
}

fn run(args: &[String]) -> Result<(), Failure> {
    let quick = cli::flag(args, "--quick");
    let seed = cli::value::<u64>(args, "--seed")?.unwrap_or(0x1914_2014);
    let out_path =
        cli::value::<String>(args, "--out")?.unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    let report_path = cli::value::<String>(args, "--report")?;
    let validate = cli::flag(args, "--validate");
    let fidelity_out =
        cli::value::<String>(args, "--fidelity-out")?.unwrap_or_else(|| "FIDELITY.json".to_string());
    let scorecard_out =
        cli::value::<String>(args, "--scorecard")?.unwrap_or_else(|| "FIDELITY.md".to_string());
    let workers =
        cli::value::<usize>(args, "--workers")?.unwrap_or_else(mhw_core::default_workers);
    let scale = if quick { Scale::Quick } else { Scale::Full };

    // The crash-safety and restore flags drive the main run: one
    // logical shard, the scale's configured day count.
    let main_days = match scale {
        Scale::Quick => ScenarioConfig::small_test(seed).days,
        Scale::Full => ScenarioConfig::measurement(seed).days,
    };
    let opts = EngineOptions::from_args(args, seed, main_days, 1)?;

    eprintln!("building context (scale {scale:?}, seed {seed:#x}, {workers} workers) …");
    let start = std::time::Instant::now();
    let ctx = Context::try_with_options(scale, seed, workers, &opts)
        .map_err(|e| Failure::Runtime(e.to_string()))?;
    eprintln!("context ready in {:.1}s", start.elapsed().as_secs_f64());

    if validate {
        let report = mhw_experiments::fidelity::validate(&ctx);
        std::fs::write(&fidelity_out, report.to_json())
            .map_err(|e| Failure::Runtime(format!("writing {fidelity_out}: {e}")))?;
        std::fs::write(&scorecard_out, report.scorecard_markdown())
            .map_err(|e| Failure::Runtime(format!("writing {scorecard_out}: {e}")))?;
        println!(
            "fidelity: {} PASS, {} WARN, {} FAIL across {} targets (overall {})",
            report.count(mhw_obs::FidelityStatus::Pass),
            report.count(mhw_obs::FidelityStatus::Warn),
            report.count(mhw_obs::FidelityStatus::Fail),
            report.target_ids().len(),
            report.overall(),
        );
        println!("wrote {fidelity_out}\nwrote {scorecard_out}");
        if report.overall() == mhw_obs::FidelityStatus::Fail {
            let mut msg = String::from("fidelity targets FAILed:");
            for f in report.failures() {
                let _ = write!(msg, "\n  {} — {}: {} vs paper {}", f.target, f.component, f.measured, f.paper);
            }
            return Err(Failure::Runtime(msg));
        }
        return Ok(());
    }

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs measured\n\n\
         Reproduction of *Handcrafted Fraud and Extortion: Manual Account \
         Hijacking in the Wild* (IMC 2014).\n\n\
         Generated by `cargo run -p mhw-experiments --bin repro{}` \
         (seed `{seed:#x}`). Absolute sample sizes differ from the paper by \
         design (the attack-volume knob is cranked for statistical power; \
         see DESIGN.md §4); every row compares the paper's *published value \
         or shape* against the measured one, with the tolerance used.\n",
        if quick { " -- --quick" } else { "" }
    );

    let mut matched = 0usize;
    let mut total = 0usize;
    for (name, runner) in all_experiments() {
        eprintln!("running {name} …");
        let t = std::time::Instant::now();
        let result = runner(&ctx);
        println!("\n================================================================");
        println!("{name}   [{:.1}s]", t.elapsed().as_secs_f64());
        println!("================================================================");
        println!("{}", result.rendering);
        for row in &result.table.rows {
            println!(
                "  [{}] {}: paper {} | measured {}  ({})",
                if row.matches { "ok" } else { "MISS" },
                row.metric,
                row.paper,
                row.measured,
                row.note
            );
            matched += row.matches as usize;
            total += 1;
        }
        md.push_str(&result.table.to_markdown());
        md.push('\n');
    }

    let _ = writeln!(md, "---\n\n**{matched}/{total} comparison rows within tolerance.**");
    std::fs::write(&out_path, &md)
        .map_err(|e| Failure::Runtime(format!("writing {out_path}: {e}")))?;
    println!("\n{matched}/{total} comparison rows within tolerance.");
    println!("wrote {out_path}");

    if let Some(path) = report_path {
        let report = ctx.eco_2012.run_report();
        std::fs::write(&path, report.to_json())
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}
