//! Shared experiment context: the finished simulation runs every
//! experiment reads from.

use mhw_adversary::Era;
use mhw_analysis::ComparisonTable;
use crate::cli::{self, UsageError};
use mhw_core::{
    run_decoy_experiment, run_form_campaigns, Checkpoint, DecoyReport, Ecosystem, EngineError,
    EngineResult, FaultPlan, FormCampaignOutput, ScenarioBuilder, ScenarioConfig, ShardedEngine,
    ShardedRun, WorkerPool,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// Run scale: `Quick` for tests (seconds), `Full` for the repro binary
/// (paper-scale sample sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small worlds, wide tolerance bands — the test battery.
    Quick,
    /// Paper-scale sample sizes — the default `repro` run.
    Full,
}

/// The output of one experiment.
pub struct ExperimentResult {
    /// Paper-vs-measured rows (EXPERIMENTS.md).
    pub table: ComparisonTable,
    /// Plain-text rendering of the figure/table itself.
    pub rendering: String,
}

/// All the simulation runs the experiments share.
pub struct Context {
    /// Scale the runs were built at (drives tolerance bands).
    pub scale: Scale,
    /// RNG seed every run derives from.
    pub seed: u64,
    /// The main 2012-era measurement run.
    pub eco_2012: Ecosystem,
    /// The 2011-era run for the §5.4 longitudinal comparison.
    pub eco_2011: Ecosystem,
    /// A 2012 run during the brief period crews experimented with the
    /// 2FA-lockout tactic at full intensity (Figure 12's dataset was
    /// collected exactly then).
    pub eco_lockout: Ecosystem,
    /// The §4.2 hosted-form campaign batch (Figures 3–6).
    pub forms: FormCampaignOutput,
    /// The decoy-injection outcomes of the §5.1 decoy experiment
    /// (Figure 7).
    pub decoys: DecoyReport,
}

/// The crash-safety and restore flags `repro` and `scenario` share —
/// `--checkpoint-dir` / `--checkpoint-every` / `--fault-plan` /
/// `--snapshot-at` / `--snapshot-out` / `--fork-from` / `--fork-seed` —
/// parsed once ([`EngineOptions::from_args`]) and applied to an engine
/// once ([`EngineOptions::run`]), so they compose the same way in both.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Write day-barrier checkpoints: `(directory, every N days)`.
    pub checkpoint: Option<(PathBuf, u64)>,
    /// Deterministic fault plan injected into the run.
    pub faults: Option<FaultPlan>,
    /// Freeze the run's fork point `(after day, record path)`. Under
    /// [`EngineOptions::run`] the run still completes — a same-seed
    /// fork finishes the remaining days, which the engine guarantees is
    /// byte-identical to never snapshotting at all.
    pub snapshot: Option<(u64, PathBuf)>,
    /// Restore the run at the day barrier recorded in this checkpoint
    /// or fork-point record, then run it to the end.
    pub fork_from: Option<PathBuf>,
    /// Diverge the restored run's RNG streams from the recorded
    /// barrier on (with [`EngineOptions::fork_from`]).
    pub fork_seed: Option<u64>,
}

impl EngineOptions {
    /// Parse the shared flags. A `--fault-plan` spec is resolved
    /// against the run's geometry: master `seed`, `days`, `shards`.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] for a malformed value or a combination that
    /// cannot work: `--checkpoint-every` without `--checkpoint-dir`,
    /// half of `--snapshot-at`/`--snapshot-out`, `--fork-seed` without
    /// `--fork-from` or with `--checkpoint-dir` (a diverged run's
    /// checkpoints could never be resumed), or `--snapshot-out` with
    /// `--fork-from`.
    pub fn from_args(
        args: &[String],
        seed: u64,
        days: u64,
        shards: u16,
    ) -> Result<Self, UsageError> {
        let usage = |msg: &str| Err(UsageError(msg.to_string()));
        let checkpoint_dir = cli::value::<PathBuf>(args, "--checkpoint-dir")?;
        let checkpoint_every = cli::value::<u64>(args, "--checkpoint-every")?;
        if checkpoint_every.is_some() && checkpoint_dir.is_none() {
            return usage("--checkpoint-every requires --checkpoint-dir");
        }
        let faults = match cli::value::<String>(args, "--fault-plan")? {
            None => None,
            Some(spec) => Some(FaultPlan::parse_spec(&spec, seed, days, shards).map_err(|e| {
                UsageError(format!("invalid value for --fault-plan: {e}"))
            })?),
        };
        let snapshot_at = cli::value::<u64>(args, "--snapshot-at")?;
        let snapshot_out = cli::value::<PathBuf>(args, "--snapshot-out")?;
        if snapshot_at.is_some() != snapshot_out.is_some() {
            return usage("--snapshot-at and --snapshot-out must be given together");
        }
        let fork_from = cli::value::<PathBuf>(args, "--fork-from")?;
        let fork_seed = cli::value::<u64>(args, "--fork-seed")?;
        if fork_seed.is_some() && fork_from.is_none() {
            return usage("--fork-seed requires --fork-from");
        }
        if fork_seed.is_some() && checkpoint_dir.is_some() {
            return usage(
                "--fork-seed diverges the run from the recorded barrier, and a diverged \
                 run's checkpoints could never be resumed; drop --checkpoint-dir",
            );
        }
        if snapshot_out.is_some() && fork_from.is_some() {
            return usage(
                "--snapshot-out freezes a fresh run; it cannot be combined with --fork-from",
            );
        }
        Ok(EngineOptions {
            checkpoint: checkpoint_dir.map(|dir| (dir, checkpoint_every.unwrap_or(1))),
            faults,
            snapshot: snapshot_at.zip(snapshot_out),
            fork_from,
            fork_seed,
        })
    }

    /// True when no crash-safety or restore machinery was requested.
    pub fn is_default(&self) -> bool {
        self.checkpoint.is_none()
            && self.faults.is_none()
            && self.snapshot.is_none()
            && self.fork_from.is_none()
            && self.fork_seed.is_none()
    }

    /// `engine` with the checkpoints, faults and `--fork-from` restore
    /// applied.
    pub fn configure(&self, mut engine: ShardedEngine) -> ShardedEngine {
        if let Some((dir, every)) = &self.checkpoint {
            engine = engine.checkpoint_to(dir.clone(), *every);
        }
        if let Some(file) = &self.fork_from {
            engine = engine.resume_from(file.clone());
        }
        engine.fault_plan(self.faults.clone().unwrap_or_default())
    }

    /// Run `engine` to the end under these options. Recording the fork
    /// point or diverging from the restored barrier needs a snapshot;
    /// the rest of the run is then a fork on `workers` threads that
    /// keeps the faults and checkpoints (same-seed forks are
    /// byte-identical to never snapshotting, pinned by the engine's
    /// forking tests).
    ///
    /// # Errors
    ///
    /// Any [`EngineError`] of the run (checkpoint I/O, a corrupt or
    /// mismatched restore record, an injected or organic shard panic).
    pub fn run(&self, engine: ShardedEngine, workers: usize) -> EngineResult<ShardedRun> {
        let engine = self.configure(engine);
        let freeze_at = match (&self.snapshot, &self.fork_from) {
            (Some((day, _)), _) => *day,
            (None, Some(file)) if self.fork_seed.is_some() => {
                Checkpoint::read(file)?.completed_days
            }
            _ => return engine.run(),
        };
        let snapshot = engine.snapshot_after(freeze_at)?;
        if let Some((_, path)) = &self.snapshot {
            snapshot.write_record(path)?;
        }
        let mut fork =
            snapshot.fork().workers(workers).fault_plan(self.faults.clone().unwrap_or_default());
        if let Some(seed) = self.fork_seed {
            fork = fork.seed(seed);
        }
        if let Some((dir, every)) = &self.checkpoint {
            fork = fork.checkpoint_to(dir.clone(), *every);
        }
        fork.run()
    }
}

impl Context {
    /// Build and run everything, using every core the machine offers
    /// for the independent worlds. Panics on failure (test
    /// convenience); binaries use
    /// [`try_with_options`](Self::try_with_options).
    pub fn new(scale: Scale, seed: u64) -> Self {
        Context::with_workers(scale, seed, mhw_core::default_workers())
    }

    /// Like [`new`](Self::new) with an explicit worker cap; panics on
    /// failure.
    pub fn with_workers(scale: Scale, seed: u64, workers: usize) -> Self {
        match Context::try_with_options(scale, seed, workers, &EngineOptions::default()) {
            Ok(ctx) => ctx,
            Err(e) => panic!("context build failed: {e}"),
        }
    }

    /// Build and run everything, spreading the five independent
    /// simulation runs (three worlds, the form batch, the decoy
    /// experiment) over up to `workers` threads. Each run is
    /// deterministic in its own `(config, seed)` alone, so the worker
    /// count never changes any experiment's output.
    ///
    /// With non-default [`EngineOptions`] the main 2012-era world runs
    /// through a single-shard [`ShardedEngine`] so checkpointing,
    /// restore and fault injection apply to it; the single-shard engine
    /// produces byte-identical output to the plain path (the market is
    /// disabled at this scale), so results never depend on which route
    /// was taken.
    ///
    /// # Errors
    ///
    /// Any [`EngineError`] from the main run (checkpoint I/O, corrupt
    /// or mismatched restore record, injected or organic shard panic). A
    /// panic in one of the other four runs surfaces as
    /// [`EngineError::ShardPanicked`] with the job index in `shard`.
    // The slot `expect`s below are claim-protocol invariants, not error
    // handling: job i fills slot i exactly once, and a panicking job
    // returns through the JobPanic branch before any slot is taken.
    #[allow(clippy::expect_used)]
    pub fn try_with_options(
        scale: Scale,
        seed: u64,
        workers: usize,
        opts: &EngineOptions,
    ) -> Result<Self, EngineError> {
        let (base, n_forms, n_decoys): (fn(u64) -> ScenarioConfig, usize, usize) = match scale {
            Scale::Quick => (ScenarioConfig::small_test as fn(u64) -> _, 30, 60),
            Scale::Full => (ScenarioConfig::measurement as fn(u64) -> _, 100, 200),
        };

        // The engine path for the main world runs first, on the
        // coordinator: crash-safety work is inherently serial anyway
        // (restore, barrier verification), and doing it up front keeps
        // the pool below free of fallible jobs.
        let prebuilt_2012: Option<Ecosystem> = if opts.is_default() {
            None
        } else {
            let engine = ShardedEngine::new(base(seed), 1);
            let mut shards = opts.run(engine, workers)?.into_shards();
            Some(shards.pop().expect("engine configured with one shard"))
        };

        // One slot per independent run; job index i fills slot i, so
        // the pool's work stealing is invisible to the results.
        let eco_2012 = Mutex::new(prebuilt_2012);
        let eco_2011 = Mutex::new(None);
        let eco_lockout = Mutex::new(None);
        let forms = Mutex::new(None);
        let decoy = Mutex::new(None);
        // Five independent jobs, capped at the hardware's parallelism —
        // extra CPU-bound threads on fewer cores only slow each other.
        let pool_result = WorkerPool::scoped(
            workers.clamp(1, 5).min(mhw_core::default_workers()),
            |pool| {
            pool.run(5, &|_worker, i| match i {
                0 => {
                    let mut slot = eco_2012.lock().expect("slot poisoned");
                    if slot.is_none() {
                        *slot = Some(ScenarioBuilder::new(base(seed)).run());
                    }
                }
                1 => {
                    let eco = ScenarioBuilder::new(base(seed ^ 0x2011)).era(Era::Y2011).run();
                    *eco_2011.lock().expect("slot poisoned") = Some(eco);
                }
                2 => {
                    // The 2FA-lockout burst: same era, tactic at full
                    // intensity.
                    let mut lockout = ScenarioBuilder::new(base(seed ^ 0x2fa));
                    if scale == Scale::Quick {
                        lockout = lockout.configure(|c| c.days = c.days.min(14));
                    }
                    let eco = lockout
                        .tweak_crews(|roster| {
                            for crew in &mut roster.crews {
                                if crew.spec.uses_2fa_lockout {
                                    crew.tactics.p_twofactor_lockout = 0.55;
                                }
                            }
                        })
                        .run();
                    *eco_lockout.lock().expect("slot poisoned") = Some(eco);
                }
                3 => {
                    let out = run_form_campaigns(n_forms, true, seed ^ 0xf0f0);
                    *forms.lock().expect("slot poisoned") = Some(out);
                }
                _ => {
                    let mut decoy_config = base(seed ^ 0xdec0);
                    let (_, report) = run_decoy_experiment(decoy_config.clone(), n_decoys, {
                        decoy_config.days = decoy_config.days.max(10);
                        (decoy_config.days / 2).max(3)
                    });
                    *decoy.lock().expect("slot poisoned") = Some(report);
                }
            })
        },
        );
        if let Err(p) = pool_result {
            return Err(EngineError::ShardPanicked {
                shard: p.index as u16,
                day: 0,
                payload: p.payload,
            });
        }

        let take = |slot: Mutex<Option<Ecosystem>>| {
            slot.into_inner().expect("slot poisoned").expect("world built")
        };
        Ok(Context {
            scale,
            seed,
            eco_2012: take(eco_2012),
            eco_2011: take(eco_2011),
            eco_lockout: take(eco_lockout),
            forms: forms.into_inner().expect("slot poisoned").expect("run done"),
            decoys: decoy.into_inner().expect("slot poisoned").expect("run done"),
        })
    }

    /// Tolerance width scaling: quick runs have smaller samples, so
    /// match bands widen.
    pub fn tol(&self, full: f64, quick: f64) -> f64 {
        match self.scale {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Format a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Convenience for building a comparison row with a |measured−paper| ≤
/// tol match rule on fractional values.
pub fn frac_row(
    metric: &str,
    paper_value: f64,
    measured_value: f64,
    tol: f64,
) -> mhw_analysis::Comparison {
    mhw_analysis::Comparison::new(
        metric,
        pct(paper_value),
        pct(measured_value),
        (measured_value - paper_value).abs() <= tol,
        format!("tolerance ±{:.0}pp", tol * 100.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds() {
        let ctx = Context::new(Scale::Quick, 0xAB);
        assert!(ctx.eco_2012.stats.incidents > 0);
        assert!(ctx.eco_2011.stats.incidents > 0);
        assert!(!ctx.forms.pages.is_empty());
        assert_eq!(ctx.decoys.outcomes.len(), 60);
        assert!(ctx.tol(0.05, 0.15) > ctx.tol(0.05, 0.15) - 1.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.2091), "20.9%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn frac_row_match_rule() {
        let ok = frac_row("x", 0.20, 0.22, 0.05);
        assert!(ok.matches);
        let bad = frac_row("x", 0.20, 0.30, 0.05);
        assert!(!bad.matches);
    }
}
