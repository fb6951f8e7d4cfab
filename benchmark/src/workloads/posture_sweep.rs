//! `posture-sweep`: a 3 seed × 3 defense × 3 recovery grid of forked
//! continuations, as the `sweep` binary runs them: `snapshot_after`,
//! then `mhw_bench::sweep::fork_sweep` on one pool worker.
//!
//! This is the only workload where the snapshot clone, the digest check
//! at the fork point, scored recovery postures and the adversary's
//! recovery pivot run.
//!
//! The frozen world is the same in every run: it is built from
//! [`WORLD_SEED`] and snapshotted at day [`SNAPSHOT_DAY`]. Worlds this
//! small differ in cost by about ±14% from one seed to the next, which
//! would swamp what this workload measures: forking one world and
//! continuing it. The run's seed picks the continuations: two of the
//! three seed-axis values are derived from it, and the third keeps the
//! snapshot's own, so that block reproduces the uninterrupted run.
//!
//! The first cells forked in a process run on a cold heap and are
//! markedly slower, so that block is forked once and discarded before
//! the measured sweeps.

use super::{counter, fold, ratio, repeat_for, Check, Outcome, Params, Repeats};
use crate::stats;
use crate::trace::Tracer;
use mhw_bench::sweep::{fork_sweep, CellOutcome, SweepCell};
use mhw_core::{DefenseConfig, RecoveryConfig, ScenarioBuilder, ScenarioConfig, WorldSnapshot};
use std::time::Instant;

pub const USERS: usize = 300;
pub const DAYS: u64 = 15;
pub const SNAPSHOT_DAY: u64 = 10;
/// The seed of the frozen world.
pub const WORLD_SEED: u64 = 0x5EED;
/// Snapshots taken per run, to sample set-up time.
const SNAPSHOTS: usize = 5;
/// Cells per seed-axis value: 3 defense × 3 recovery postures.
const BLOCK: usize = 9;

fn config() -> ScenarioConfig {
    let mut config = ScenarioConfig::measurement(WORLD_SEED);
    config.population.n_users = USERS;
    config.days = DAYS;
    config
}

/// The grid, seed-major. The first block keeps the snapshot's seed, and
/// its first cell diverges nothing: it must reproduce the uninterrupted
/// run.
fn cells(seed: u64) -> Vec<SweepCell> {
    let no_challenge = DefenseConfig {
        login_risk_analysis: false,
        ..DefenseConfig::default()
    };
    let defenses = [
        ("full", None),
        ("no-challenge", Some(no_challenge)),
        ("none", Some(DefenseConfig::none())),
    ];
    let recoveries = [
        ("legacy", None),
        ("paper", Some(RecoveryConfig::paper())),
        ("strict", Some(RecoveryConfig::strict())),
    ];
    let seeds = [None, Some(fold([seed, 1])), Some(fold([seed, 2]))];
    let mut cells = Vec::new();
    for (k, s) in seeds.iter().enumerate() {
        for (d_label, d) in &defenses {
            for (r_label, r) in &recoveries {
                let mut cell = SweepCell::baseline(format!("s{k}/{d_label}/{r_label}"));
                if let Some(s) = s {
                    cell = cell.seed(*s);
                }
                if let Some(d) = d {
                    cell = cell.defense(*d);
                }
                if let Some(r) = r {
                    cell = cell.recovery(*r);
                }
                cells.push(cell);
            }
        }
    }
    cells
}

fn snapshot() -> Result<WorldSnapshot, String> {
    ScenarioBuilder::new(config())
        .workers(1)
        .sharded(1)
        .snapshot_after(SNAPSHOT_DAY)
        .map_err(|e| format!("posture-sweep snapshot failed: {e}"))
}

/// One sweep over every cell in one `fork_sweep` call, as the `sweep`
/// binary makes it.
struct Sweep {
    outcomes: Vec<CellOutcome>,
    wall_s: f64,
}

impl Sweep {
    fn cells_per_s(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall_s
    }

    /// Each cell's time as `fork_sweep` took it: fork and tail days,
    /// then the dataset digest, µs.
    fn cell_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.outcomes.iter().map(|o| (o.run_s + o.digest_s) * 1e6)
    }

    /// Cell digests and outcome counters, folded in cell order.
    fn fingerprint(&self) -> u64 {
        fold(self.outcomes.iter().flat_map(|o| {
            [
                o.digest,
                o.incidents,
                o.exploited,
                o.recovery_lockouts,
                o.recovery_step_ups,
                o.pivot_attempts,
                o.pivot_takeovers,
            ]
        }))
    }
}

fn sweep(snap: &WorldSnapshot, cells: &[SweepCell]) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let outcomes = fork_sweep(snap, cells, 1).map_err(|e| format!("fork_sweep failed: {e}"))?;
    Ok(Sweep {
        outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Layer counters of a traced sweep, summed over its cells.
const COUNTERS: [&str; 8] = [
    "identity.login_attempts",
    "identity.challenges_issued",
    "adversary.sessions_run",
    "adversary.sessions_exploited",
    "recovery.claims_filed",
    "recovery.claims_denied",
    "recovery.pivot_claims",
    "recovery.pivot_takeovers",
];

/// One traced sweep. `fork_sweep` drops each cell's run, so its layer
/// counters cannot be read through it: this sweep makes, cell by cell,
/// the calls `fork_sweep` makes (`WorldSnapshot::fork`, the cell's
/// divergence, `run`, `dataset_digest`) under spans, and reads each
/// run's `metrics_snapshot`. Its digests must equal the timed sweep's.
struct TracedSweep {
    cells_per_s: f64,
    digests: Vec<u64>,
    run_ms: Vec<f64>,
    digest_ms: Vec<f64>,
    totals: [f64; COUNTERS.len()],
}

fn traced_sweep(
    snap: &WorldSnapshot,
    cells: &[SweepCell],
    t: &mut Tracer,
) -> Result<TracedSweep, String> {
    let mut s = TracedSweep {
        cells_per_s: 0.0,
        digests: Vec::with_capacity(cells.len()),
        run_ms: Vec::with_capacity(cells.len()),
        digest_ms: Vec::with_capacity(cells.len()),
        totals: [0.0; COUNTERS.len()],
    };
    let t0 = Instant::now();
    for (i, cell) in cells.iter().enumerate() {
        let id = i as u64;
        t.begin("sweep cell", "core", id);
        t.begin("WorldSnapshot::fork + run", "core", id);
        let mut fork = snap.fork().workers(1);
        if let Some(seed) = cell.seed {
            fork = fork.seed(seed);
        }
        if let Some(defense) = cell.defense {
            fork = fork.defense(defense);
        }
        if let Some(recovery) = cell.recovery {
            fork = fork.recovery(recovery);
        }
        let run = fork
            .run()
            .map_err(|e| format!("cell {} failed: {e}", cell.label))?;
        s.run_ms.push(t.end() as f64 / 1e6);
        t.begin("ShardedRun::dataset_digest", "core", id);
        s.digests.push(run.dataset_digest());
        s.digest_ms.push(t.end() as f64 / 1e6);
        t.begin("ShardedRun::metrics_snapshot", "core", id);
        let snapshot = run.metrics_snapshot();
        t.end();
        for (total, name) in s.totals.iter_mut().zip(COUNTERS) {
            *total += counter(&snapshot, name);
        }
        t.end();
    }
    s.cells_per_s = cells.len() as f64 / t0.elapsed().as_secs_f64();
    Ok(s)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cells = cells(p.seed);
    let n_cells = cells.len() as u64;

    let mut setup_s = Vec::new();
    let mut snap = None;
    let mut snapshots = Repeats::default();
    for _ in 0..SNAPSHOTS {
        drop(snap.take()); // free the previous snapshot before the next
        let t0 = Instant::now();
        let s = snapshot()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        snapshots.observe(
            mhw_types::fnv::digest(format!("{:?}", s.checkpoint()).as_bytes()),
            0,
        );
        snap = Some(s);
    }
    let snap = snap.expect("at least one snapshot");
    out.checks.push(snapshots.check("snapshot checkpoints"));

    // Warm-up, discarded: the first block of cells.
    sweep(&snap, &cells[..BLOCK])?;

    let mut repeats = Repeats::default();
    let (mut throughput, mut latency_us) = (Vec::new(), Vec::new());
    let mut first: Option<Sweep> = None;
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    repeat_for(budget, || {
        let s = sweep(&snap, &cells)?;
        throughput.push(s.cells_per_s());
        latency_us.extend(s.cell_us());
        repeats.observe(s.fingerprint(), n_cells);
        out.attempted += n_cells;
        first.get_or_insert(s);
        Ok(())
    })?;
    let first = first.expect("repeat_for runs at least one sweep");

    if p.trace {
        let mut tracer = Tracer::new();
        let swept: Vec<u64> = first.outcomes.iter().map(|o| o.digest).collect();
        let (mut differing, mut sweeps, mut last) = (0, 0, None);
        repeat_for(p.seconds / 2.0, || {
            let s = traced_sweep(&snap, &cells, &mut tracer)?;
            out.traced_throughput.push(s.cells_per_s);
            out.attempted += n_cells;
            if s.digests != swept {
                differing += 1;
                out.failed += n_cells;
            }
            sweeps += 1;
            last = Some(s);
            Ok(())
        })?;
        out.checks.push(Check::new(
            "traced forks reproduce the swept cells",
            differing == 0,
            format!("{differing} of {sweeps} traced sweeps differ"),
        ));
        let s = last.expect("repeat_for runs at least one sweep");
        let [attempts, challenges, sessions, exploited, filed, denied, pivots, takeovers] =
            s.totals;
        out.layer("core.snapshot_ms", stats::median(&setup_s) * 1e3, "ms");
        out.layer("core.fork_run_ms_p50", stats::median(&s.run_ms), "ms");
        out.layer("core.dataset_digest_ms", stats::median(&s.digest_ms), "ms");
        out.layer("identity.login_attempts", attempts, "count");
        out.layer("identity.challenges_issued", challenges, "count");
        out.layer("adversary.sessions_run", sessions, "count");
        out.layer(
            "adversary.exploit_ratio",
            ratio(exploited, sessions),
            "ratio",
        );
        out.layer("recovery.claims_filed", filed, "count");
        out.layer("recovery.claims_denied", denied, "count");
        out.layer("recovery.pivot_claims", pivots, "count");
        out.layer("recovery.pivot_takeovers", takeovers, "count");
        out.tracer = Some(tracer);
    }

    // Outside the timed phase, with the snapshot freed: the undiverged
    // cell must equal the uninterrupted run, as `sweep --validate`
    // checks.
    drop(snap);
    let scratch = ScenarioBuilder::new(config())
        .workers(1)
        .sharded(1)
        .run()
        .map_err(|e| format!("uninterrupted run failed: {e}"))?
        .dataset_digest();
    let baseline = first.outcomes[0].digest;
    out.checks.push(Check::new(
        "baseline cell equals the uninterrupted run",
        baseline == scratch,
        format!("cell {baseline:#018x}, uninterrupted {scratch:#018x}"),
    ));

    out.checks
        .push(repeats.check("cell digests and outcome counters"));
    out.failed += repeats.failed_items;
    out.digest = repeats.fingerprint();
    out.timed.setup_s = setup_s;
    out.timed.throughput = throughput;
    out.timed.throughput_of = "cells/s";
    out.timed.latency_us = latency_us;
    out.timed.latency_of = "cell (fork, tail days, dataset digest)";
    Ok(out)
}
