//! Fork-sweep driver: fan a grid of divergent continuations from one
//! frozen [`WorldSnapshot`] across a [`WorkerPool`].
//!
//! A parameter sweep (4 seeds x 4 defense postures, say) repeats the
//! same expensive prefix — build the population, warm up user state,
//! simulate the undiverged days — once per cell. The fork driver pays
//! for that prefix once: [`fork_sweep`] forks one copy-on-write
//! continuation per cell from a shared snapshot, so each cell costs
//! O(clone + tail days) instead of O(build + all days).
//!
//! Cells are fanned over the pool while each cell's engine runs
//! single-worker — the sweep is embarrassingly parallel at cell
//! granularity, and nesting a pool per cell would oversubscribe the
//! host. Outcomes come back in cell order regardless of scheduling,
//! and a cell's digest never depends on the pool width.
//!
//! Each cell reports two separate timings: `run_s` (forking and
//! simulating the tail days) and `digest_s` (digesting the finished
//! dataset and extracting stats). The finished run is dropped inside
//! the cell, so a 16-cell sweep never holds 16 worlds at once.

use mhw_core::{DefenseConfig, EngineResult, RecoveryConfig, WorkerPool, WorldSnapshot};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One cell of a sweep grid: a label plus the divergence applied to
/// its continuation. A `None` field keeps the snapshot's own value, so
/// `SweepCell::baseline` reproduces the uninterrupted run byte for
/// byte.
///
/// ```
/// use mhw_bench::sweep::SweepCell;
/// use mhw_core::{DefenseConfig, RecoveryConfig};
///
/// // A defense × recovery grid is cells with each axis set (or left
/// // as the snapshot's own value for the baseline):
/// let cells = vec![
///     SweepCell::baseline("full/legacy"),
///     SweepCell::baseline("full/strict").recovery(RecoveryConfig::strict()),
///     SweepCell::baseline("none/strict")
///         .defense(DefenseConfig::none())
///         .recovery(RecoveryConfig::strict()),
/// ];
/// assert_eq!(cells[0].defense, None); // baseline keeps the snapshot's
/// assert!(cells[2].defense.is_some() && cells[2].recovery.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Human-readable cell name carried into the outcome row.
    pub label: String,
    /// Divergent RNG seed, or `None` to keep the snapshot's seed.
    pub seed: Option<u64>,
    /// Divergent defense posture, or `None` to keep the snapshot's.
    pub defense: Option<DefenseConfig>,
    /// Divergent recovery risk policy, or `None` to keep the
    /// snapshot's.
    pub recovery: Option<RecoveryConfig>,
}

impl SweepCell {
    /// A cell that reproduces the snapshot's own run unchanged.
    pub fn baseline(label: impl Into<String>) -> Self {
        SweepCell { label: label.into(), seed: None, defense: None, recovery: None }
    }

    /// Diverge this cell's RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Diverge this cell's defense posture.
    pub fn defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = Some(defense);
        self
    }

    /// Diverge this cell's recovery risk policy (claim-scoring posture
    /// + adversary pivot).
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }
}

/// The measured outcome of one sweep cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's label, copied from its [`SweepCell`].
    pub label: String,
    /// The seed the cell actually ran with.
    pub seed: u64,
    /// Dataset digest of the finished run
    /// ([`ShardedRun::dataset_digest`](mhw_core::ShardedRun::dataset_digest)):
    /// one FNV-1a chain over the merged `(at, shard, seq)` order, so it
    /// does not depend on the worker count or the pool width.
    pub digest: u64,
    /// Total hijacking incidents across shards.
    pub incidents: u64,
    /// Incidents the hijacker exploited before losing access.
    pub exploited: u64,
    /// Owner recovery claims denied by claim risk scoring (the
    /// frontier's legitimate-lockout cost; 0 with scoring off).
    pub recovery_lockouts: u64,
    /// Owner claims that hit a step-up challenge.
    pub recovery_step_ups: u64,
    /// Hijacker recovery-pivot claims filed (0 with the pivot off).
    pub pivot_attempts: u64,
    /// Pivot claims that took the account over.
    pub pivot_takeovers: u64,
    /// Wall-clock seconds producing the finished run: the fork and its
    /// tail days.
    pub run_s: f64,
    /// Wall-clock seconds digesting the dataset and extracting stats,
    /// reported apart from `run_s` so production and consumption cost
    /// can be read separately.
    pub digest_s: f64,
}

/// Fork one continuation per cell from `snapshot` and fan the cells
/// across a pool of `pool_workers` threads. Every fork is
/// digest-verified at the fork point before diverging (see
/// [`WorldSnapshot::fork`]), so a corrupted clone surfaces as
/// `EngineError::CheckpointMismatch` rather than silently wrong data.
/// Outcomes come back in cell order; the first engine error (by cell
/// index) is propagated, and a panicking cell re-panics on the caller.
pub fn fork_sweep(
    snapshot: &WorldSnapshot,
    cells: &[SweepCell],
    pool_workers: usize,
) -> EngineResult<Vec<CellOutcome>> {
    let slots: Vec<Mutex<Option<EngineResult<CellOutcome>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    WorkerPool::scoped(pool_workers, |pool| {
        pool.run(cells.len(), &|_worker, i| {
            let cell = &cells[i];
            let t0 = Instant::now();
            let mut fork = snapshot.fork().workers(1);
            if let Some(seed) = cell.seed {
                fork = fork.seed(seed);
            }
            if let Some(defense) = cell.defense {
                fork = fork.defense(defense);
            }
            if let Some(recovery) = cell.recovery {
                fork = fork.recovery(recovery);
            }
            let result = fork.run().map(|run| {
                let run_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let digest = run.dataset_digest();
                let stats = run.total_stats();
                CellOutcome {
                    label: cell.label.clone(),
                    seed: cell.seed.unwrap_or(snapshot.seed()),
                    digest,
                    incidents: stats.incidents,
                    exploited: stats.exploited,
                    recovery_lockouts: stats.recovery_lockouts,
                    recovery_step_ups: stats.recovery_step_ups,
                    pivot_attempts: stats.pivot_attempts,
                    pivot_takeovers: stats.pivot_takeovers,
                    run_s,
                    digest_s: t1.elapsed().as_secs_f64(),
                }
            });
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        })
    })
    .unwrap_or_else(|job| panic!("sweep cell {} panicked: {}", job.index, job.payload));
    let mut outcomes = Vec::with_capacity(cells.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(cell_outcome)) => outcomes.push(cell_outcome),
            Some(Err(err)) => return Err(err),
            None => unreachable!("worker pool finished without filling every cell"),
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_core::{ScenarioConfig, ShardedEngine};

    fn config(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::small_test(seed);
        config.days = 6;
        config.population.n_users = 120;
        config.market_share = 0.3;
        config
    }

    fn engine(seed: u64) -> ShardedEngine {
        ShardedEngine::new(config(seed), 2).workers(1).decoys(4, 6)
    }

    #[test]
    fn fork_sweep_baseline_matches_scratch_and_orders_outcomes() {
        let snap = engine(7).snapshot_after(4).expect("snapshot");
        let cells = vec![
            SweepCell::baseline("baseline"),
            SweepCell::baseline("reseeded").seed(0xFEED),
            SweepCell::baseline("undefended").defense(DefenseConfig::none()),
            SweepCell::baseline("strict-recovery").recovery(RecoveryConfig::strict()),
        ];
        let forked = fork_sweep(&snap, &cells, 2).expect("fork sweep");
        let scratch = engine(7).run().expect("from-scratch run");
        assert_eq!(forked.len(), 4);
        for (cell, row) in cells.iter().zip(&forked) {
            assert_eq!(row.label, cell.label, "outcomes came back out of cell order");
        }
        // The baseline fork reproduces the from-scratch world exactly.
        assert_eq!(forked[0].digest, scratch.dataset_digest());
        assert_eq!(forked[0].seed, 7);
        // Divergent cells actually diverged.
        assert_ne!(forked[1].digest, forked[0].digest);
        assert_ne!(forked[2].digest, forked[0].digest);
        assert_ne!(forked[3].digest, forked[0].digest, "recovery divergence must bite");
        // Pool width is mechanics: same outcomes single-threaded.
        let single = fork_sweep(&snap, &cells, 1).expect("single-worker sweep");
        for (a, b) in forked.iter().zip(&single) {
            assert_eq!(a.digest, b.digest);
        }
    }
}
