//! Copy-on-write world forking: determinism and divergence.
//!
//! The fork contract mirrors the resume contract (tests/chaos.rs):
//! forking a continuation with the snapshot's own seed and config must
//! reproduce the uninterrupted run's dataset **byte for byte**, at any
//! worker count — a fork is an optimization, never a semantic. A fork
//! that diverges (seed or defense config) must produce a different
//! dataset, and the divergence must itself be deterministic.

use mhw_core::{
    DefenseConfig, RecoveryConfig, ScenarioBuilder, ScenarioConfig, ShardedEngine, WorldSnapshot,
};
use mhw_types::EngineError;

/// A small sharded scenario with every cross-shard mechanism active:
/// market trades, contact-graph spillover, decoy probes.
fn scenario(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::small_test(seed);
    config.days = 8;
    config.population.n_users = 160;
    config.market_share = 0.3;
    config
}

fn engine(seed: u64) -> ShardedEngine {
    ShardedEngine::new(scenario(seed), 3).workers(1).decoys(6, 8)
}

fn snapshot(seed: u64, day: u64) -> WorldSnapshot {
    engine(seed).snapshot_after(day).expect("snapshot")
}

#[test]
fn same_config_fork_reproduces_uninterrupted_run_byte_for_byte() {
    let full = engine(41).run().expect("uninterrupted run");
    let snap = snapshot(41, 5);

    for workers in [1usize, 4] {
        let forked = snap.fork().workers(workers).run().expect("forked run");
        assert_eq!(
            forked.dataset_digest(),
            full.dataset_digest(),
            "fork at {workers} workers diverged from the uninterrupted run"
        );
        // The full report — metrics included — must be indistinguishable.
        let full_report = serde_json::to_string(&full.run_report()).expect("report");
        let fork_report = serde_json::to_string(&forked.run_report()).expect("report");
        assert_eq!(fork_report, full_report, "forked report differs at {workers} workers");
    }
}

#[test]
fn n_continuations_from_one_snapshot_all_reproduce() {
    let full_digest = engine(42).run().expect("uninterrupted run").dataset_digest();
    let snap = snapshot(42, 4);
    for _ in 0..3 {
        let forked = snap.fork().workers(1).run().expect("forked run");
        assert_eq!(forked.dataset_digest(), full_digest, "a later fork diverged");
    }
}

#[test]
fn fork_from_builder_entry_point_matches_snapshot_fork() {
    let snap = snapshot(43, 4);
    let a = ScenarioBuilder::fork_from(&snap).workers(1).run().expect("fork_from");
    let b = snap.fork().workers(1).run().expect("fork");
    assert_eq!(a.dataset_digest(), b.dataset_digest());
}

#[test]
fn divergent_seed_fork_differs_and_is_deterministic() {
    let snap = snapshot(44, 4);
    let baseline = snap.fork().workers(1).run().expect("baseline fork");
    let diverged = snap.fork().seed(0xD1CE).workers(1).run().expect("seed fork");
    assert_ne!(
        diverged.dataset_digest(),
        baseline.dataset_digest(),
        "a divergent-seed fork must produce a different dataset"
    );
    // Same (snapshot, seed) pair ⇒ same divergent world.
    let again = snap.fork().seed(0xD1CE).workers(4).run().expect("seed fork again");
    assert_eq!(
        again.dataset_digest(),
        diverged.dataset_digest(),
        "divergent forks must themselves be deterministic across worker counts"
    );
    // Forking with the snapshot's own seed is a no-op.
    let same = snap.fork().seed(snap.seed()).workers(1).run().expect("same-seed fork");
    assert_eq!(same.dataset_digest(), baseline.dataset_digest());
}

#[test]
fn divergent_defense_fork_differs() {
    let snap = snapshot(45, 4);
    let defended = snap.fork().workers(1).run().expect("defended fork");
    let undefended =
        snap.fork().defense(DefenseConfig::none()).workers(1).run().expect("undefended fork");
    assert_ne!(
        undefended.dataset_digest(),
        defended.dataset_digest(),
        "dropping every defense must change the dataset"
    );
    // Hijacking should not get *harder* without defenses.
    assert!(
        undefended.total_stats().exploited >= defended.total_stats().exploited,
        "undefended world produced fewer exploited incidents than the defended one"
    );
}

#[test]
fn fork_verification_names_first_divergent_field() {
    let snap = snapshot(46, 4);
    // A doctored record must be rejected with the resume taxonomy.
    let mut doctored = snap.checkpoint().clone();
    doctored.market_trades += 1;
    let err = snap.verify_record(&doctored, "<test>").expect_err("doctored record accepted");
    match err {
        EngineError::CheckpointMismatch { field, .. } => {
            assert_eq!(field, "market_trades", "wrong field named: {field}");
        }
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    // The genuine record verifies.
    snap.verify_record(&snap.checkpoint().clone(), "<test>").expect("genuine record rejected");
}

#[test]
fn fork_verification_rejects_a_record_missing_a_shard_entry() {
    let snap = snapshot(46, 4);
    let mut short = snap.checkpoint().clone();
    short.shards.pop();
    let err = snap.verify_record(&short, "<test>").expect_err("short record accepted");
    match err {
        EngineError::CheckpointMismatch { field, .. } => assert_eq!(field, "shards.len"),
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
}

#[test]
fn only_a_same_config_fork_writes_resumable_checkpoints() {
    let snap = snapshot(49, 4);
    let dir = std::env::temp_dir().join(format!("mhw-fork-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A diverged fork never ran days 0..4 under its own config, so a
    // checkpoint it wrote could not be resumed: it is refused up front.
    let diverged = [
        snap.fork().seed(0xD1CE),
        snap.fork().defense(DefenseConfig::none()),
        snap.fork().recovery(RecoveryConfig::strict()),
    ];
    for fork in diverged {
        let err = fork.workers(1).checkpoint_to(&dir, 2).run().expect_err("diverged fork");
        assert!(matches!(err, EngineError::InvalidConfig { .. }), "got {err:?}");
    }
    assert!(!dir.exists(), "a refused fork wrote into its checkpoint dir");

    // A same-config fork's checkpoint resumes to the uninterrupted run.
    let full = engine(49).run().expect("uninterrupted run").dataset_digest();
    let forked =
        snap.fork().seed(snap.seed()).workers(1).checkpoint_to(&dir, 2).run().expect("fork");
    assert_eq!(forked.dataset_digest(), full);
    let resumed = engine(49)
        .resume_from(dir.join("ckpt-day00006.mhw"))
        .run()
        .expect("resume from the fork's checkpoint");
    assert_eq!(resumed.dataset_digest(), full);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_rejects_out_of_range_days() {
    for day in [0u64, 8, 99] {
        let err = engine(47).snapshot_after(day).expect_err("out-of-range snapshot day");
        assert!(
            matches!(err, EngineError::InvalidConfig { .. }),
            "expected InvalidConfig for day {day}, got {err:?}"
        );
    }
}

#[test]
fn snapshot_record_round_trips_through_disk() {
    let snap = snapshot(48, 3);
    let dir = std::env::temp_dir().join("mhw-fork-record-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fork-point.mhw");
    snap.write_record(&path).expect("write record");
    let read = mhw_core::Checkpoint::read(&path).expect("read record");
    snap.verify_record(&read, &path.display().to_string()).expect("round-tripped record");
    let _ = std::fs::remove_dir_all(&dir);
}
