//! The crash-safety contract: panic isolation, checkpoint/resume
//! determinism, corrupt-checkpoint rejection, and fault-schedule
//! reproducibility.
//!
//! The load-bearing test is
//! `resume_reproduces_the_uninterrupted_run_byte_for_byte`: a run
//! killed mid-flight and resumed from its last checkpoint must produce
//! the same dataset digest and the same serialized run report as a run
//! that never crashed — at any worker count.

use manual_hijacking_wild::core::checkpoint;
use manual_hijacking_wild::core::engine::{
    M_CHECKPOINTS_RESTORED, M_CHECKPOINTS_WRITTEN, M_CHECKPOINT_RETRIES, M_FAULTS_INJECTED,
    M_PANICS_CAUGHT,
};
use manual_hijacking_wild::prelude::*;
use manual_hijacking_wild::types::CheckpointOp;
use std::path::PathBuf;

/// The same small sharded scenario `tests/sharding.rs` pins its
/// determinism contract on: every cross-shard path is live (market,
/// spillover, engine-scheduled decoys), so crash-safety machinery has
/// real coupled state to preserve.
fn engine(seed: u64, shards: u16) -> ShardedEngine {
    let mut config = ScenarioConfig::small_test(seed);
    config.days = 6;
    config.population.n_users = 240;
    config.market_share = 0.3;
    ShardedEngine::new(config, shards)
        .contact_spillover(0.25)
        .decoys(6, 3)
}

/// A fresh scratch directory under the system temp dir (no extra
/// crates available, so no tempfile — a pid-and-tag-unique path is
/// enough for a single test process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhw-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn injected_panic_surfaces_as_a_typed_error() {
    let err = engine(0xBAD, 4)
        .workers(4)
        .fault_plan(FaultPlan::new().panic_at(2, 1))
        .run()
        .expect_err("shard 1 is scheduled to panic on day 2");
    match err {
        EngineError::ShardPanicked { shard, day, payload } => {
            assert_eq!(shard, 1);
            assert_eq!(day, 2);
            assert!(payload.contains("injected fault"), "payload was {payload:?}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    // The pool drained cleanly — no poisoned lock, no secondary panic —
    // so the very same process can run the same scenario to completion.
    let clean = engine(0xBAD, 4).workers(4).run().expect("clean rerun after caught panic");
    assert_eq!(clean.shards().len(), 4);
}

#[test]
fn salvage_keeps_partial_shards_and_a_degraded_report() {
    let failure = engine(0xBAD, 4)
        .workers(2)
        .fault_plan(FaultPlan::new().panic_at(3, 2))
        .run_salvage()
        .expect_err("shard 2 is scheduled to panic on day 3");
    assert!(matches!(
        failure.error,
        EngineError::ShardPanicked { shard: 2, day: 3, .. }
    ));
    // Every shard was built, so every shard survives for post-mortem —
    // including the panicked one, frozen at its last completed day —
    // and each carries three full days of logs.
    assert_eq!(failure.partial_shards.len(), 4);
    assert_eq!(failure.completed_days, 3);
    for eco in &failure.partial_shards {
        assert!(eco.login_log.records().len() > 0, "partial shard has no logs");
    }
    // The forensic report is explicitly degraded and names the cause.
    assert!(failure.report.degraded);
    let cause = failure.report.failure.as_deref().expect("failure cause recorded");
    assert!(cause.contains("shard 2"), "cause was {cause:?}");
    let json = failure.report.to_json();
    assert!(json.contains("\"degraded\":true") || json.contains("\"degraded\": true"));
}

#[test]
fn resume_reproduces_the_uninterrupted_run_byte_for_byte() {
    let dir = scratch("resume");
    let full = engine(0x5EED, 4).workers(1).run().expect("uninterrupted run");

    // Kill the run on day 4 (after checkpoints at completed days 2 and
    // 4), exactly the crash the checkpoint is for.
    let failure = engine(0x5EED, 4)
        .workers(1)
        .checkpoint_to(&dir, 2)
        .fault_plan(FaultPlan::new().panic_at(4, 0))
        .run_salvage()
        .expect_err("run is scheduled to die on day 4");
    assert_eq!(failure.completed_days, 4);

    let latest = checkpoint::latest_in_dir(&dir)
        .expect("list checkpoint dir")
        .expect("a checkpoint was written before the crash");
    assert!(latest.ends_with("ckpt-day00004.mhw"), "latest was {latest:?}");

    // Resume must converge to the uninterrupted run — digest and
    // serialized report byte-identical — and stay worker-invariant.
    for workers in [1, 4] {
        let resumed = engine(0x5EED, 4)
            .workers(workers)
            .resume_from(&latest)
            .run()
            .expect("resumed run");
        assert_eq!(
            resumed.dataset_digest(),
            full.dataset_digest(),
            "digest diverged after resume at {workers} workers"
        );
        assert_eq!(
            resumed.run_report().to_json(),
            full.run_report().to_json(),
            "run report diverged after resume at {workers} workers"
        );
        assert_eq!(resumed.ops_metrics().counter_value(M_CHECKPOINTS_RESTORED), Some(1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_faults_and_checkpoints_before_the_recorded_barrier() {
    let dir = scratch("replay");
    let dir2 = scratch("replay-resumed");
    let full = engine(0xFA, 2).workers(1).run().expect("uninterrupted run");
    engine(0xFA, 2)
        .workers(1)
        .checkpoint_to(&dir, 2)
        .run()
        .expect("checkpointed run");

    // Two faults sit before the recorded day-2 barrier (a panic and an
    // exhausting checkpoint failure, either of which would kill a live
    // run); one slowdown sits after it. The replayed prefix must skip
    // the first two and write no checkpoint; the live tail must fire
    // the third and checkpoint only at day 4.
    let plan = FaultPlan::new().panic_at(1, 0).fail_checkpoint(1, 3).slow_at(4, 1, 1);
    let resumed = engine(0xFA, 2)
        .workers(1)
        .checkpoint_to(&dir2, 2)
        .fault_plan(plan)
        .resume_from(dir.join("ckpt-day00002.mhw"))
        .run()
        .expect("resumed run");
    assert_eq!(resumed.run_report().to_json(), full.run_report().to_json());
    assert_eq!(resumed.ops_metrics().counter_value(M_FAULTS_INJECTED), Some(1));
    assert_eq!(resumed.ops_metrics().counter_value(M_CHECKPOINTS_WRITTEN), Some(1));
    let mut written: Vec<String> = std::fs::read_dir(&dir2)
        .expect("list resumed checkpoint dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, vec!["ckpt-day00004.mhw".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn checkpoint_writes_and_ops_counters_are_observable() {
    let dir = scratch("counters");
    let run = engine(0xC0, 2)
        .workers(2)
        .checkpoint_to(&dir, 2)
        .run()
        .expect("checkpointed run");
    // 6 days, every 2 → checkpoints at completed 2 and 4 (the final
    // barrier is never checkpointed).
    assert_eq!(run.ops_metrics().counter_value(M_CHECKPOINTS_WRITTEN), Some(2));
    assert_eq!(run.ops_metrics().counter_value(M_PANICS_CAUGHT), Some(0));
    assert!(dir.join("ckpt-day00002.mhw").exists());
    assert!(dir.join("ckpt-day00004.mhw").exists());
    // The checkpoint phase shows up in the engine profile; the sim-time
    // metrics snapshot stays free of ops counters, so checkpointed and
    // plain runs serialize identical reports.
    let profile = run.profile();
    let phases: Vec<&str> = profile.phases.iter().map(|p| p.phase.as_str()).collect();
    assert!(phases.contains(&"checkpoint"), "phases were {phases:?}");
    let plain = engine(0xC0, 2).workers(2).run().expect("plain run");
    assert_eq!(run.run_report().to_json(), plain.run_report().to_json());
    assert_eq!(run.dataset_digest(), plain.dataset_digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_checkpoint_write_failures_are_retried() {
    let dir = scratch("retry");
    // Two injected failures sit below the three-attempt budget: the
    // run survives, and the retries are counted.
    let run = engine(0x77, 2)
        .workers(1)
        .checkpoint_to(&dir, 2)
        .fault_plan(FaultPlan::new().fail_checkpoint(1, 2))
        .run()
        .expect("retries absorb two transient failures");
    assert_eq!(run.ops_metrics().counter_value(M_CHECKPOINT_RETRIES), Some(2));
    assert_eq!(run.ops_metrics().counter_value(M_CHECKPOINTS_WRITTEN), Some(2));
    assert_eq!(run.ops_metrics().counter_value(M_FAULTS_INJECTED), Some(2));

    // Three failures exhaust the budget: the run aborts with the typed
    // I/O error instead of panicking or silently skipping the write.
    let dir2 = scratch("retry-exhaust");
    let err = engine(0x77, 2)
        .workers(1)
        .checkpoint_to(&dir2, 2)
        .fault_plan(FaultPlan::new().fail_checkpoint(1, 3))
        .run()
        .expect_err("three failures exhaust the retry budget");
    match err {
        EngineError::CheckpointIo { op, detail, .. } => {
            assert_eq!(op, CheckpointOp::Write);
            assert!(detail.contains("injected"), "detail was {detail:?}");
        }
        other => panic!("expected CheckpointIo, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn corrupt_truncated_and_mismatched_checkpoints_are_rejected() {
    let dir = scratch("reject");
    engine(0x11, 2)
        .workers(1)
        .checkpoint_to(&dir, 2)
        .run()
        .expect("checkpointed run");
    let path = dir.join("ckpt-day00002.mhw");
    let good = std::fs::read(&path).expect("read checkpoint file");

    // A single flipped byte in the body fails the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let bad = dir.join("flipped.mhw");
    std::fs::write(&bad, &flipped).expect("write corrupted copy");
    let err = engine(0x11, 2).resume_from(&bad).run().expect_err("flipped byte");
    assert!(
        matches!(err, EngineError::CheckpointCorrupt { .. }),
        "expected CheckpointCorrupt, got {err:?}"
    );

    // A truncated file is rejected, not misparsed.
    let cut = dir.join("truncated.mhw");
    std::fs::write(&cut, &good[..good.len() / 2]).expect("write truncated copy");
    let err = engine(0x11, 2).resume_from(&cut).run().expect_err("truncated file");
    assert!(
        matches!(err, EngineError::CheckpointCorrupt { .. }),
        "expected CheckpointCorrupt, got {err:?}"
    );

    // Direct reads agree with the engine path.
    let err = Checkpoint::read(&bad).expect_err("direct read of corrupt file");
    assert!(matches!(err, EngineError::CheckpointCorrupt { .. }));

    // A structurally valid checkpoint from a *different* scenario is a
    // mismatch naming the disagreeing field, never a wrong dataset.
    let err = engine(0x12, 2).resume_from(&path).run().expect_err("wrong seed");
    match err {
        EngineError::CheckpointMismatch { field, .. } => assert_eq!(field, "seed"),
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    let err = engine(0x11, 4).resume_from(&path).run().expect_err("wrong shard count");
    assert!(matches!(err, EngineError::CheckpointMismatch { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_schedules_are_reproducible_and_round_trip() {
    // Same seed + same seeded spec → the same concrete schedule.
    let a = FaultPlan::parse_spec("seeded:panics=2,slow=3,ckpt=1", 0xFA17, 6, 4)
        .expect("seeded spec parses");
    let b = FaultPlan::parse_spec("seeded:panics=2,slow=3,ckpt=1", 0xFA17, 6, 4)
        .expect("seeded spec parses");
    assert_eq!(a, b);
    assert_eq!(a.panic_points(), b.panic_points());
    assert!(a.validate(6, 4).is_ok(), "seeded faults always land in range");

    // The canonical rendering of a resolved schedule re-parses to the
    // identical plan, so an echoed `--fault-plan` line is replayable.
    let reparsed = FaultPlan::parse_spec(&a.to_string(), 0, 6, 4).expect("display re-parses");
    assert_eq!(a, reparsed);

    // And the concrete run outcome is reproducible: the same explicit
    // panic point yields the same typed error twice.
    let spec = "panic@1.0";
    let fail = |seed| {
        let plan = FaultPlan::parse_spec(spec, seed, 6, 2).expect("explicit spec parses");
        engine(seed, 2).workers(2).fault_plan(plan).run().expect_err("scheduled panic")
    };
    assert_eq!(fail(0x99), fail(0x99));
}

#[test]
fn slow_worker_faults_never_change_the_dataset() {
    let base = engine(0x51, 3).workers(2).run().expect("baseline run");
    let slowed = engine(0x51, 3)
        .workers(2)
        .fault_plan(FaultPlan::new().slow_at(1, 0, 5).slow_at(2, 2, 5))
        .run()
        .expect("slowed run");
    assert_eq!(slowed.dataset_digest(), base.dataset_digest());
    assert_eq!(slowed.run_report().to_json(), base.run_report().to_json());
    assert_eq!(slowed.ops_metrics().counter_value(M_FAULTS_INJECTED), Some(2));
}

#[test]
fn zero_checkpoint_interval_is_an_invalid_config() {
    let dir = scratch("zero-interval");
    let err = engine(0x33, 2).checkpoint_to(&dir, 0).run().expect_err("interval 0");
    match err {
        EngineError::InvalidConfig { reason } => {
            assert!(reason.contains("interval"), "reason was {reason:?}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Out-of-range fault plans are rejected before any thread spawns.
    let err = engine(0x33, 2)
        .fault_plan(FaultPlan::new().panic_at(99, 0))
        .run()
        .expect_err("day 99 of 6");
    assert!(matches!(err, EngineError::InvalidConfig { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}
