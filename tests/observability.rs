//! The observability layer's determinism contract.
//!
//! The load-bearing test is `run_report_is_byte_identical_across_workers`:
//! every quantity in a [`RunReport`] is a sim-time fact — a function of
//! the scenario (seed, shards, days, population) alone — so its JSON
//! serialisation must be byte-for-byte identical at any worker count.
//! Wall-clock observability (the engine's phase profile) is
//! deliberately absent from the report.

use manual_hijacking_wild::prelude::*;

/// The same small sharded scenario `tests/sharding.rs` pins, so the two
/// determinism contracts (dataset digest, run report) are checked over
/// identical worlds.
fn engine(seed: u64, shards: u16) -> ShardedEngine {
    let mut config = ScenarioConfig::small_test(seed);
    config.days = 6;
    config.population.n_users = 240;
    config.market_share = 0.3;
    ShardedEngine::new(config, shards)
        .contact_spillover(0.25)
        .decoys(6, 3)
}

#[test]
fn run_report_is_byte_identical_across_workers() {
    let baseline = engine(0x5A4D, 4).workers(1).run().expect("engine run");
    let baseline_json = baseline.run_report().to_json();
    for workers in [2, 4, 8] {
        let run = engine(0x5A4D, 4).workers(workers).run().expect("engine run");
        assert_eq!(
            run.run_report().to_json(),
            baseline_json,
            "run report diverged at {workers} workers"
        );
    }
    // And the report round-trips through its own parser.
    let parsed = RunReport::from_json(&baseline_json).expect("report parses");
    assert_eq!(parsed, baseline.run_report());
}

#[test]
fn report_covers_every_instrumented_subsystem() {
    let run = engine(0xBEEF, 3).workers(2).run().expect("engine run");
    let report = run.run_report();
    let counter = |name: &str| {
        report
            .metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or_else(|| panic!("counter {name} missing from report"))
    };
    // One nonzero counter per instrumented domain: identity, mailsys,
    // phishkit, adversary, defense, recovery, plus the engine itself.
    assert!(counter("identity.login_attempts") > 0);
    assert!(counter("mailsys.mail_delivered") > 0);
    assert!(counter("phishkit.pages_up") > 0);
    assert!(counter("adversary.sessions_run") > 0);
    assert!(counter("defense.notifications_sent") > 0);
    assert!(counter("recovery.claims_filed") > 0);
    assert_eq!(counter("engine.market_trades"), run.market_trades);
    assert_eq!(counter("engine.cross_shard_lures"), run.cross_shard_lures);
    // Latency distributions made it through the merge.
    let histogram = report
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == "recovery.resolution_latency_secs")
        .expect("recovery latency histogram missing");
    assert!(histogram.total > 0);
    assert_eq!(histogram.total, counter("recovery.claims_filed"));
}

#[test]
fn shard_metrics_sum_into_the_merged_snapshot() {
    let run = engine(0xCAFE, 3).run().expect("engine run");
    let merged = run.metrics_snapshot();
    let per_shard: u64 = run
        .shards()
        .iter()
        .map(|eco| {
            eco.metrics_snapshot()
                .counters
                .iter()
                .find(|c| c.name == "identity.login_attempts")
                .map(|c| c.value)
                .unwrap_or(0)
        })
        .sum();
    let total = merged
        .counters
        .iter()
        .find(|c| c.name == "identity.login_attempts")
        .map(|c| c.value)
        .unwrap();
    assert!(total > 0);
    assert_eq!(total, per_shard, "merge must sum per-shard counters exactly");
}

#[test]
fn profile_is_wall_clock_and_stays_out_of_the_report() {
    let run = engine(0xD00D, 2).workers(2).run().expect("engine run");
    let profile = run.profile();
    assert_eq!(profile.workers, 2);
    assert!(profile.phases.iter().any(|p| p.phase == "shard_day"));
    assert!(profile.phases.iter().all(|p| p.calls > 0));
    // The report's serialisation must not mention wall-clock phases or
    // the worker count (both vary run to run; the report must not).
    let json = run.run_report().to_json();
    assert!(!json.contains("shard_day"));
    assert!(!json.contains("workers"));
}
