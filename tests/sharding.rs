//! The sharded engine's determinism contract and the global ordering
//! guarantees of the unified event-log API.
//!
//! The load-bearing test is `worker_count_never_changes_the_dataset`:
//! logical shards are scenario semantics, worker threads are pure
//! mechanics, so the digest over every produced dataset must be
//! byte-identical at any parallelism level. The `reference_digest`
//! tests pin what that digest hashes: the `{:?}` text of every row.

use manual_hijacking_wild::core::RecoveryConfig;
use manual_hijacking_wild::prelude::*;
use manual_hijacking_wild::types::{Fnv1a, LogStore, DAY};
use proptest::prelude::*;
use std::fmt::Write as _;

/// A small sharded scenario exercising every cross-shard path: the
/// credential market, contact-graph spillover, and engine-scheduled
/// decoy probes.
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
fn worker_count_never_changes_the_dataset() {
    let baseline = engine(0x5A4D, 4).workers(1).run().expect("engine run");
    for workers in [2, 4, 5, 8] {
        let run = engine(0x5A4D, 4).workers(workers).run().expect("engine run");
        assert_eq!(
            run.dataset_digest(),
            baseline.dataset_digest(),
            "digest diverged at {workers} workers"
        );
        assert_eq!(run.market_trades, baseline.market_trades);
        assert_eq!(run.cross_shard_lures, baseline.cross_shard_lures);
        assert_eq!(
            run.run_report().to_json(),
            baseline.run_report().to_json(),
            "run report diverged at {workers} workers"
        );
    }
}

#[test]
fn worker_count_never_changes_a_scale_world() {
    // The scale preset turns per-user activity down and leaves the
    // credential market off, so without `market_share` no credential
    // ever crosses a shard and the digest check would cover only
    // shard-local state.
    let run = |workers: usize| {
        let mut config = ScenarioConfig::scale_world(0x5CA7E, 2_000, 12);
        config.market_share = 0.3;
        ShardedEngine::new(config, 8)
            .workers(workers)
            .contact_spillover(0.25)
            .decoys(12, 12)
            .run()
            .expect("engine run")
    };
    let baseline = run(1);
    assert!(baseline.market_trades > 0, "no cross-shard market trades: the test has no teeth");
    for workers in [4, 8] {
        assert_eq!(
            run(workers).dataset_digest(),
            baseline.dataset_digest(),
            "scale-world digest diverged at {workers} workers"
        );
    }
}

#[test]
fn work_stealing_keeps_the_digest_under_extreme_imbalance() {
    // One shard carries ~10x the population of its three peers, so any
    // static bucket assignment would leave workers idle and any
    // scheduling leak would move records between runs. The stolen
    // schedule differs wildly across worker counts; the datasets must
    // not.
    let heavy = |workers: usize| {
        let mut config = ScenarioConfig::small_test(0xBEEF);
        config.days = 4;
        config.population.n_users = 260;
        config.market_share = 0.3;
        ShardedEngine::new(config, 4)
            .shard_weights(vec![10, 1, 1, 1])
            .contact_spillover(0.25)
            .workers(workers)
            .run()
            .expect("engine run")
    };
    let baseline = heavy(1);
    let populations: Vec<usize> =
        baseline.shards().iter().map(|e| e.population.len()).collect();
    assert!(
        populations[0] >= 9 * populations[1].max(1),
        "weights did not skew the population: {populations:?}"
    );
    for workers in [2, 5, 8] {
        let run = heavy(workers);
        assert_eq!(
            run.dataset_digest(),
            baseline.dataset_digest(),
            "digest diverged at {workers} workers under imbalance"
        );
    }
}

#[test]
fn same_seed_same_digest_different_seed_different_digest() {
    let a = engine(0xD16E, 3).run().expect("engine run");
    let b = engine(0xD16E, 3).run().expect("engine run");
    let c = engine(0xD16F, 3).run().expect("engine run");
    assert_eq!(a.dataset_digest(), b.dataset_digest());
    assert_ne!(a.dataset_digest(), c.dataset_digest());
}

/// The dataset digest spelled out: `{:?}`-format every row and
/// FNV-1a-hash the text. `ShardedRun::dataset_digest` hashes the same
/// bytes without formatting the log records, so the two must agree on
/// every world.
fn reference_digest(run: &ShardedRun) -> u64 {
    let mut line = String::new();
    let mut h = Fnv1a::new();
    let mut absorb = |args: std::fmt::Arguments<'_>| {
        line.clear();
        line.write_fmt(args).expect("format row");
        h.write(line.as_bytes());
    };
    for e in run.merged_logins() {
        absorb(format_args!("{:?}|{:?}", e.key, e.record));
    }
    for e in run.merged_mail_events() {
        absorb(format_args!("{:?}|{:?}", e.key, e.record));
    }
    for e in run.merged_notifications() {
        absorb(format_args!("{:?}|{:?}", e.key, e.record));
    }
    for (shard, inc) in run.incidents() {
        absorb(format_args!("{shard}|{inc:?}"));
    }
    for (shard, sess) in run.sessions() {
        absorb(format_args!("{shard}|{sess:?}"));
    }
    absorb(format_args!("{:?}", run.total_stats()));
    h.finish()
}

#[test]
fn digest_matches_the_reference_on_a_market_world() {
    let run = engine(0xC0DE, 4).workers(2).run().expect("engine run");
    assert!(run.market_trades > 0 && run.cross_shard_lures > 0, "cross-shard paths idle");
    assert_eq!(run.dataset_digest(), reference_digest(&run));
}

#[test]
fn digest_matches_the_reference_on_an_undefended_pivot_world() {
    let mut config = ScenarioConfig::small_test(0xD1CE);
    config.days = 6;
    config.population.n_users = 240;
    config.defense = DefenseConfig::none();
    config.recovery = RecoveryConfig::paper();
    let run = ShardedEngine::new(config, 2).run().expect("engine run");
    assert!(
        run.merged_mail_events().iter().any(|e| matches!(e.actor, Actor::Hijacker(_))),
        "no hijacker mail actions to hash"
    );
    assert_eq!(run.dataset_digest(), reference_digest(&run));
}

#[test]
fn digest_matches_the_reference_on_a_forked_cell() {
    let snapshot = engine(0xF02C, 2).snapshot_after(3).expect("snapshot");
    let cell = snapshot.fork().seed(0xF02D).run().expect("fork");
    assert_eq!(cell.dataset_digest(), reference_digest(&cell));
}

#[test]
fn cross_shard_effects_actually_fire() {
    let run = engine(0xC0DE, 4).workers(2).run().expect("engine run");
    assert!(run.market_trades > 0, "credential market never traded");
    assert!(run.cross_shard_lures > 0, "contact graph never crossed shards");
    // The market is a diversion, not a loss: total captures stay healthy.
    assert!(run.total_stats().credentials_captured > 0);
    // All three merged logs carry records from more than one shard.
    let login_shards: std::collections::HashSet<u16> =
        run.merged_logins().iter().map(|r| r.key.shard).collect();
    let mail_shards: std::collections::HashSet<u16> =
        run.merged_mail_events().iter().map(|e| e.key.shard).collect();
    assert!(login_shards.len() > 1);
    assert!(mail_shards.len() > 1);
}

#[test]
fn merged_views_are_complete_and_globally_ordered() {
    let run = engine(0xF00D, 3).workers(3).run().expect("engine run");
    let merged = run.merged_logins();
    let per_shard: usize = run.shards().iter().map(|e| e.login_log.len()).sum();
    assert_eq!(merged.len(), per_shard, "merge dropped or duplicated records");
    for w in merged.windows(2) {
        assert!(
            w[0].key < w[1].key,
            "merged login log out of (at, shard, seq) order: {:?} !< {:?}",
            w[0].key,
            w[1].key
        );
    }
    for w in run.merged_mail_events().windows(2) {
        assert!(w[0].key < w[1].key, "merged mail log out of order");
    }
    for w in run.merged_notifications().windows(2) {
        assert!(w[0].key < w[1].key, "merged notification log out of order");
    }
}

#[test]
fn one_shard_engine_matches_the_plain_scenario() {
    // A single shard with the market off is exactly the original
    // single-threaded simulator — sharding must cost nothing
    // semantically.
    let mut config = ScenarioConfig::small_test(0x0135);
    config.days = 5;
    config.population.n_users = 200;
    let direct = ScenarioBuilder::new(config.clone()).run();
    let run = ShardedEngine::new(config, 1).run().expect("engine run");
    let eco = &run.shards()[0];
    assert_eq!(eco.login_log.len(), direct.login_log.len());
    assert_eq!(eco.stats.credentials_captured, direct.stats.credentials_captured);
    assert_eq!(eco.stats.incidents, direct.stats.incidents);
    assert_eq!(eco.stats.recovered, direct.stats.recovered);
}

proptest! {
    /// Merging arbitrary per-shard segments yields a strictly
    /// increasing (SimTime, shard, seq) sequence containing every
    /// record exactly once — the ordering contract every consumer of
    /// the unified log API leans on.
    #[test]
    fn merge_orders_any_segments(
        shard_sizes in proptest::collection::vec(0usize..40, 1..6),
        times in proptest::collection::vec(0u64..3 * DAY, 1..200),
    ) {
        let mut segments: Vec<LogStore<u64>> = Vec::new();
        let mut t = times.iter().cycle();
        let mut total = 0usize;
        for (shard, n) in shard_sizes.iter().enumerate() {
            let mut seg = LogStore::for_shard(shard as u16);
            for i in 0..*n {
                seg.append(SimTime::from_secs(*t.next().unwrap()), i as u64);
                total += 1;
            }
            segments.push(seg);
        }
        let merged = LogStore::merge(segments.iter());
        prop_assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            prop_assert!(w[0].key < w[1].key, "keys must be unique and sorted");
        }
        // Every shard's records survive the merge exactly once (dense
        // seqs 0..n), and records sharing an instant on one shard keep
        // their emission order.
        for (shard, n) in shard_sizes.iter().enumerate() {
            let mut seqs: Vec<u64> = merged
                .iter()
                .filter(|e| e.key.shard == shard as u16)
                .map(|e| e.key.seq)
                .collect();
            seqs.sort_unstable();
            prop_assert_eq!(seqs, (0..*n as u64).collect::<Vec<_>>());
        }
        for w in merged.windows(2) {
            if w[0].key.at == w[1].key.at && w[0].key.shard == w[1].key.shard {
                prop_assert!(w[0].key.seq < w[1].key.seq);
            }
        }
    }

    /// The k-way merge must agree element-for-element with the old
    /// sort-based reference (concatenate everything, stable-sort by
    /// key) on any input: duplicate `at` instants across and within
    /// shards, empty segments in any position, and segments appended
    /// out of time order.
    #[test]
    fn kway_merge_matches_the_sort_based_reference(
        shard_sizes in proptest::collection::vec(0usize..25, 1..7),
        // A tiny time range forces heavy `at` collisions, and the
        // arbitrary order means many segments are NOT time-sorted,
        // exercising the merge's per-segment resort path alongside the
        // sorted-cursor fast path.
        times in proptest::collection::vec(0u64..8, 1..120),
    ) {
        let mut segments: Vec<LogStore<u64>> = Vec::new();
        let mut t = times.iter().cycle();
        for (shard, n) in shard_sizes.iter().enumerate() {
            let mut seg = LogStore::for_shard(shard as u16);
            for i in 0..*n {
                seg.append(SimTime::from_secs(*t.next().unwrap()), i as u64);
            }
            segments.push(seg);
        }
        let merged = LogStore::merge(segments.iter());
        // The reference the k-way merge replaced: concatenate, then
        // sort by the unique (at, shard, seq) key.
        let mut reference: Vec<_> =
            segments.iter().flat_map(|seg| seg.entries()).collect();
        reference.sort_by_key(|e| e.key);
        prop_assert_eq!(merged.len(), reference.len());
        for (got, want) in merged.iter().zip(&reference) {
            prop_assert_eq!(got.key, want.key);
            prop_assert_eq!(&got.record, &want.record);
        }
    }
}
