//! `paper-world`: the paper-calibrated world that `repro` and `scenario`
//! run, built with `ScenarioBuilder` and advanced one
//! `Ecosystem::run_day` at a time on one thread.
//!
//! Mailboxes are seeded and every defense is on, so mail storage,
//! identity, phishing, crew sessions, recovery and in-simulation risk
//! scoring all do work. A day's cost grows with the mailboxes, so a
//! scan that is linear in mailbox size shows up as day-time growth.
//!
//! The crews are few and their activity swings a world's cost from one
//! seed to the next, so a measured unit is a set of [`WORLDS`] worlds
//! built from sub-seeds of the run's seed, and throughput is pooled
//! over the set.

use super::{
    counter, counters_fingerprint, fold, ms_since, ratio, repeat_for, Check, Outcome, Params,
    Repeats,
};
use crate::trace::Tracer;
use crate::{host, stats};
use mhw_core::{Ecosystem, ScenarioBuilder};
use mhw_types::AccountId;
use serde::Value;
use std::time::Instant;

pub const USERS: usize = 1_000;
pub const DAYS: u64 = 30;
/// Worlds in one measured set.
pub const WORLDS: u64 = 4;
/// Builds made before the measured sets, only to sample set-up time: a
/// build takes tens of milliseconds, so a few more samples are cheap.
const EXTRA_BUILDS: u64 = 5;
/// Days of the first world simulated again after the measured sets, to
/// check that a rebuilt world takes the same path.
const RECHECK_DAYS: u64 = 3;
const SET_USER_DAYS: u64 = USERS as u64 * DAYS * WORLDS;

/// One built-and-run world.
struct Pass {
    eco: Ecosystem,
    build_s: f64,
    rss_after_build_mib: f64,
    day_ms: Vec<f64>,
    /// Barrier-state digest after [`RECHECK_DAYS`] days.
    early_digest: u64,
    /// Cumulative mail counters after each day (traced passes only).
    mail_by_day: Vec<[u64; 3]>,
}

const MAIL_COUNTERS: [&str; 3] = [
    "mailsys.messages_sent",
    "mailsys.mail_delivered",
    "mailsys.searches",
];

fn build(seed: u64, tracer: &mut Option<Tracer>) -> (Ecosystem, f64) {
    if let Some(t) = tracer.as_mut() {
        t.begin("ScenarioBuilder::build", "core", seed);
    }
    let t0 = Instant::now();
    let eco = ScenarioBuilder::measurement(seed)
        .population(USERS)
        .days(DAYS)
        .build();
    let build_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_mut() {
        t.end();
    }
    (eco, build_s)
}

fn pass(seed: u64, tracer: &mut Option<Tracer>) -> Pass {
    let (mut eco, build_s) = build(seed, tracer);
    let rss_after_build_mib = host::rss_mib();
    let mut day_ms = Vec::with_capacity(DAYS as usize);
    let mut mail_by_day = Vec::new();
    let mut early_digest = 0;
    for day in 0..DAYS {
        if let Some(t) = tracer.as_mut() {
            t.begin("Ecosystem::run_day", "core", day);
        }
        let t0 = Instant::now();
        eco.run_day(day);
        day_ms.push(ms_since(t0));
        if day + 1 == RECHECK_DAYS {
            early_digest = eco.state_digest();
        }
        if let Some(t) = tracer.as_mut() {
            t.end();
            let mail = eco.provider.metrics().snapshot();
            mail_by_day.push(MAIL_COUNTERS.map(|name| mail.counter(name).unwrap_or(0)));
        }
    }
    Pass {
        eco,
        build_s,
        rss_after_build_mib,
        day_ms,
        early_digest,
        mail_by_day,
    }
}

/// The world's barrier-state digest and every layer counter, folded.
fn fingerprint(eco: &Ecosystem) -> u64 {
    fold([
        eco.state_digest(),
        counters_fingerprint(&eco.metrics_snapshot()),
    ])
}

/// The seed of world `i` of a set.
fn sub_seed(seed: u64, i: u64) -> u64 {
    fold([seed, i])
}

/// One measured set: its pooled user-days per second, its digest, and
/// the last world's pass.
struct Set {
    user_days_per_s: f64,
    fingerprint: u64,
    early_digest: u64,
    last: Pass,
}

/// Build and run every world of a set in turn.
fn set(
    seed: u64,
    setup_s: &mut Vec<f64>,
    day_us: &mut Vec<f64>,
    tracer: &mut Option<Tracer>,
) -> Set {
    let (mut day_ms_total, mut fingerprints, mut early_digest, mut last) =
        (0.0, Vec::new(), 0, None);
    for i in 0..WORLDS {
        drop(last.take()); // free the previous world before building the next
        let pass = pass(sub_seed(seed, i), tracer);
        setup_s.push(pass.build_s);
        day_ms_total += pass.day_ms.iter().sum::<f64>();
        day_us.extend(pass.day_ms.iter().map(|ms| ms * 1e3));
        fingerprints.push(fingerprint(&pass.eco));
        if i == 0 {
            early_digest = pass.early_digest;
        }
        last = Some(pass);
    }
    Set {
        user_days_per_s: SET_USER_DAYS as f64 / (day_ms_total / 1e3),
        fingerprint: fold(fingerprints),
        early_digest,
        last: last.expect("a set has at least one world"),
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut repeats = Repeats::default();
    let (mut setup_s, mut throughput, mut latency_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut early_digest = 0;
    for i in 0..EXTRA_BUILDS {
        setup_s.push(build(sub_seed(p.seed, i % WORLDS), &mut None).1);
    }
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    repeat_for(budget, || {
        let set = set(p.seed, &mut setup_s, &mut latency_us, &mut None);
        throughput.push(set.user_days_per_s);
        repeats.observe(set.fingerprint, SET_USER_DAYS);
        out.attempted += SET_USER_DAYS;
        early_digest = set.early_digest;
        Ok(())
    })?;

    // A set is long, so a run may hold only one: rebuild the first world
    // and check its first days take the same path.
    let (mut eco, _) = build(sub_seed(p.seed, 0), &mut None);
    for day in 0..RECHECK_DAYS {
        eco.run_day(day);
    }
    let again = eco.state_digest();
    drop(eco);
    out.checks.push(Check::new(
        "a rebuilt world repeats its first days",
        again == early_digest,
        format!("day {RECHECK_DAYS} state {again:#018x}, measured run {early_digest:#018x}"),
    ));

    if p.trace {
        let mut tracer = Some(Tracer::new());
        let mut last = None;
        repeat_for(p.seconds / 2.0, || {
            drop(last.take()); // free the previous unit before the next
            let set = set(p.seed, &mut Vec::new(), &mut Vec::new(), &mut tracer);
            out.traced_throughput.push(set.user_days_per_s);
            repeats.observe(set.fingerprint, SET_USER_DAYS);
            out.attempted += SET_USER_DAYS;
            last = Some(set.last);
            Ok(())
        })?;
        let pass = last.expect("repeat_for runs at least one set");
        layers(&mut out, &pass, &setup_s, tracer.as_mut().expect("traced"));
        out.tracer = tracer;
    }

    out.checks
        .push(repeats.check("world digests and layer counters"));
    out.failed = repeats.failed_items;
    out.digest = repeats.fingerprint();
    out.timed.setup_s = setup_s;
    out.timed.throughput = throughput;
    out.timed.throughput_of = "user-days/s, pooled over a set of worlds";
    out.timed.latency_us = latency_us;
    out.timed.latency_of = "Ecosystem::run_day call";
    Ok(out)
}

fn layers(out: &mut Outcome, pass: &Pass, setup_s: &[f64], tracer: &mut Tracer) {
    let eco = &pass.eco;
    let snap = eco.metrics_snapshot();
    let stats = &eco.stats;
    let day_ms = &pass.day_ms;
    let mut sorted = day_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let mean = |days: &[f64]| days.iter().sum::<f64>() / days.len() as f64;

    tracer.begin("Mailbox::len scan", "mailsys", 0);
    let stored: usize = (0..eco.provider.account_count())
        .map(|i| eco.provider.mailbox(AccountId::from_index(i)).len())
        .sum();
    tracer.end();

    out.layer("core.build_ms", stats::median(setup_s) * 1e3, "ms");
    out.layer("core.rss_after_build_mib", pass.rss_after_build_mib, "MiB");
    out.layer(
        "core.run_day_ms_p50",
        stats::percentile(&sorted, 50.0),
        "ms",
    );
    out.layer(
        "core.run_day_ms_p90",
        stats::percentile(&sorted, 90.0),
        "ms",
    );
    out.layer(
        "core.run_day_growth",
        mean(&day_ms[day_ms.len() - 5..]) / mean(&day_ms[..5]),
        "ratio",
    );
    out.layer(
        "core.log_records",
        eco.log_lens().iter().sum::<u64>() as f64,
        "count",
    );
    for name in MAIL_COUNTERS {
        out.layer(name, counter(&snap, name), "count");
    }
    out.layer("mailsys.stored_messages", stored as f64, "count");
    out.layer(
        "identity.login_attempts",
        counter(&snap, "identity.login_attempts"),
        "count",
    );
    out.layer(
        "identity.challenges_issued",
        counter(&snap, "identity.challenges_issued"),
        "count",
    );
    let verdicts: f64 = [
        "defense.risk_allow",
        "defense.risk_challenge",
        "defense.risk_block",
    ]
    .iter()
    .map(|name| counter(&snap, name))
    .sum();
    out.layer(
        "defense.challenge_ratio",
        ratio(counter(&snap, "defense.risk_challenge"), verdicts),
        "ratio",
    );
    out.layer(
        "phishkit.pages_up",
        counter(&snap, "phishkit.pages_up"),
        "count",
    );
    out.layer(
        "phishkit.capture_ratio",
        ratio(
            stats.credentials_captured as f64,
            stats.lures_delivered as f64,
        ),
        "ratio",
    );
    let sessions = counter(&snap, "adversary.sessions_run");
    out.layer("adversary.sessions_run", sessions, "count");
    out.layer(
        "adversary.exploit_ratio",
        ratio(counter(&snap, "adversary.sessions_exploited"), sessions),
        "ratio",
    );

    // The per-day mail series behind run_day_growth and peak RSS.
    let mut previous = [0u64; 3];
    let series = pass
        .mail_by_day
        .iter()
        .zip(day_ms)
        .map(|(now, ms)| {
            let delta: Vec<Value> = (0..3).map(|i| Value::UInt(now[i] - previous[i])).collect();
            previous = *now;
            Value::Object(vec![
                ("run_day_ms".to_string(), Value::Float(*ms)),
                ("messages_sent".to_string(), delta[0].clone()),
                ("mail_delivered".to_string(), delta[1].clone()),
                ("searches".to_string(), delta[2].clone()),
            ])
        })
        .collect();
    out.detail.push(("per_day", Value::Array(series)));
}
