//! `serve-replay`: a generated login stream scored one login at a time
//! by one `StreamingRiskService`, through `replay::score_event` and the
//! chained `replay::mix_digest`, as the `serve` binary's clean arm does.
//!
//! 50k accounts keep the history store large and the IP fan-out LRU at
//! its cap, so the hot path is memory-bound. The first simulated day is
//! replayed untimed (it fills the caches) but is still digested.
//!
//! Latency is sampled on one login in [`SAMPLE_EVERY`] with a pair of
//! clock reads, so the unsampled logins run the bare loop.
//!
//! The pinned digest holds only output: the chained verdict digest and
//! the service's behavioural counts (accounts, IP entries, devices).
//! The service's size estimate (`StateSize::approx_bytes`) is built
//! from struct sizes, so it is checked for repeats within a run but
//! never pinned: a change that only shrinks the service's structures
//! must still reproduce the pin.

use super::{fold, ratio, repeat_for, Check, Outcome, Params, Repeats};
use crate::json::{float, obj};
use crate::trace::Tracer;
use crate::{host, stats};
use mhw_core::replay::{self, ReplayLogin, WorkloadConfig};
use mhw_defense::{LoginRequest, RiskDecision, RiskEngine, RiskService, StreamingRiskService};
use mhw_netmodel::GeoDb;
use mhw_types::{SimTime, DAY};
use std::time::Instant;

pub const USERS: u32 = 50_000;
pub const DAYS: u32 = 30;
/// One login in this many is timed.
pub const SAMPLE_EVERY: usize = 64;
/// Stream generations per run, to sample set-up time.
const GENERATIONS: usize = 3;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        users: USERS,
        days: DAYS,
        logins_per_user_day: 2,
        wrong_password_rate: 0.03,
        travel_rate: 0.02,
        attack_rate: 0.01,
        seed,
    }
}

/// Per-call timings of the sampled logins of a traced pass, ns.
#[derive(Default)]
struct Calls {
    assess: Vec<f64>,
    evaluate: Vec<f64>,
    commit: Vec<f64>,
    locate: Vec<f64>,
    mix: Vec<f64>,
    /// Sampled logins whose repeated locate/evaluate disagreed with the
    /// verdict.
    disagreements: usize,
}

/// One replay of the whole stream through a fresh service.
struct Pass {
    logins_per_s: f64,
    latency_us: Vec<f64>,
    /// The verdict digest and behavioural state counts, folded.
    output: u64,
    /// [`Pass::output`] with the service's size estimate folded in.
    state: u64,
    service: StreamingRiskService,
    challenges: u64,
    calls: Calls,
}

fn pass(geo: &GeoDb, events: &[ReplayLogin], warm: usize, tracer: &mut Option<Tracer>) -> Pass {
    let mut service = StreamingRiskService::new(RiskEngine::default());
    let mut request = replay::placeholder_request();
    let mut digest = replay::DIGEST_SEED;
    let mut challenges = 0u64;
    for event in &events[..warm] {
        let (verdict, outcome) = replay::score_event(&mut service, geo, event, &mut request);
        digest = replay::mix_digest(digest, &verdict, outcome);
        challenges += u64::from(verdict.decision == RiskDecision::Challenge);
    }
    let timed = &events[warm..];
    let mut latency_us = Vec::with_capacity(timed.len() / SAMPLE_EVERY + 1);
    let mut calls = Calls::default();
    let t0 = Instant::now();
    match tracer.as_mut() {
        None => {
            for (i, event) in timed.iter().enumerate() {
                if i % SAMPLE_EVERY == 0 {
                    let t = Instant::now();
                    let (verdict, outcome) =
                        replay::score_event(&mut service, geo, event, &mut request);
                    digest = replay::mix_digest(digest, &verdict, outcome);
                    latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                } else {
                    let (verdict, outcome) =
                        replay::score_event(&mut service, geo, event, &mut request);
                    digest = replay::mix_digest(digest, &verdict, outcome);
                }
            }
        }
        Some(t) => {
            for (i, event) in timed.iter().enumerate() {
                let decision = if i % SAMPLE_EVERY == 0 {
                    traced_login(
                        t,
                        &mut service,
                        geo,
                        event,
                        &mut request,
                        (warm + i) as u64,
                        &mut digest,
                        &mut calls,
                    )
                } else {
                    let (verdict, outcome) =
                        replay::score_event(&mut service, geo, event, &mut request);
                    digest = replay::mix_digest(digest, &verdict, outcome);
                    verdict.decision
                };
                challenges += u64::from(decision == RiskDecision::Challenge);
            }
        }
    }
    let logins_per_s = timed.len() as f64 / t0.elapsed().as_secs_f64();
    let size = service.state_size();
    let output = fold([
        digest,
        size.accounts as u64,
        size.ip_entries as u64,
        size.tracked_devices as u64,
    ]);
    Pass {
        logins_per_s,
        latency_us,
        output,
        state: fold([output, size.approx_bytes as u64]),
        service,
        challenges,
        calls,
    }
}

#[allow(clippy::too_many_arguments)]
/// Score one sampled login call by call under spans: assess,
/// adjudicate, commit, digest. Geolocation and the noisy-OR run inside
/// assess, so they are timed by repeating them beside the login on the
/// returned verdict, and must agree with it.
fn traced_login(
    t: &mut Tracer,
    service: &mut StreamingRiskService,
    geo: &GeoDb,
    event: &ReplayLogin,
    request: &mut LoginRequest,
    id: u64,
    digest: &mut u64,
    calls: &mut Calls,
) -> RiskDecision {
    request.at = event.at;
    request.account = event.account;
    request.ip = event.ip;
    request.device = event.device;
    t.begin("login", "core", id);
    t.begin("RiskService::assess", "defense", id);
    let verdict = service.assess(request, geo);
    calls.assess.push(t.end() as f64);
    let outcome = replay::adjudicate(event, verdict.decision);
    t.begin("RiskService::commit", "defense", id);
    service.commit(request, &verdict, outcome);
    calls.commit.push(t.end() as f64);
    t.begin("replay::mix_digest", "core", id);
    *digest = replay::mix_digest(*digest, &verdict, outcome);
    calls.mix.push(t.end() as f64);
    t.end();

    t.begin_side("GeoDb::locate", "netmodel", id);
    let country = geo.locate(event.ip);
    calls.locate.push(t.end() as f64);
    t.begin_side("RiskEngine::evaluate", "defense", id);
    let (score, decision) = service.engine.evaluate(&verdict.signals);
    calls.evaluate.push(t.end() as f64);
    let agrees = country == verdict.country
        && score.to_bits() == verdict.score.to_bits()
        && decision == verdict.decision;
    calls.disagreements += usize::from(!agrees);
    verdict.decision
}

/// Every field of every login, folded, so that generations can be
/// compared without keeping two streams alive.
fn stream_digest(events: &[ReplayLogin]) -> u64 {
    fold(events.iter().flat_map(|e| {
        [
            e.at.0,
            u64::from(e.account.0) << 32 | u64::from(e.ip.0),
            u64::from(e.device.0) << 2
                | u64::from(e.password_correct) << 1
                | u64::from(e.challenge_pass),
            e.outcome.map_or(0, |o| o as u64 + 1),
        ]
    }))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = workload(p.seed);
    let mut setup_s = Vec::new();
    let mut stream: Option<(GeoDb, Vec<ReplayLogin>)> = None;
    let mut generations = Repeats::default();
    for _ in 0..GENERATIONS {
        drop(stream.take()); // set-up never holds two streams
        let t0 = Instant::now();
        let geo = GeoDb::new();
        let events = replay::generate_workload(&config, &geo);
        setup_s.push(t0.elapsed().as_secs_f64());
        generations.observe(stream_digest(&events), 0);
        stream = Some((geo, events));
    }
    out.checks.push(generations.check("generated streams"));
    let (geo, events) = stream.expect("at least one generation");
    let peak_after_setup_mib = host::peak_rss_mib();
    let warm = events.partition_point(|e| e.at < SimTime::from_secs(DAY));
    let timed_logins = (events.len() - warm) as u64;

    let mut repeats = Repeats::default();
    let (mut throughput, mut latency_us) = (Vec::new(), Vec::new());
    let mut untraced = None;
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    repeat_for(budget, || {
        let pass = pass(&geo, &events, warm, &mut None);
        throughput.push(pass.logins_per_s);
        latency_us.extend(pass.latency_us);
        repeats.observe(pass.state, timed_logins);
        out.attempted += timed_logins;
        untraced.get_or_insert(pass.output);
        Ok(())
    })?;
    let untraced = untraced.expect("repeat_for runs at least one pass");
    out.detail.push((
        "peak_rss_mib",
        obj([
            ("after_setup", float(peak_after_setup_mib)),
            ("after_timed_phase", float(host::peak_rss_mib())),
        ]),
    ));

    if p.trace {
        let mut tracer = Some(Tracer::new());
        let mut last = None;
        repeat_for(p.seconds / 2.0, || {
            drop(last.take()); // free the previous unit before the next
            let pass = pass(&geo, &events, warm, &mut tracer);
            out.traced_throughput.push(pass.logins_per_s);
            repeats.observe(pass.state, timed_logins);
            out.attempted += timed_logins;
            last = Some(pass);
            Ok(())
        })?;
        let pass = last.expect("repeat_for runs at least one pass");
        out.checks.push(Check::new(
            "verdict digest is the same with tracing on and off",
            pass.output == untraced,
            format!("traced {:#018x}, untraced {untraced:#018x}", pass.output),
        ));
        out.checks.push(Check::new(
            "repeated locate/evaluate agree with the verdict",
            pass.calls.disagreements == 0,
            format!(
                "{} of {} sampled logins disagree",
                pass.calls.disagreements,
                pass.calls.assess.len()
            ),
        ));
        let size = pass.service.state_size();
        let calls = &pass.calls;
        out.layer(
            "core.generate_workload_ms",
            stats::median(&setup_s) * 1e3,
            "ms",
        );
        out.layer("core.mix_digest_ns", stats::median(&calls.mix), "ns");
        out.layer("defense.assess_ns", stats::median(&calls.assess), "ns");
        out.layer("defense.evaluate_ns", stats::median(&calls.evaluate), "ns");
        out.layer("defense.commit_ns", stats::median(&calls.commit), "ns");
        out.layer("netmodel.locate_ns", stats::median(&calls.locate), "ns");
        out.layer("defense.state_bytes", size.approx_bytes as f64, "bytes");
        out.layer("defense.ip_entries", size.ip_entries as f64, "count");
        out.layer("defense.accounts", size.accounts as f64, "count");
        out.layer(
            "defense.challenge_ratio",
            ratio(pass.challenges as f64, events.len() as f64),
            "ratio",
        );
        out.tracer = tracer;
    }

    out.checks
        .push(repeats.check("verdict digest and service state"));
    out.failed = repeats.failed_items;
    out.digest = untraced;
    out.timed.setup_s = setup_s;
    out.timed.throughput = throughput;
    out.timed.throughput_of = "logins/s";
    out.timed.latency_us = latency_us;
    out.timed.latency_of = "login (score_event + mix_digest), 1 in 64 sampled";
    Ok(out)
}
