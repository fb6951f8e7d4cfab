//! Login-log replay plumbing for serve mode.
//!
//! The `serve` binary treats login traffic as the first-class workload:
//! a stream of [`ReplayLogin`] events is pushed through a
//! [`RiskService`] one at a time, the way the paper's engine scored
//! logins online. This module provides the three pieces that sit
//! between a login log and the service:
//!
//! * **workloads** — [`generate_workload`] synthesizes a deterministic
//!   login stream (organic diurnal traffic plus hijack-style attempts)
//!   from a [`WorkloadConfig`], and [`from_login_log`] converts a
//!   simulation's recorded [`LoginLog`] into the same event shape;
//! * **replay** — [`replay_stream`]/[`score_event`] drive the service
//!   and adjudicate outcomes ([`adjudicate`]), chaining a FNV-1a
//!   verdict digest so chunked and sharded replays compose;
//! * **parity** — [`verdict_digest_from_log`] computes the batch-side
//!   digest from recorded scores, letting `tests/serve_parity.rs` pin
//!   that streaming replay reproduces the simulation's verdicts
//!   bit-for-bit.

#![deny(missing_docs)]

use mhw_types::fnv::{fnv1a, OFFSET as FNV_OFFSET};
use mhw_defense::{
    AnswererCapabilities, LoginRequest, RiskDecision, RiskEngine, RiskService, RiskVerdict,
};
use mhw_identity::{LoginLog, LoginOutcome};
use mhw_netmodel::GeoDb;
use mhw_simclock::SimRng;
use mhw_types::{AccountId, Actor, CountryCode, DeviceId, IpAddr, SimTime, DAY, HOUR};
use serde::{Deserialize, Serialize};

/// Schema tag for serialized replay logs.
pub const REPLAY_SCHEMA: &str = "mhw-replay-log/v1";

/// Seed value for the chained verdict digest.
pub const DIGEST_SEED: u64 = FNV_OFFSET;

/// One login event as the replay harness sees it.
///
/// Provider-visible request fields plus the pre-adjudicated parts the
/// service does not decide itself: whether the password was right, how
/// a challenge would go, and — when replaying a recorded log — the
/// already-known outcome (2FA and challenge RNG happened in the batch
/// run; replay must not re-roll them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayLogin {
    /// Simulated arrival time.
    pub at: SimTime,
    /// Target account.
    pub account: AccountId,
    /// Source address.
    pub ip: IpAddr,
    /// Client device identity.
    pub device: DeviceId,
    /// Whether the presented password was correct.
    pub password_correct: bool,
    /// Whether the answerer would pass a served challenge.
    pub challenge_pass: bool,
    /// Fixed outcome when replaying a recorded log (wins over
    /// [`adjudicate`]'s decision logic); `None` for synthetic streams.
    pub outcome: Option<LoginOutcome>,
}

/// A serializable replay log (schema tag + events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayLog {
    /// Schema tag ([`REPLAY_SCHEMA`]).
    pub schema: String,
    /// Seed the workload was generated from (0 for recorded logs).
    pub seed: u64,
    /// Time-ordered login events.
    pub events: Vec<ReplayLogin>,
}

impl ReplayLog {
    /// Wrap events with the schema tag.
    pub fn new(seed: u64, events: Vec<ReplayLogin>) -> Self {
        ReplayLog { schema: REPLAY_SCHEMA.to_string(), seed, events }
    }

    /// Canonical JSON form (deterministic field order).
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used)] // every field is serializable by construction
        serde_json::to_string(self).expect("replay log serializes")
    }

    /// Parse back from [`ReplayLog::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Parameters for a synthetic serve-mode workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Simulated user population.
    pub users: u32,
    /// Days of traffic to generate.
    pub days: u32,
    /// Organic logins per user per day.
    pub logins_per_user_day: u32,
    /// Chance an organic login presents a wrong password.
    pub wrong_password_rate: f64,
    /// Chance an organic login originates from a foreign country.
    pub travel_rate: f64,
    /// Per-user-per-day chance of a hijack-style attempt (fresh device,
    /// foreign proxy IP, correct password — the §5 capture scenario).
    pub attack_rate: f64,
    /// RNG seed; equal configs generate byte-identical streams.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A small default workload (used by `serve --smoke` and tests).
    pub fn small(seed: u64) -> Self {
        WorkloadConfig {
            users: 200,
            days: 3,
            logins_per_user_day: 2,
            wrong_password_rate: 0.03,
            travel_rate: 0.02,
            attack_rate: 0.01,
            seed,
        }
    }

    /// Expected event count (organic only; attacks add ~`attack_rate`
    /// per user-day on top).
    pub fn organic_events(&self) -> u64 {
        self.users as u64 * self.days as u64 * self.logins_per_user_day as u64
    }
}

/// Deterministically synthesize a time-ordered login stream.
///
/// Every user gets a stable home country/IP/device and a preferred
/// daily login hour; travel, wrong passwords and hijack attempts are
/// drawn from `cfg.seed` in fixed loop order, so equal configs yield
/// identical streams on every machine and thread count.
pub fn generate_workload(cfg: &WorkloadConfig, geo: &GeoDb) -> Vec<ReplayLogin> {
    let mut rng = SimRng::shard_stream(cfg.seed, 0, "serve-workload");
    let n_countries = CountryCode::ALL.len() as u64;
    // Fresh attacker devices come from a namespace far above user devices.
    let mut next_attack_device = cfg.users + 1_000_000;
    let mut events = Vec::with_capacity(cfg.organic_events() as usize);
    for day in 0..cfg.days as u64 {
        for u in 0..cfg.users {
            let home = CountryCode::ALL[(u as u64 % n_countries) as usize];
            let account = AccountId(u);
            let device = DeviceId(u);
            for k in 0..cfg.logins_per_user_day as u64 {
                // Spread each user's logins over a personal hour band.
                let hour = (8 + (u as u64 + 5 * k) % 12) % 24;
                let at = SimTime::from_secs(day * DAY + hour * HOUR + rng.below(HOUR));
                let travelling = rng.chance(cfg.travel_rate);
                let ip = if travelling {
                    let away = CountryCode::ALL
                        [((u as u64 + 1 + rng.below(n_countries - 1)) % n_countries) as usize];
                    geo.random_ip(away, &mut rng)
                } else {
                    geo.stable_ip(home, u as u64)
                };
                events.push(ReplayLogin {
                    at,
                    account,
                    ip,
                    device,
                    password_correct: !rng.chance(cfg.wrong_password_rate),
                    challenge_pass: rng.chance(0.9),
                    outcome: None,
                });
            }
            if rng.chance(cfg.attack_rate) {
                // Crew attempt: correct (captured) password, fresh
                // device, proxy exit in a random foreign country.
                let away = CountryCode::ALL
                    [((u as u64 + 1 + rng.below(n_countries - 1)) % n_countries) as usize];
                let at = SimTime::from_secs(day * DAY + rng.below(DAY));
                let device = DeviceId(next_attack_device);
                next_attack_device += 1;
                events.push(ReplayLogin {
                    at,
                    account,
                    ip: geo.random_ip(away, &mut rng),
                    device,
                    password_correct: true,
                    challenge_pass: rng.chance(0.18),
                    outcome: None,
                });
            }
        }
    }
    events.sort_by_key(|e| (e.at, e.account.0, e.device.0));
    events
}

/// Convert a simulation's recorded login log into replay events.
///
/// Outcomes are carried over verbatim (the batch run already rolled
/// 2FA/challenge randomness), which is what makes replay a pure
/// re-scoring of the same state trajectory.
pub fn from_login_log(log: &LoginLog) -> Vec<ReplayLogin> {
    log.records()
        .map(|r| ReplayLogin {
            at: r.at,
            account: r.account,
            ip: r.ip,
            device: r.device,
            password_correct: r.password_correct,
            challenge_pass: r.challenge.map(|c| c.passed).unwrap_or(false),
            outcome: Some(r.outcome),
        })
        .collect()
}

/// Decide an event's outcome from the service's decision.
///
/// A recorded outcome wins (replay must not re-adjudicate randomness);
/// otherwise: wrong password fails outright, `Allow` succeeds, `Block`
/// blocks, and a challenge resolves by the event's pre-rolled
/// `challenge_pass`.
pub fn adjudicate(event: &ReplayLogin, decision: RiskDecision) -> LoginOutcome {
    if let Some(outcome) = event.outcome {
        return outcome;
    }
    if !event.password_correct {
        return LoginOutcome::WrongPassword;
    }
    match decision {
        RiskDecision::Allow => LoginOutcome::Success,
        RiskDecision::Block => LoginOutcome::Blocked,
        RiskDecision::Challenge => {
            if event.challenge_pass {
                LoginOutcome::Success
            } else {
                LoginOutcome::ChallengeFailed
            }
        }
    }
}

/// A reusable request buffer for replay (the password/actor/capability
/// fields are never read by a [`RiskService`]; allocate once).
pub fn placeholder_request() -> LoginRequest {
    LoginRequest {
        at: SimTime::EPOCH,
        account: AccountId(0),
        ip: IpAddr(0),
        device: DeviceId(0),
        password: String::new(),
        actor: Actor::Owner,
        capabilities: AnswererCapabilities::owner(false, 0.0),
    }
}

/// Score one event end to end: assess → adjudicate → commit.
///
/// `request` is a scratch buffer from [`placeholder_request`], reused
/// across calls to keep the hot path allocation-free.
pub fn score_event<S: RiskService + ?Sized>(
    service: &mut S,
    geo: &GeoDb,
    event: &ReplayLogin,
    request: &mut LoginRequest,
) -> (RiskVerdict, LoginOutcome) {
    request.at = event.at;
    request.account = event.account;
    request.ip = event.ip;
    request.device = event.device;
    let verdict = service.assess(request, geo);
    let outcome = adjudicate(event, verdict.decision);
    service.commit(request, &verdict, outcome);
    (verdict, outcome)
}

fn decision_code(decision: RiskDecision) -> u8 {
    match decision {
        RiskDecision::Allow => 0,
        RiskDecision::Challenge => 1,
        RiskDecision::Block => 2,
    }
}

fn outcome_code(outcome: LoginOutcome) -> u8 {
    match outcome {
        LoginOutcome::Success => 0,
        LoginOutcome::WrongPassword => 1,
        LoginOutcome::Blocked => 2,
        LoginOutcome::ChallengeFailed => 3,
        LoginOutcome::SecondFactorFailed => 4,
    }
}

/// Fold one verdict into the chained digest: exact score bits, the
/// threshold decision, the adjudicated outcome, and the verdict's
/// fidelity byte — so degraded or shed scoring changes the digest and
/// is pinned by byte-identity checks, never silent.
pub fn mix_digest(digest: u64, verdict: &RiskVerdict, outcome: LoginOutcome) -> u64 {
    let h = fnv1a(digest, &verdict.score.to_bits().to_le_bytes());
    fnv1a(
        h,
        &[decision_code(verdict.decision), outcome_code(outcome), verdict.fidelity.byte()],
    )
}

/// Replay `events` through `service`, chaining the verdict digest from
/// `digest` (pass [`DIGEST_SEED`] for a fresh stream; pass the previous
/// chunk's return value to continue a chunked replay). `observe` runs
/// after each event (latency sampling, per-event assertions).
pub fn replay_stream<S: RiskService + ?Sized>(
    service: &mut S,
    geo: &GeoDb,
    events: &[ReplayLogin],
    digest: u64,
    mut observe: impl FnMut(&ReplayLogin, &RiskVerdict, LoginOutcome),
) -> u64 {
    let mut request = placeholder_request();
    let mut h = digest;
    for event in events {
        let (verdict, outcome) = score_event(service, geo, event, &mut request);
        h = mix_digest(h, &verdict, outcome);
        observe(event, &verdict, outcome);
    }
    h
}

/// The batch-side digest over a recorded login log: recorded score
/// bits, the engine's threshold decision for that score, and the
/// recorded outcome — the exact sequence a 1-shard streaming replay
/// must reproduce.
pub fn verdict_digest_from_log(log: &LoginLog, engine: &RiskEngine) -> u64 {
    let mut h = DIGEST_SEED;
    // Batch scoring always runs full-fidelity, so the batch side mixes
    // the empty fidelity byte — clean-arm serve digests match exactly.
    let fidelity = mhw_defense::Fidelity::FULL.byte();
    for r in log.records() {
        h = fnv1a(h, &r.risk_score.to_bits().to_le_bytes());
        h = fnv1a(
            h,
            &[decision_code(engine.decide(r.risk_score)), outcome_code(r.outcome), fidelity],
        );
    }
    h
}

/// Combine per-shard digests into one order-sensitive fingerprint
/// (shard order is the partition order, which is deterministic).
pub fn fold_digests(parts: &[u64]) -> u64 {
    let mut h = DIGEST_SEED;
    for p in parts {
        h = fnv1a(h, &p.to_le_bytes());
    }
    h
}

/// Partition events across `shards` service instances by account, so
/// every account's state trajectory stays on one shard. Relative event
/// order is preserved within each shard.
pub fn shard_events(events: &[ReplayLogin], shards: usize) -> Vec<Vec<ReplayLogin>> {
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for e in events {
        out[e.account.index() % shards].push(*e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_defense::StreamingRiskService;

    fn small_events() -> (GeoDb, Vec<ReplayLogin>) {
        let geo = GeoDb::new();
        let events = generate_workload(&WorkloadConfig::small(7), &geo);
        (geo, events)
    }

    #[test]
    fn workload_is_deterministic_and_time_ordered() {
        let (_, a) = small_events();
        let (_, b) = small_events();
        assert_eq!(a, b);
        assert!(a.len() as u64 >= WorkloadConfig::small(7).organic_events());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        // A different seed produces a different stream.
        let geo = GeoDb::new();
        let c = generate_workload(&WorkloadConfig::small(8), &geo);
        assert_ne!(a, c);
    }

    #[test]
    fn replay_log_round_trips_through_json() {
        let (_, events) = small_events();
        let log = ReplayLog::new(7, events[..50].to_vec());
        let back = ReplayLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.schema, REPLAY_SCHEMA);
    }

    #[test]
    fn replay_digest_is_reproducible_and_chains() {
        let (geo, events) = small_events();
        let mut svc = StreamingRiskService::new(RiskEngine::default());
        let whole = replay_stream(&mut svc, &geo, &events, DIGEST_SEED, |_, _, _| {});
        // Same stream, fresh service → same digest.
        let mut svc2 = StreamingRiskService::new(RiskEngine::default());
        let again = replay_stream(&mut svc2, &geo, &events, DIGEST_SEED, |_, _, _| {});
        assert_eq!(whole, again);
        // Chunked replay chains to the identical digest.
        let mut svc3 = StreamingRiskService::new(RiskEngine::default());
        let (head, tail) = events.split_at(events.len() / 2);
        let mid = replay_stream(&mut svc3, &geo, head, DIGEST_SEED, |_, _, _| {});
        let chunked = replay_stream(&mut svc3, &geo, tail, mid, |_, _, _| {});
        assert_eq!(whole, chunked);
    }

    #[test]
    fn adjudicate_honours_fixed_outcomes_and_decisions() {
        let mut e = ReplayLogin {
            at: SimTime::EPOCH,
            account: AccountId(0),
            ip: IpAddr(1),
            device: DeviceId(0),
            password_correct: true,
            challenge_pass: false,
            outcome: None,
        };
        assert_eq!(adjudicate(&e, RiskDecision::Allow), LoginOutcome::Success);
        assert_eq!(adjudicate(&e, RiskDecision::Block), LoginOutcome::Blocked);
        assert_eq!(adjudicate(&e, RiskDecision::Challenge), LoginOutcome::ChallengeFailed);
        e.challenge_pass = true;
        assert_eq!(adjudicate(&e, RiskDecision::Challenge), LoginOutcome::Success);
        e.password_correct = false;
        assert_eq!(adjudicate(&e, RiskDecision::Allow), LoginOutcome::WrongPassword);
        // A recorded outcome wins over everything.
        e.outcome = Some(LoginOutcome::SecondFactorFailed);
        assert_eq!(adjudicate(&e, RiskDecision::Allow), LoginOutcome::SecondFactorFailed);
    }

    #[test]
    fn sharding_partitions_by_account_preserving_order() {
        let (_, events) = small_events();
        let shards = shard_events(&events, 4);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), events.len());
        for (i, shard) in shards.iter().enumerate() {
            assert!(shard.iter().all(|e| e.account.index() % 4 == i));
            assert!(shard.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }
}
