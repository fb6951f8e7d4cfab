//! The login log.
//!
//! An append-only record of every authentication attempt, successful or
//! not — the simulator's version of the auth logs behind Datasets 4, 5,
//! 7 and 13 (Table 1). Each record captures what a real provider sees
//! (time, IP, device, outcome, challenge disposition) plus the
//! ground-truth actor for measurement labelling.

use mhw_obs::{MetricId, Registry};
use mhw_types::{
    AccountId, Actor, DeviceId, Entries, Entry, IpAddr, LogKey, LogStore, SessionId, ShardId,
    SimTime,
};
use serde::{Deserialize, Serialize};

/// Every authentication attempt appended, regardless of outcome.
pub const M_LOGIN_ATTEMPTS: MetricId = MetricId("identity.login_attempts");
/// Attempts that ended in [`LoginOutcome::Success`].
pub const M_LOGIN_SUCCESS: MetricId = MetricId("identity.login_success");
/// Attempts rejected for a wrong password.
pub const M_LOGIN_WRONG_PASSWORD: MetricId = MetricId("identity.login_wrong_password");
/// Correct-password attempts the risk engine blocked outright.
pub const M_LOGIN_BLOCKED: MetricId = MetricId("identity.login_blocked");
/// Login challenges served (§8.2).
pub const M_CHALLENGES_ISSUED: MetricId = MetricId("identity.challenges_issued");
/// Served challenges the actor failed.
pub const M_CHALLENGES_FAILED: MetricId = MetricId("identity.challenges_failed");
/// Correct-password attempts stopped by an unsatisfied second factor.
pub const M_SECOND_FACTOR_FAILURES: MetricId = MetricId("identity.second_factor_failures");

/// The verification step a risky login was redirected to (§8.2's "login
/// challenge").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChallengeKind {
    /// Prove possession of the enrolled/registered phone via SMS code.
    SmsCode,
    /// Answer knowledge questions (guessable by researching the victim).
    Knowledge,
}

/// Outcome of a served challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChallengeResult {
    pub kind: ChallengeKind,
    pub passed: bool,
}

/// Final outcome of a login attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoginOutcome {
    /// Authenticated; a session was issued.
    Success,
    /// Wrong password.
    WrongPassword,
    /// Password correct but the risk engine blocked outright.
    Blocked,
    /// Password correct, challenge served and failed.
    ChallengeFailed,
    /// Password correct but the enrolled second factor was not
    /// satisfied (§8.2; also fires on owners locked out by the crews'
    /// 2FA tactic).
    SecondFactorFailed,
}

impl LoginOutcome {
    pub fn is_success(self) -> bool {
        matches!(self, LoginOutcome::Success)
    }
}

/// One login attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct LoginRecord {
    pub at: SimTime,
    pub account: AccountId,
    pub ip: IpAddr,
    pub device: DeviceId,
    pub actor: Actor,
    /// Whether the supplied password was (exactly) correct.
    pub password_correct: bool,
    /// Risk score assigned by the login risk engine, 0..1.
    pub risk_score: f64,
    pub challenge: Option<ChallengeResult>,
    pub outcome: LoginOutcome,
    /// Session issued on success.
    pub session: Option<SessionId>,
}

/// Append-only login log with measurement helpers, backed by the
/// workspace-wide [`LogStore`] segment API.
///
/// Every [`append`](LoginLog::append) also updates the log's metrics
/// [`Registry`] (attempt, outcome and challenge counters), so a shard's
/// authentication activity is observable without replaying its records.
#[derive(Debug, Clone)]
pub struct LoginLog {
    store: LogStore<LoginRecord>,
    next_session: u32,
    metrics: Registry,
}

impl Default for LoginLog {
    fn default() -> Self {
        LoginLog {
            store: LogStore::default(),
            next_session: 0,
            metrics: Registry::new()
                .with_counter(M_LOGIN_ATTEMPTS)
                .with_counter(M_LOGIN_SUCCESS)
                .with_counter(M_LOGIN_WRONG_PASSWORD)
                .with_counter(M_LOGIN_BLOCKED)
                .with_counter(M_CHALLENGES_ISSUED)
                .with_counter(M_CHALLENGES_FAILED)
                .with_counter(M_SECOND_FACTOR_FAILURES),
        }
    }
}

/// Session (and message) id namespaces are sharded through their high
/// byte so ids stay globally unique when multiple logical shards
/// allocate independently.
const SHARD_ID_NAMESPACE: u32 = 1 << 24;

impl LoginLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// A login log owned by logical shard `shard`: records are stamped
    /// with the shard id and session ids come from a per-shard
    /// namespace, so segments from different shards never collide.
    pub fn for_shard(shard: ShardId) -> Self {
        LoginLog {
            store: LogStore::for_shard(shard),
            next_session: shard as u32 * SHARD_ID_NAMESPACE,
            ..Self::default()
        }
    }

    /// The log's metrics registry (counters updated by
    /// [`append`](LoginLog::append)).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Allocate a session id (the caller embeds it in the record).
    pub fn allocate_session(&mut self) -> SessionId {
        let s = SessionId(self.next_session);
        self.next_session += 1;
        s
    }

    /// Append a record. Records arrive in *approximately* increasing
    /// time order (concurrent sessions interleave, exactly like real
    /// log ingestion), so every query below is order-independent.
    pub fn append(&mut self, record: LoginRecord) -> LogKey {
        self.count(&record);
        self.store.append(record.at, record)
    }

    fn count(&self, record: &LoginRecord) {
        self.metrics.inc(M_LOGIN_ATTEMPTS);
        match record.outcome {
            LoginOutcome::Success => self.metrics.inc(M_LOGIN_SUCCESS),
            LoginOutcome::WrongPassword => self.metrics.inc(M_LOGIN_WRONG_PASSWORD),
            LoginOutcome::Blocked => self.metrics.inc(M_LOGIN_BLOCKED),
            LoginOutcome::ChallengeFailed => {}
            LoginOutcome::SecondFactorFailed => self.metrics.inc(M_SECOND_FACTOR_FAILURES),
        }
        if let Some(challenge) = record.challenge {
            self.metrics.inc(M_CHALLENGES_ISSUED);
            if !challenge.passed {
                self.metrics.inc(M_CHALLENGES_FAILED);
            }
        }
    }

    /// The stamped records in emission order (read straight off the
    /// segment's columns).
    pub fn records(&self) -> Entries<'_, LoginRecord> {
        self.store.iter()
    }

    /// The underlying segment (for cross-shard merging).
    pub fn store(&self) -> &LogStore<LoginRecord> {
        &self.store
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// All records for an account.
    pub fn for_account(&self, account: AccountId) -> impl Iterator<Item = Entry<'_, LoginRecord>> {
        self.store.iter().filter(move |r| r.account == account)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::CrewId;

    fn rec(at: u64, account: u32, ip: IpAddr, outcome: LoginOutcome) -> LoginRecord {
        LoginRecord {
            at: SimTime::from_secs(at),
            account: AccountId(account),
            ip,
            device: DeviceId(0),
            actor: Actor::Hijacker(CrewId(0)),
            password_correct: true,
            risk_score: 0.1,
            challenge: None,
            outcome,
            session: None,
        }
    }

    #[test]
    fn session_ids_are_unique() {
        let mut log = LoginLog::new();
        let a = log.allocate_session();
        let b = log.allocate_session();
        assert_ne!(a, b);
    }

    #[test]
    fn iterators_filter_correctly() {
        let mut log = LoginLog::new();
        let ip = IpAddr::new(41, 0, 0, 1);
        log.append(rec(1, 1, ip, LoginOutcome::Success));
        log.append(rec(2, 2, ip, LoginOutcome::Blocked));
        assert_eq!(log.for_account(AccountId(1)).count(), 1);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn append_updates_metrics() {
        let mut log = LoginLog::new();
        let ip = IpAddr::new(41, 0, 0, 1);
        log.append(rec(1, 1, ip, LoginOutcome::Success));
        log.append(rec(2, 1, ip, LoginOutcome::WrongPassword));
        let mut challenged = rec(3, 1, ip, LoginOutcome::ChallengeFailed);
        challenged.challenge = Some(ChallengeResult { kind: ChallengeKind::SmsCode, passed: false });
        log.append(challenged);
        let m = log.metrics();
        assert_eq!(m.counter_value(M_LOGIN_ATTEMPTS), Some(3));
        assert_eq!(m.counter_value(M_LOGIN_SUCCESS), Some(1));
        assert_eq!(m.counter_value(M_LOGIN_WRONG_PASSWORD), Some(1));
        assert_eq!(m.counter_value(M_CHALLENGES_ISSUED), Some(1));
        assert_eq!(m.counter_value(M_CHALLENGES_FAILED), Some(1));
    }

    #[test]
    fn outcome_success_classification() {
        assert!(LoginOutcome::Success.is_success());
        assert!(!LoginOutcome::Blocked.is_success());
        assert!(!LoginOutcome::ChallengeFailed.is_success());
        assert!(!LoginOutcome::WrongPassword.is_success());
    }
}
