//! Risk-scored recovery claims.
//!
//! The paper (§6) treats account recovery as the trusted path back into
//! a hijacked account, but follow-up work on risk-based authentication
//! (Büttner et al., PAPERS.md) shows the "forgot password" flow is the
//! soft underbelly: attackers who fail a login challenge pivot to a
//! recovery claim armed with harvested personal data. This module closes
//! that gap by scoring every claim with the *same* signal machinery the
//! login path uses ([`mhw_defense::signals`]) plus three claim-specific
//! signals:
//!
//! * **method strength** — accounts whose strongest recovery channel is
//!   weak (stale phone, mistyped or recycled secondary email) will ride
//!   a weak verification method, which attackers prefer;
//! * **secondary-channel reachability** — whether the provider can reach
//!   the claimant out of band at all to confirm the claim;
//! * **knowledge-based-answer plausibility** — how guessable the
//!   account's secret question is to a researching hijacker (§6.3 calls
//!   secret questions "insecure and unreliable").
//!
//! The combination is the same noisy-OR shape as the login
//! [`RiskEngine`](mhw_defense::RiskEngine): risk accumulates, and a
//! configurable [`RecoveryPosture`] maps the score to an
//! allow / step-up / deny [`RecoveryVerdict`].
//!
//! Scoring is a pure function of the claim context — it draws no
//! randomness and mutates no state — so a scored world stays
//! byte-for-byte reproducible and the same claim context always earns
//! the same verdict.

use mhw_defense::signals::{extract_signals, AccountHistory, LoginSignals};
use mhw_identity::options::AccountOptions;
use mhw_types::{CountryCode, DeviceId, SimTime};

/// The verdict a scored claim receives before any channel verification
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryVerdict {
    /// Proceed straight to channel verification.
    Allow,
    /// Proceed, but demand an extra verification factor first (an SMS
    /// code to the registered number, a second knowledge check). Owners
    /// usually pass; hijackers usually do not.
    StepUp,
    /// Refuse the claim outright: the context looks like a takeover
    /// attempt. For a rightful owner this is a *lockout*.
    Deny,
}

impl RecoveryVerdict {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryVerdict::Allow => "allow",
            RecoveryVerdict::StepUp => "step-up",
            RecoveryVerdict::Deny => "deny",
        }
    }
}

/// Score thresholds mapping claim risk to a [`RecoveryVerdict`], plus
/// how hard the step-up challenge is for the rightful owner.
///
/// Postures trade attack success against legitimate lockouts — the
/// frontier the `sweep` binary measures. [`RecoveryPosture::paper`] is
/// the default; [`RecoveryPosture::lenient`] barely intervenes and
/// [`RecoveryPosture::strict`] buys attack resistance with owner
/// friction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPosture {
    /// Scores at or above this earn [`RecoveryVerdict::StepUp`].
    pub step_up: f64,
    /// Scores at or above this earn [`RecoveryVerdict::Deny`].
    pub deny: f64,
    /// Probability the rightful owner completes the step-up challenge
    /// (§8.2: challenges are "easy to pass for our users").
    pub step_up_pass: f64,
}

impl Default for RecoveryPosture {
    fn default() -> Self {
        RecoveryPosture::paper()
    }
}

impl RecoveryPosture {
    /// The balanced posture calibrated to the paper's era: step up on
    /// clearly novel context, deny only near-certain takeovers.
    pub fn paper() -> Self {
        RecoveryPosture { step_up: 0.45, deny: 0.90, step_up_pass: 0.85 }
    }

    /// Minimal intervention: almost every claim proceeds unchallenged.
    pub fn lenient() -> Self {
        RecoveryPosture { step_up: 0.65, deny: 0.97, step_up_pass: 0.90 }
    }

    /// Aggressive posture: challenge early, deny moderate-risk claims,
    /// and grade the step-up harder — more lockouts, fewer takeovers.
    pub fn strict() -> Self {
        RecoveryPosture { step_up: 0.25, deny: 0.75, step_up_pass: 0.75 }
    }

    /// Map a risk score to a verdict.
    pub fn decide(&self, score: f64) -> RecoveryVerdict {
        if score >= self.deny {
            RecoveryVerdict::Deny
        } else if score >= self.step_up {
            RecoveryVerdict::StepUp
        } else {
            RecoveryVerdict::Allow
        }
    }
}

/// The normalized signal vector for one recovery claim: the six login
/// signals evaluated on the claim context, plus the three claim-specific
/// signals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClaimSignals {
    /// The login-path signals (country/device novelty, geo-velocity,
    /// fan-out, odd hours, failure bursts) evaluated against the
    /// account's login history at filing time.
    pub login: LoginSignals,
    /// 1 − strength of the account's strongest recovery channel: 0 for
    /// a fresh phone or verified secondary email, 1 when only the
    /// fallback (secret question / manual review) is available.
    pub weak_channel: f64,
    /// Whether the provider can reach the claimant out of band: 0 with
    /// two healthy channels, 0.5 with one, 1 with none.
    pub unreachable: f64,
    /// Guessability of the account's secret question to a researching
    /// hijacker, discounted when a strong channel would be used instead.
    pub kba_guessable: f64,
}

/// The outcome of scoring one claim: the noisy-OR risk score, the
/// posture's verdict, and the posture's owner pass rate for a step-up
/// (carried along so claim processing needs no posture reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimAssessment {
    /// Noisy-OR combined risk in `[0, 1)`.
    pub score: f64,
    /// The posture's decision for this score.
    pub verdict: RecoveryVerdict,
    /// [`RecoveryPosture::step_up_pass`] at assessment time.
    pub step_up_pass: f64,
}

/// Signal weights for the recovery noisy-OR. Order matches
/// [`LoginSignals::as_array`], followed by the three claim signals.
const RECOVERY_WEIGHTS: [f64; 9] = [
    0.55, // new_country
    0.70, // impossible_travel
    0.35, // new_device
    0.80, // ip_fanout
    0.10, // odd_hour
    0.30, // failure_burst
    0.30, // weak_channel
    0.25, // unreachable
    0.45, // kba_guessable
];

/// Strength of the account's strongest recovery channel, 0..1.
fn channel_strength(options: &AccountOptions) -> f64 {
    let sms = options
        .phone
        .as_ref()
        .map(|p| if p.up_to_date { 0.95 * p.gateway_reliability } else { 0.25 })
        .unwrap_or(0.0);
    let email = options
        .email
        .as_ref()
        .map(|e| match (e.recycled || e.mistyped, e.verified) {
            (true, _) => 0.10,
            (false, true) => 0.85,
            (false, false) => 0.60,
        })
        .unwrap_or(0.0);
    sms.max(email)
}

/// Whether a channel counts as reachable for out-of-band confirmation.
fn reachable_channels(options: &AccountOptions) -> usize {
    let phone_ok = options.phone.as_ref().map(|p| p.up_to_date).unwrap_or(false);
    let email_ok = options
        .email
        .as_ref()
        .map(|e| e.verified && !e.mistyped && !e.recycled)
        .unwrap_or(false);
    usize::from(phone_ok) + usize::from(email_ok)
}

/// Probability a hijacker armed with researched personal data completes
/// a recovery takeover once allowed to attempt verification, as a
/// noisy-OR over the account's weak spots: a guessable secret question,
/// a recycled (re-registerable) secondary email, and social-engineering
/// the manual review. `research_quality` is how much harvested data the
/// crew brings (0..1).
pub fn hijacker_takeover_probability(options: &AccountOptions, research_quality: f64) -> f64 {
    let q = research_quality.clamp(0.0, 1.0);
    let mut fail = 1.0;
    if let Some(sq) = &options.question {
        fail *= 1.0 - (0.9 * q * sq.guessability).clamp(0.0, 1.0);
    }
    if let Some(e) = &options.email {
        if e.recycled {
            // §6.3's recycling problem, from the attacker's side: the
            // address can be re-registered and the link received.
            fail *= 1.0 - 0.45;
        }
    }
    // Manual review social-engineered with harvested personal data.
    fail *= 1.0 - (0.05 + 0.15 * q);
    1.0 - fail
}

/// Scores recovery claims against a [`RecoveryPosture`].
///
/// Stateless besides the posture: signal extraction borrows the login
/// [`AccountHistory`] and the account's recovery options, so the service
/// can be constructed per claim for free.
///
/// ```
/// use mhw_recovery::risk::{RecoveryPosture, RecoveryRiskService, RecoveryVerdict};
/// use mhw_defense::signals::AccountHistory;
/// use mhw_identity::{RecoveryOptions, RecoveryPhone};
/// use mhw_types::{AccountId, CountryCode, DeviceId, PhoneNumber, SimTime, DAY, HOUR};
///
/// // An account with a month of home logins from one US device.
/// let mut history = AccountHistory::default();
/// for day in 0..30u64 {
///     history.record_success(
///         SimTime::from_secs(day * DAY + 9 * HOUR),
///         CountryCode::US,
///         DeviceId(1),
///     );
/// }
/// // …and an up-to-date recovery phone on file.
/// let mut store = RecoveryOptions::new();
/// store.register(AccountId(0));
/// store.init(
///     AccountId(0),
///     Some(RecoveryPhone {
///         number: PhoneNumber::new(CountryCode::US, 55510001),
///         up_to_date: true,
///         gateway_reliability: 0.95,
///     }),
///     None,
///     None,
/// );
/// let options = store.get(AccountId(0));
/// let service = RecoveryRiskService::new(RecoveryPosture::paper());
/// let at = SimTime::from_secs(30 * DAY + 10 * HOUR);
///
/// // The owner claiming from their usual device sails through…
/// let owner = service.extract(&history, at, Some(CountryCode::US), DeviceId(1), 1, options);
/// assert_eq!(service.assess(&owner).verdict, RecoveryVerdict::Allow);
///
/// // …while a foreign claim from unknown tooling is stopped.
/// let crew = service.extract(&history, at, Some(CountryCode::NG), DeviceId(999), 1, options);
/// let assessment = service.assess(&crew);
/// assert!(assessment.score > service.assess(&owner).score);
/// assert_ne!(assessment.verdict, RecoveryVerdict::Allow);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRiskService {
    /// The thresholds this service decides with.
    pub posture: RecoveryPosture,
}

impl Default for RecoveryRiskService {
    fn default() -> Self {
        RecoveryRiskService::new(RecoveryPosture::default())
    }
}

impl RecoveryRiskService {
    /// A service deciding with `posture`.
    pub fn new(posture: RecoveryPosture) -> Self {
        RecoveryRiskService { posture }
    }

    /// Extract the claim signal vector: the six login signals evaluated
    /// on the claim's context (where and from what device the claim is
    /// filed), plus the channel-health signals from the account's
    /// recovery options. `fanout_today` mirrors the login signal's
    /// contract (distinct accounts seen from the claimant's IP today,
    /// including this claim).
    pub fn extract(
        &self,
        history: &AccountHistory,
        at: SimTime,
        country: Option<CountryCode>,
        device: DeviceId,
        fanout_today: usize,
        options: &AccountOptions,
    ) -> ClaimSignals {
        let login = extract_signals(history, at, country, device, fanout_today);
        let strength = channel_strength(options);
        let weak_channel = 1.0 - strength;
        let unreachable = match reachable_channels(options) {
            0 => 1.0,
            1 => 0.5,
            _ => 0.0,
        };
        // A guessable question matters fully when the fallback is the
        // likely channel, and residually otherwise (the attacker can
        // steer a claim toward the knowledge test).
        let kba_guessable = options
            .question
            .as_ref()
            .map(|q| if strength < 0.5 { q.guessability } else { q.guessability * 0.25 })
            .unwrap_or(0.0);
        ClaimSignals { login, weak_channel, unreachable, kba_guessable }
    }

    /// Noisy-OR combination of the nine signals: risk accumulates, and
    /// no single weak signal can reach a deny on its own.
    pub fn score(&self, signals: &ClaimSignals) -> f64 {
        let l = signals.login.as_array();
        let all = [
            l[0],
            l[1],
            l[2],
            l[3],
            l[4],
            l[5],
            signals.weak_channel,
            signals.unreachable,
            signals.kba_guessable,
        ];
        let mut clean = 1.0;
        for (s, w) in all.iter().zip(RECOVERY_WEIGHTS) {
            clean *= 1.0 - (w * s).clamp(0.0, 1.0);
        }
        1.0 - clean
    }

    /// Score and decide in one step.
    pub fn assess(&self, signals: &ClaimSignals) -> ClaimAssessment {
        let score = self.score(signals);
        ClaimAssessment {
            score,
            verdict: self.posture.decide(score),
            step_up_pass: self.posture.step_up_pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_identity::{RecoveryEmail, RecoveryPhone, SecretQuestion};
    use mhw_types::{EmailAddress, PhoneNumber, DAY, HOUR};

    fn seasoned_history() -> AccountHistory {
        let mut h = AccountHistory::default();
        for d in 0..30u64 {
            h.record_success(SimTime::from_secs(d * DAY + 9 * HOUR), CountryCode::US, DeviceId(1));
        }
        h
    }

    fn build_options(
        phone: Option<RecoveryPhone>,
        email: Option<RecoveryEmail>,
        question: Option<SecretQuestion>,
    ) -> AccountOptions {
        let mut o = mhw_identity::RecoveryOptions::new();
        o.register(mhw_types::AccountId(0));
        o.init(mhw_types::AccountId(0), phone, email, question);
        o.get(mhw_types::AccountId(0)).clone()
    }

    fn healthy_options() -> AccountOptions {
        build_options(
            Some(RecoveryPhone {
                number: PhoneNumber::new(CountryCode::US, 55510001),
                up_to_date: true,
                gateway_reliability: 0.95,
            }),
            Some(RecoveryEmail {
                address: EmailAddress::new("me", "backup.net"),
                verified: true,
                mistyped: false,
                recycled: false,
            }),
            None,
        )
    }

    fn weak_options() -> AccountOptions {
        build_options(None, None, Some(SecretQuestion { owner_recall: 0.6, guessability: 0.5 }))
    }

    #[test]
    fn owner_claim_from_home_is_allowed_under_every_posture() {
        let h = seasoned_history();
        let at = SimTime::from_secs(30 * DAY + 10 * HOUR);
        for posture in [RecoveryPosture::lenient(), RecoveryPosture::paper(), RecoveryPosture::strict()] {
            let svc = RecoveryRiskService::new(posture);
            let s = svc.extract(&h, at, Some(CountryCode::US), DeviceId(1), 1, &healthy_options());
            assert_eq!(svc.assess(&s).verdict, RecoveryVerdict::Allow, "{posture:?}");
        }
    }

    #[test]
    fn crew_context_scores_above_owner_context() {
        let h = seasoned_history();
        let at = SimTime::from_secs(30 * DAY + 10 * HOUR);
        let svc = RecoveryRiskService::default();
        let owner = svc.extract(&h, at, Some(CountryCode::US), DeviceId(1), 1, &weak_options());
        let crew = svc.extract(&h, at, Some(CountryCode::NG), DeviceId(999), 1, &weak_options());
        assert!(svc.score(&crew) > svc.score(&owner));
        // The weak-channel account raises both, but the crew's novelty
        // signals dominate.
        assert!(svc.score(&crew) > 0.6, "{}", svc.score(&crew));
    }

    #[test]
    fn strict_posture_denies_what_paper_steps_up() {
        let h = seasoned_history();
        let at = SimTime::from_secs(30 * DAY + 10 * HOUR);
        let paper = RecoveryRiskService::new(RecoveryPosture::paper());
        let strict = RecoveryRiskService::new(RecoveryPosture::strict());
        let s = paper.extract(&h, at, Some(CountryCode::NG), DeviceId(999), 1, &weak_options());
        let score = paper.score(&s);
        assert_eq!(strict.score(&s), score, "score is posture-independent");
        // Thresholds are ordered: anything paper denies, strict denies.
        assert!(RecoveryPosture::strict().deny < RecoveryPosture::paper().deny);
        assert!(RecoveryPosture::strict().step_up < RecoveryPosture::paper().step_up);
    }

    #[test]
    fn scoring_is_pure_and_deterministic() {
        let h = seasoned_history();
        let at = SimTime::from_secs(30 * DAY + 10 * HOUR);
        let svc = RecoveryRiskService::default();
        let s1 = svc.extract(&h, at, Some(CountryCode::NG), DeviceId(7), 3, &weak_options());
        let s2 = svc.extract(&h, at, Some(CountryCode::NG), DeviceId(7), 3, &weak_options());
        assert_eq!(s1, s2);
        assert_eq!(svc.assess(&s1), svc.assess(&s2));
    }

    #[test]
    fn takeover_probability_tracks_account_weakness() {
        let healthy = hijacker_takeover_probability(&healthy_options(), 0.8);
        let weak = hijacker_takeover_probability(&weak_options(), 0.8);
        assert!(weak > healthy, "{weak} vs {healthy}");
        // Research quality matters.
        assert!(
            hijacker_takeover_probability(&weak_options(), 0.9)
                > hijacker_takeover_probability(&weak_options(), 0.1)
        );
        // A recycled secondary email is a large attack surface.
        let mut recycled = healthy_options();
        if let Some(e) = &mut recycled.email {
            e.recycled = true;
        }
        assert!(hijacker_takeover_probability(&recycled, 0.5) > 0.45);
        // Bounded.
        for q in [0.0, 0.5, 1.0] {
            let p = hijacker_takeover_probability(&weak_options(), q);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn verdict_thresholds_are_inclusive() {
        let p = RecoveryPosture::paper();
        assert_eq!(p.decide(p.step_up), RecoveryVerdict::StepUp);
        assert_eq!(p.decide(p.deny), RecoveryVerdict::Deny);
        assert_eq!(p.decide(p.step_up - 1e-9), RecoveryVerdict::Allow);
    }
}
