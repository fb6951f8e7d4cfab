//! Claim processing.
//!
//! The recovery part of the §6.1 workflow: verify ownership over the
//! best available channel, and on success force a password reset so the
//! hijacker's credentials stop working. Cleanup (remission) is a
//! separate, optional step (§6.4: users preferred "content recovery an
//! optional last step rather than having a fully automated process").

use crate::claim::{ClaimTrigger, RecoveryClaim};
use crate::methods::{method_success_probability, select_method, RecoveryMethod};
use crate::risk::{ClaimAssessment, RecoveryVerdict};
use mhw_identity::{CredentialStore, RecoveryOptions};
use mhw_obs::{buckets, MetricId, Registry};
use mhw_simclock::SimRng;
use mhw_types::{AccountId, Actor, ClaimId, SimDuration, SimTime};

/// Claims filed with the service.
pub const M_CLAIMS_FILED: MetricId = MetricId("recovery.claims_filed");
/// Claims whose verification succeeded (password reset).
pub const M_CLAIMS_SUCCEEDED: MetricId = MetricId("recovery.claims_succeeded");
/// Claims whose verification failed.
pub const M_CLAIMS_FAILED: MetricId = MetricId("recovery.claims_failed");
/// Flag → resolution latency, simulated seconds (the Figure 9
/// recovery-latency distribution).
pub const M_RESOLUTION_LATENCY_SECS: MetricId = MetricId("recovery.resolution_latency_secs");
/// Claims answered with a step-up challenge by the risk layer.
pub const M_CLAIMS_STEPPED_UP: MetricId = MetricId("recovery.claims_stepped_up");
/// Claims denied outright by the risk layer.
pub const M_CLAIMS_DENIED: MetricId = MetricId("recovery.claims_denied");
/// Hijacker recovery-pivot claims filed (kept out of the owner claim
/// counters so Figure 9/10 measurements stay owner-only).
pub const M_PIVOT_CLAIMS: MetricId = MetricId("recovery.pivot_claims");
/// Pivot claims that produced a password takeover.
pub const M_PIVOT_TAKEOVERS: MetricId = MetricId("recovery.pivot_takeovers");

/// Outcome of processing one claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimResolution {
    /// The processed claim as recorded in the claim log.
    pub claim: RecoveryClaim,
    /// New password set on success (synthetic token).
    pub password_reset: bool,
}

/// The recovery service.
#[derive(Debug, Clone)]
pub struct RecoveryService {
    next_claim: u32,
    claims: Vec<RecoveryClaim>,
    /// Fraction of dual-option users who pick email over SMS (email is
    /// "our most popular account recovery option", §6.3).
    pub email_preference: f64,
    metrics: Registry,
}

impl Default for RecoveryService {
    fn default() -> Self {
        Self::new()
    }
}

impl RecoveryService {
    /// An empty service with the paper-calibrated email preference.
    pub fn new() -> Self {
        RecoveryService {
            next_claim: 0,
            claims: Vec::new(),
            email_preference: 0.60,
            metrics: Registry::new()
                .with_counter(M_CLAIMS_FILED)
                .with_counter(M_CLAIMS_SUCCEEDED)
                .with_counter(M_CLAIMS_FAILED)
                .with_counter(M_CLAIMS_STEPPED_UP)
                .with_counter(M_CLAIMS_DENIED)
                .with_counter(M_PIVOT_CLAIMS)
                .with_counter(M_PIVOT_TAKEOVERS)
                .with_histogram(M_RESOLUTION_LATENCY_SECS, buckets::LATENCY_SECS),
        }
    }

    /// The service's metrics registry (claim counters and the
    /// flag-to-resolution latency distribution).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// All processed claims (the Figure 9/10 dataset).
    pub fn claims(&self) -> &[RecoveryClaim] {
        &self.claims
    }

    /// File and immediately process a claim, with an optional risk
    /// assessment from the
    /// [`RecoveryRiskService`](crate::risk::RecoveryRiskService).
    ///
    /// Verification takes minutes; the dominant latency component is how
    /// long the victim took to *file* (modelled upstream). On success
    /// the password is reset by the system, evicting the hijacker.
    ///
    /// With `assessment == None` this is the unscored path: it draws
    /// exactly the same RNG sequence as before claim risk scoring
    /// existed, so worlds with scoring disabled stay byte-for-byte
    /// reproducible. With a verdict attached:
    ///
    /// * [`RecoveryVerdict::Deny`] — the claim fails regardless of the
    ///   channel outcome (for a rightful owner, a lockout);
    /// * [`RecoveryVerdict::StepUp`] — a channel success must also pass
    ///   the step-up challenge ([`ClaimAssessment::step_up_pass`]);
    /// * [`RecoveryVerdict::Allow`] — verification proceeds as usual.
    #[allow(clippy::too_many_arguments)]
    pub fn process_claim_assessed(
        &mut self,
        account: AccountId,
        hijacked_at: SimTime,
        flagged_at: SimTime,
        trigger: ClaimTrigger,
        filed_at: SimTime,
        options: &RecoveryOptions,
        credentials: &mut CredentialStore,
        exclude: &[RecoveryMethod],
        assessment: Option<ClaimAssessment>,
        rng: &mut SimRng,
    ) -> ClaimResolution {
        let id = ClaimId(self.next_claim);
        self.next_claim += 1;
        let opts = options.get(account);
        let method = select_method(opts, rng.chance(self.email_preference), exclude);
        let p = method_success_probability(method, opts);
        let channel_ok = rng.chance(p);
        let succeeded = match assessment.map(|a| a.verdict) {
            None | Some(RecoveryVerdict::Allow) => channel_ok,
            Some(RecoveryVerdict::StepUp) => {
                self.metrics.inc(M_CLAIMS_STEPPED_UP);
                // The extra draw only happens on stepped-up claims, which
                // only exist in scored worlds — unscored worlds keep the
                // legacy draw sequence.
                let pass = assessment.map(|a| a.step_up_pass).unwrap_or(1.0);
                channel_ok && rng.chance(pass)
            }
            Some(RecoveryVerdict::Deny) => {
                self.metrics.inc(M_CLAIMS_DENIED);
                false
            }
        };
        // Verification round-trip: minutes for SMS/email, longer for
        // fallback review.
        let processing = match method {
            RecoveryMethod::Sms => SimDuration::from_mins(3 + rng.below(10)),
            RecoveryMethod::Email => SimDuration::from_mins(5 + rng.below(25)),
            RecoveryMethod::Fallback => SimDuration::from_hours(2 + rng.below(20)),
        };
        let resolved_at = filed_at.plus(processing);
        let mut password_reset = false;
        if succeeded {
            let new_pw = format!("reset-{}-{}", account.index(), rng.below(1_000_000));
            credentials.change_password(account, Actor::System, &new_pw, resolved_at);
            password_reset = true;
        }
        self.metrics.inc(M_CLAIMS_FILED);
        if succeeded {
            self.metrics.inc(M_CLAIMS_SUCCEEDED);
        } else {
            self.metrics.inc(M_CLAIMS_FAILED);
        }
        self.metrics
            .observe(M_RESOLUTION_LATENCY_SECS, resolved_at.since(flagged_at).as_secs());
        let claim = RecoveryClaim {
            id,
            account,
            hijacked_at,
            flagged_at,
            trigger,
            filed_at,
            method: Some(method),
            succeeded,
            resolved_at: Some(resolved_at),
            risk_score: assessment.map(|a| a.score),
            verdict: assessment.map(|a| a.verdict),
        };
        self.claims.push(claim.clone());
        ClaimResolution { claim, password_reset }
    }

    /// Process a hijacker's recovery-pivot claim: a crew that failed the
    /// login challenge filing "forgot password" with harvested personal
    /// data (the Büttner et al. attack).
    ///
    /// `takeover_probability` is the caller's channel-takeover estimate
    /// (see [`hijacker_takeover_probability`](crate::risk::hijacker_takeover_probability)),
    /// already discounted for a step-up verdict. A
    /// [`RecoveryVerdict::Deny`] fails outright. On success the
    /// *hijacker* resets the password, completing the takeover.
    ///
    /// Pivot claims are logged with [`ClaimTrigger::HijackerPivot`] and
    /// counted under the dedicated pivot metrics only, so owner-side
    /// measurements (Figure 9 latency, Figure 10 method rates) are
    /// unaffected.
    #[allow(clippy::too_many_arguments)]
    pub fn process_hijacker_claim(
        &mut self,
        account: AccountId,
        hijacked_at: SimTime,
        filed_at: SimTime,
        assessment: ClaimAssessment,
        takeover_probability: f64,
        actor: Actor,
        credentials: &mut CredentialStore,
        rng: &mut SimRng,
    ) -> ClaimResolution {
        let id = ClaimId(self.next_claim);
        self.next_claim += 1;
        // One draw regardless of verdict, so a posture change alone
        // never shifts the stream for later claims.
        let channel_ok = rng.chance(takeover_probability);
        let succeeded = channel_ok && assessment.verdict != RecoveryVerdict::Deny;
        if assessment.verdict == RecoveryVerdict::Deny {
            self.metrics.inc(M_CLAIMS_DENIED);
        }
        // Pivots ride the fallback channel (knowledge test / manual
        // review with researched answers) — hours, not minutes.
        let processing = SimDuration::from_hours(2 + rng.below(20));
        let resolved_at = filed_at.plus(processing);
        let mut password_reset = false;
        if succeeded {
            let new_pw = format!("pivot-{}-{}", account.index(), rng.below(1_000_000));
            credentials.change_password(account, actor, &new_pw, resolved_at);
            password_reset = true;
        }
        self.metrics.inc(M_PIVOT_CLAIMS);
        if succeeded {
            self.metrics.inc(M_PIVOT_TAKEOVERS);
        }
        let claim = RecoveryClaim {
            id,
            account,
            hijacked_at,
            // No provider flag is involved in a pivot; the claim's own
            // filing time anchors it.
            flagged_at: filed_at,
            trigger: ClaimTrigger::HijackerPivot,
            filed_at,
            method: Some(RecoveryMethod::Fallback),
            succeeded,
            resolved_at: Some(resolved_at),
            risk_score: Some(assessment.score),
            verdict: Some(assessment.verdict),
        };
        self.claims.push(claim.clone());
        ClaimResolution { claim, password_reset }
    }

    /// Success rate per method over all *owner* claims (Figure 10).
    /// Hijacker-pivot claims are excluded: they measure the attacker,
    /// not the recovery channels.
    pub fn success_rate_by_method(&self) -> Vec<(RecoveryMethod, f64, usize)> {
        RecoveryMethod::ALL
            .iter()
            .map(|m| {
                let of_method: Vec<_> = self
                    .claims
                    .iter()
                    .filter(|c| c.method == Some(*m) && c.trigger != ClaimTrigger::HijackerPivot)
                    .collect();
                let n = of_method.len();
                let ok = of_method.iter().filter(|c| c.succeeded).count();
                (*m, if n == 0 { 0.0 } else { ok as f64 / n as f64 }, n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_identity::{RecoveryEmail, RecoveryPhone};
    use mhw_types::{CountryCode, EmailAddress, PhoneNumber};

    struct Fixture {
        options: RecoveryOptions,
        credentials: CredentialStore,
        service: RecoveryService,
        rng: SimRng,
    }

    /// Build `n` accounts with the given option layout.
    fn fixture(n: usize, phone: bool, email: bool) -> Fixture {
        let mut options = RecoveryOptions::new();
        let mut credentials = CredentialStore::new();
        for i in 0..n {
            let a = AccountId::from_index(i);
            options.register(a);
            credentials.register(a, &format!("pw{i}"));
            options.init(
                a,
                phone.then(|| RecoveryPhone {
                    number: PhoneNumber::new(CountryCode::US, 10_000_000 + i as u64),
                    up_to_date: i % 12 != 0, // ~8% stale
                    gateway_reliability: 0.95,
                }),
                email.then(|| RecoveryEmail {
                    address: EmailAddress::new(format!("b{i}"), "backup.net"),
                    verified: true,
                    mistyped: i % 20 == 0, // 5%
                    recycled: i % 14 == 0, // ~7%
                }),
                None,
            );
        }
        Fixture {
            options,
            credentials,
            service: RecoveryService::new(),
            rng: SimRng::from_seed(77),
        }
    }

    fn run_all(f: &mut Fixture, n: usize) {
        for i in 0..n {
            let a = AccountId::from_index(i);
            f.service.process_claim_assessed(
                a,
                SimTime::from_secs(1000),
                SimTime::from_secs(1500),
                ClaimTrigger::SelfNoticed,
                SimTime::from_secs(5000),
                &f.options,
                &mut f.credentials,
                &[],
                None,
                &mut f.rng,
            );
        }
    }

    #[test]
    fn successful_claims_reset_the_password() {
        let mut f = fixture(50, true, false);
        run_all(&mut f, 50);
        for c in f.service.claims() {
            if c.succeeded {
                assert!(
                    !f.credentials.verify(c.account, &format!("pw{}", c.account.index())),
                    "old password must die on recovery"
                );
                let last = f.credentials.changes(c.account).last().unwrap();
                assert_eq!(last.actor, Actor::System);
            } else {
                assert!(f.credentials.verify(c.account, &format!("pw{}", c.account.index())));
            }
        }
    }

    #[test]
    fn sms_success_rate_matches_figure10_band() {
        let mut f = fixture(4000, true, false);
        run_all(&mut f, 4000);
        let rates = f.service.success_rate_by_method();
        let (_, sms_rate, sms_n) = rates[0];
        assert!(sms_n > 3900);
        // Figure 10: 80.91%. Our decomposition: 92% fresh × 95% gateway ×
        // 95.5% non-confusion ≈ 0.834.
        assert!((sms_rate - 0.81).abs() < 0.05, "SMS rate {sms_rate}");
    }

    #[test]
    fn email_success_rate_matches_figure10_band() {
        let mut f = fixture(4000, false, true);
        run_all(&mut f, 4000);
        let rates = f.service.success_rate_by_method();
        let (_, email_rate, email_n) = rates[1];
        // Recycled addresses fall through to fallback.
        assert!(email_n > 3500);
        assert!((email_rate - 0.745).abs() < 0.06, "email rate {email_rate}");
    }

    #[test]
    fn fallback_success_rate_is_poor() {
        let mut f = fixture(3000, false, false);
        run_all(&mut f, 3000);
        let rates = f.service.success_rate_by_method();
        let (_, rate, n) = rates[2];
        assert_eq!(n, 3000);
        assert!(rate < 0.2, "fallback rate {rate}");
    }

    #[test]
    fn unscored_and_allow_assessed_claims_draw_identically() {
        // An Allow assessment must not disturb the RNG stream: same
        // seed, same outcome, same stream position afterwards.
        let mut a = fixture(20, true, true);
        let mut b = fixture(20, true, true);
        for i in 0..20 {
            let acct = AccountId::from_index(i);
            let r1 = a.service.process_claim_assessed(
                acct,
                SimTime::from_secs(1000),
                SimTime::from_secs(1500),
                ClaimTrigger::SelfNoticed,
                SimTime::from_secs(5000),
                &a.options,
                &mut a.credentials,
                &[],
                None,
                &mut a.rng,
            );
            let r2 = b.service.process_claim_assessed(
                acct,
                SimTime::from_secs(1000),
                SimTime::from_secs(1500),
                ClaimTrigger::SelfNoticed,
                SimTime::from_secs(5000),
                &b.options,
                &mut b.credentials,
                &[],
                Some(ClaimAssessment {
                    score: 0.1,
                    verdict: RecoveryVerdict::Allow,
                    step_up_pass: 0.85,
                }),
                &mut b.rng,
            );
            assert_eq!(r1.claim.succeeded, r2.claim.succeeded);
            assert_eq!(r1.claim.method, r2.claim.method);
            assert_eq!(r1.claim.resolved_at, r2.claim.resolved_at);
        }
        assert_eq!(a.rng.state(), b.rng.state(), "Allow verdicts must not consume draws");
    }

    #[test]
    fn denied_claims_never_reset_the_password() {
        let mut f = fixture(200, true, true);
        for i in 0..200 {
            let acct = AccountId::from_index(i);
            let r = f.service.process_claim_assessed(
                acct,
                SimTime::from_secs(1000),
                SimTime::from_secs(1500),
                ClaimTrigger::SelfNoticed,
                SimTime::from_secs(5000),
                &f.options,
                &mut f.credentials,
                &[],
                Some(ClaimAssessment {
                    score: 0.95,
                    verdict: RecoveryVerdict::Deny,
                    step_up_pass: 0.85,
                }),
                &mut f.rng,
            );
            assert!(!r.claim.succeeded && !r.password_reset);
            assert_eq!(r.claim.verdict, Some(RecoveryVerdict::Deny));
            assert!(f.credentials.verify(acct, &format!("pw{i}")));
        }
        assert_eq!(f.service.metrics().snapshot().counter("recovery.claims_denied"), Some(200));
    }

    #[test]
    fn step_up_lowers_but_does_not_zero_success() {
        let run = |assessment: Option<ClaimAssessment>| {
            let mut f = fixture(2000, true, true);
            for i in 0..2000 {
                let acct = AccountId::from_index(i);
                f.service.process_claim_assessed(
                    acct,
                    SimTime::from_secs(1000),
                    SimTime::from_secs(1500),
                    ClaimTrigger::SelfNoticed,
                    SimTime::from_secs(5000),
                    &f.options,
                    &mut f.credentials,
                    &[],
                    assessment,
                    &mut f.rng,
                );
            }
            f.service.claims().iter().filter(|c| c.succeeded).count()
        };
        let plain = run(None);
        let stepped = run(Some(ClaimAssessment {
            score: 0.5,
            verdict: RecoveryVerdict::StepUp,
            step_up_pass: 0.5,
        }));
        assert!(stepped > 0, "owners still get through a step-up");
        assert!(
            (stepped as f64) < plain as f64 * 0.75,
            "step-up must cost successes: {stepped} vs {plain}"
        );
    }

    #[test]
    fn hijacker_pivot_claims_stay_out_of_owner_measurements() {
        let mut f = fixture(10, true, true);
        let assessment =
            ClaimAssessment { score: 0.5, verdict: RecoveryVerdict::StepUp, step_up_pass: 0.85 };
        let mut takeovers = 0;
        for i in 0..10 {
            let acct = AccountId::from_index(i);
            let r = f.service.process_hijacker_claim(
                acct,
                SimTime::from_secs(1000),
                SimTime::from_secs(5000),
                assessment,
                0.9,
                Actor::Hijacker(mhw_types::CrewId(1)),
                &mut f.credentials,
                &mut f.rng,
            );
            assert_eq!(r.claim.trigger, ClaimTrigger::HijackerPivot);
            assert_eq!(r.claim.latency(), None);
            if r.password_reset {
                takeovers += 1;
                assert!(
                    !f.credentials.verify(acct, &format!("pw{i}")),
                    "takeover must rotate the password"
                );
                let last = f.credentials.changes(acct).last().unwrap();
                assert!(last.actor.is_hijacker());
            }
        }
        assert!(takeovers > 0, "0.9 takeover probability over 10 claims");
        // Owner-side measurements exclude every pivot claim.
        for (_, _, n) in f.service.success_rate_by_method() {
            assert_eq!(n, 0, "pivot claims leaked into Figure 10 rates");
        }
        let snap = f.service.metrics().snapshot();
        assert_eq!(snap.counter("recovery.claims_filed"), Some(0));
        assert_eq!(snap.counter("recovery.pivot_claims"), Some(10));
        assert_eq!(snap.counter("recovery.pivot_takeovers"), Some(takeovers));
    }

    #[test]
    fn denied_hijacker_pivot_cannot_take_over() {
        let mut f = fixture(5, true, true);
        let assessment =
            ClaimAssessment { score: 0.99, verdict: RecoveryVerdict::Deny, step_up_pass: 0.85 };
        for i in 0..5 {
            let r = f.service.process_hijacker_claim(
                AccountId::from_index(i),
                SimTime::from_secs(1000),
                SimTime::from_secs(5000),
                assessment,
                1.0,
                Actor::Hijacker(mhw_types::CrewId(1)),
                &mut f.credentials,
                &mut f.rng,
            );
            assert!(!r.password_reset, "deny must be absolute");
        }
    }

    #[test]
    fn resolution_time_moves_forward() {
        let mut f = fixture(10, true, true);
        run_all(&mut f, 10);
        for c in f.service.claims() {
            assert!(c.resolved_at.unwrap() > c.filed_at);
        }
    }
}
