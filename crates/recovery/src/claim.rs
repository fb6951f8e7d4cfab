//! Recovery claims.

use crate::methods::RecoveryMethod;
use crate::risk::RecoveryVerdict;
use mhw_types::{AccountId, ClaimId, SimTime};

/// What made the claimant start the recovery process (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClaimTrigger {
    /// A proactive notification over an independent channel ("the
    /// fastest recoveries are best explained by the proactive
    /// notifications we send").
    Notification,
    /// The victim noticed by themselves — password dead, strange sent
    /// mail, a contact called them.
    SelfNoticed,
    /// The provider's anti-abuse systems disabled the account "to
    /// prevent further damage".
    AccountDisabled,
    /// Not the victim at all: a hijacker who failed the login challenge
    /// pivoting to "forgot password" with harvested personal data (the
    /// recovery-pivot attack; Büttner et al.). Owner-side measurements
    /// (Figure 9 latency, Figure 10 method rates) exclude these.
    HijackerPivot,
}

/// One account-recovery claim.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryClaim {
    /// Claim identifier, dense in filing order.
    pub id: ClaimId,
    /// The account being claimed.
    pub account: AccountId,
    /// When the hijack actually began (ground truth; used for latency
    /// measurement, not by the claim processor).
    pub hijacked_at: SimTime,
    /// When the provider's risk systems flagged the account (the paper
    /// measures recovery latency from this instant).
    pub flagged_at: SimTime,
    /// What started the recovery process.
    pub trigger: ClaimTrigger,
    /// When the claim entered the pipeline.
    pub filed_at: SimTime,
    /// The verification channel the claim rode, once selected.
    pub method: Option<RecoveryMethod>,
    /// Whether verification succeeded (and the password was reset).
    pub succeeded: bool,
    /// When the claim resolved either way.
    pub resolved_at: Option<SimTime>,
    /// Noisy-OR risk score assigned by the
    /// [`RecoveryRiskService`](crate::risk::RecoveryRiskService), when
    /// claim risk scoring was enabled for the run.
    pub risk_score: Option<f64>,
    /// The risk verdict the claim received before verification, when
    /// claim risk scoring was enabled for the run.
    pub verdict: Option<RecoveryVerdict>,
}

impl RecoveryClaim {
    /// End-to-end latency as Figure 9 defines it: from risk-flagging to
    /// the owner regaining exclusive control. Hijacker-pivot claims are
    /// not owner recoveries and report `None`.
    pub fn latency(&self) -> Option<mhw_types::SimDuration> {
        self.resolved_at
            .filter(|_| self.succeeded && self.trigger != ClaimTrigger::HijackerPivot)
            .map(|r| r.since(self.flagged_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::SimDuration;

    fn claim() -> RecoveryClaim {
        RecoveryClaim {
            id: ClaimId(0),
            account: AccountId(0),
            hijacked_at: SimTime::from_secs(100),
            flagged_at: SimTime::from_secs(200),
            trigger: ClaimTrigger::Notification,
            filed_at: SimTime::from_secs(300),
            method: Some(RecoveryMethod::Sms),
            succeeded: true,
            resolved_at: Some(SimTime::from_secs(500)),
            risk_score: None,
            verdict: None,
        }
    }

    #[test]
    fn latency_only_for_successful_claims() {
        let mut c = claim();
        assert_eq!(c.latency(), Some(SimDuration::from_secs(300)));
        c.succeeded = false;
        assert_eq!(c.latency(), None);
        c.succeeded = true;
        c.resolved_at = None;
        assert_eq!(c.latency(), None);
    }

    #[test]
    fn pivot_claims_never_count_as_owner_recoveries() {
        let mut c = claim();
        c.trigger = ClaimTrigger::HijackerPivot;
        assert_eq!(c.latency(), None, "a takeover is not a recovery");
    }
}
