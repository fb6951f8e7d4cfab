//! Recovery verification methods and their failure modes (§6.3).

use mhw_identity::options::AccountOptions;

/// The verification channel used for one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMethod {
    /// SMS code to the registered phone — "the most reliable recovery
    /// option" (80.91% in Figure 10).
    Sms,
    /// Link to the secondary email — "our most popular account recovery
    /// option" (74.57%).
    Email,
    /// Secret questions / knowledge tests / manual review (14.20%).
    Fallback,
}

impl RecoveryMethod {
    /// Every channel, in Figure 10 order (SMS, email, fallback).
    pub const ALL: [RecoveryMethod; 3] =
        [RecoveryMethod::Sms, RecoveryMethod::Email, RecoveryMethod::Fallback];

    /// Human-readable channel name used in figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMethod::Sms => "SMS",
            RecoveryMethod::Email => "Email",
            RecoveryMethod::Fallback => "Fallback",
        }
    }
}

/// Probability that the *rightful owner* completes verification over
/// `method`, given the account's recovery options.
///
/// Failure sources follow §6.3 exactly:
/// * SMS — stale numbers, per-country gateway unreliability, "confused
///   users who did not really mean to use this option";
/// * Email — mistyped addresses (the ≈5% bounce source), lost access to
///   the secondary mailbox; recycled addresses are the *caller's*
///   responsibility to exclude (the provider refuses to offer them);
/// * Fallback — poor secret-question recall scaled by the provider's
///   strictness, or low-yield manual review when no question exists.
pub fn method_success_probability(method: RecoveryMethod, options: &AccountOptions) -> f64 {
    match method {
        RecoveryMethod::Sms => match &options.phone {
            None => 0.0,
            Some(p) => {
                let staleness = if p.up_to_date { 1.0 } else { 0.0 };
                let confusion = 0.93; // mistaken picks + typo'd codes
                staleness * p.gateway_reliability * confusion
            }
        },
        RecoveryMethod::Email => match &options.email {
            None => 0.0,
            Some(e) => {
                if e.recycled {
                    // Should have been filtered out; treat as a hard 0 so
                    // a policy bug can never hand an account to whoever
                    // re-registered the address.
                    return 0.0;
                }
                let bounce = if e.mistyped { 0.0 } else { 1.0 };
                // Users lose access to old secondary mailboxes; verified
                // addresses are fresher.
                let access = if e.verified { 0.84 } else { 0.74 };
                bounce * access
            }
        },
        RecoveryMethod::Fallback => match &options.question {
            Some(q) => q.owner_recall * 0.25, // strict grading + friction
            None => 0.10,                     // manual review
        },
    }
}

/// The method the provider offers for a claim: SMS and email when
/// available (recycled email is never offered, §6.3), with user
/// preference between them; fallback otherwise. Methods in `exclude`
/// (already failed on earlier attempts for this incident) are skipped —
/// users switch channels rather than re-failing the same one.
///
/// `prefers_email` models that email "is our most popular account
/// recovery option" even among phone holders.
pub fn select_method(
    options: &AccountOptions,
    prefers_email: bool,
    exclude: &[RecoveryMethod],
) -> RecoveryMethod {
    let email_ok = options.email.as_ref().map(|e| !e.recycled).unwrap_or(false)
        && !exclude.contains(&RecoveryMethod::Email);
    let phone_ok = options.phone.is_some() && !exclude.contains(&RecoveryMethod::Sms);
    match (phone_ok, email_ok) {
        (true, true) => {
            if prefers_email {
                RecoveryMethod::Email
            } else {
                RecoveryMethod::Sms
            }
        }
        (true, false) => RecoveryMethod::Sms,
        (false, true) => RecoveryMethod::Email,
        (false, false) => RecoveryMethod::Fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_identity::{RecoveryEmail, RecoveryOptions, RecoveryPhone, SecretQuestion};
    use mhw_types::{AccountId, CountryCode, EmailAddress, PhoneNumber};

    fn options(
        phone: Option<(bool, f64)>,
        email: Option<(bool, bool, bool)>, // (verified, mistyped, recycled)
        question: Option<f64>,
    ) -> RecoveryOptions {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        o.init(
            AccountId(0),
            phone.map(|(up, rel)| RecoveryPhone {
                number: PhoneNumber::new(CountryCode::US, 55500001),
                up_to_date: up,
                gateway_reliability: rel,
            }),
            email.map(|(v, m, r)| RecoveryEmail {
                address: EmailAddress::new("me", "backup.net"),
                verified: v,
                mistyped: m,
                recycled: r,
            }),
            question.map(|recall| SecretQuestion { owner_recall: recall, guessability: 0.2 }),
        );
        o
    }

    #[test]
    fn sms_success_near_paper_value() {
        let o = options(Some((true, 0.95)), None, None);
        let p = method_success_probability(RecoveryMethod::Sms, o.get(AccountId(0)));
        assert!((p - 0.8835).abs() < 0.01, "{p}");
        // Stale phone: zero.
        let stale = options(Some((false, 0.95)), None, None);
        assert_eq!(
            method_success_probability(RecoveryMethod::Sms, stale.get(AccountId(0))),
            0.0
        );
    }

    #[test]
    fn email_failure_modes() {
        let good = options(None, Some((true, false, false)), None);
        let p = method_success_probability(RecoveryMethod::Email, good.get(AccountId(0)));
        assert!((p - 0.84).abs() < 1e-9);
        let mistyped = options(None, Some((true, true, false)), None);
        assert_eq!(
            method_success_probability(RecoveryMethod::Email, mistyped.get(AccountId(0))),
            0.0
        );
        let recycled = options(None, Some((true, false, true)), None);
        assert_eq!(
            method_success_probability(RecoveryMethod::Email, recycled.get(AccountId(0))),
            0.0,
            "recycled email must never verify"
        );
    }

    #[test]
    fn fallback_is_weak() {
        let with_q = options(None, None, Some(0.6));
        let p = method_success_probability(RecoveryMethod::Fallback, with_q.get(AccountId(0)));
        assert!((p - 0.15).abs() < 1e-9);
        let without = options(None, None, None);
        let p2 = method_success_probability(RecoveryMethod::Fallback, without.get(AccountId(0)));
        assert!((p2 - 0.10).abs() < 1e-9);
        // Far below the other channels, as Figure 10 shows.
        assert!(p < 0.3 && p2 < 0.3);
    }

    #[test]
    fn selection_prefers_available_channels() {
        let both = options(Some((true, 0.95)), Some((true, false, false)), None);
        assert_eq!(select_method(both.get(AccountId(0)), true, &[]), RecoveryMethod::Email);
        assert_eq!(select_method(both.get(AccountId(0)), false, &[]), RecoveryMethod::Sms);
        let phone_only = options(Some((true, 0.95)), None, None);
        assert_eq!(select_method(phone_only.get(AccountId(0)), true, &[]), RecoveryMethod::Sms);
        let recycled = options(None, Some((true, false, true)), Some(0.5));
        assert_eq!(
            select_method(recycled.get(AccountId(0)), true, &[]),
            RecoveryMethod::Fallback,
            "recycled email is never offered"
        );
        let nothing = options(None, None, None);
        assert_eq!(select_method(nothing.get(AccountId(0)), true, &[]), RecoveryMethod::Fallback);
    }

    #[test]
    fn exclusions_walk_down_the_chain() {
        let both = options(Some((true, 0.95)), Some((true, false, false)), None);
        let o = both.get(AccountId(0));
        assert_eq!(select_method(o, false, &[RecoveryMethod::Sms]), RecoveryMethod::Email);
        assert_eq!(
            select_method(o, true, &[RecoveryMethod::Email]),
            RecoveryMethod::Sms
        );
        assert_eq!(
            select_method(o, true, &[RecoveryMethod::Sms, RecoveryMethod::Email]),
            RecoveryMethod::Fallback
        );
    }
}
