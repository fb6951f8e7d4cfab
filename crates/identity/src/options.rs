//! Recovery options: phone, secondary email, secret question.
//!
//! §6.3 analyzes why each recovery channel succeeds or fails:
//!
//! * **SMS** (80.91% success) fails on unreliable gateways in some
//!   countries and the occasional stale number;
//! * **secondary email** (74.57%) fails on mistyped addresses (~5%
//!   bounce), staleness, and *recycling* — ~7% of recovery addresses had
//!   been expired and re-registerable by 2014, so the provider must
//!   refuse the channel when recycling is suspected;
//! * **secret questions** have poor recall and are guessable (§6.3 calls
//!   them "insecure and unreliable").
//!
//! Hijackers also *change* these options to delay recovery (§5.4); every
//! change is audited so remission can revert them and the longitudinal
//! "60% → 21% hijacker-initiated option changes" measurement can be
//! computed from the audit trail.

use mhw_types::{AccountId, Actor, EmailAddress, PhoneNumber, SimTime};

/// A registered recovery phone.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPhone {
    pub number: PhoneNumber,
    /// Users "tend to keep their phone number up-to-date" (§6.3);
    /// a small minority do not.
    pub up_to_date: bool,
    /// SMS gateway reliability for this number's country, 0..1.
    pub gateway_reliability: f64,
}

/// A registered secondary email.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEmail {
    pub address: EmailAddress,
    /// Whether the user completed verification (not enforced, §6.3).
    pub verified: bool,
    /// The user mistyped it at registration (≈5% bounce source).
    pub mistyped: bool,
    /// The provider expired + re-issued this mailbox (the ≈7% recycling
    /// problem). A recycled address must never be offered for recovery.
    pub recycled: bool,
}

/// A secret question with its human factors.
#[derive(Debug, Clone, PartialEq)]
pub struct SecretQuestion {
    /// Probability the owner still recalls their exact answer.
    pub owner_recall: f64,
    /// Probability a researching hijacker can guess the answer.
    pub guessability: f64,
}

/// One audited change to recovery options.
#[derive(Debug, Clone)]
pub struct OptionChange {
    pub at: SimTime,
    pub actor: Actor,
    pub what: &'static str,
}

/// The recovery-option state of one account.
#[derive(Debug, Clone, Default)]
pub struct AccountOptions {
    pub phone: Option<RecoveryPhone>,
    pub email: Option<RecoveryEmail>,
    pub question: Option<SecretQuestion>,
    changes: Vec<OptionChange>,
}

/// Store of recovery options for all accounts.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    accounts: Vec<AccountOptions>,
}

impl RecoveryOptions {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next account (dense, in order).
    pub fn register(&mut self, account: AccountId) {
        assert_eq!(account.index(), self.accounts.len(), "register accounts densely in order");
        self.accounts.push(AccountOptions::default());
    }

    pub fn get(&self, account: AccountId) -> &AccountOptions {
        &self.accounts[account.index()]
    }

    pub fn set_phone(
        &mut self,
        account: AccountId,
        actor: Actor,
        phone: Option<RecoveryPhone>,
        at: SimTime,
    ) {
        let a = &mut self.accounts[account.index()];
        a.phone = phone;
        a.changes.push(OptionChange { at, actor, what: "phone" });
    }

    pub fn set_email(
        &mut self,
        account: AccountId,
        actor: Actor,
        email: Option<RecoveryEmail>,
        at: SimTime,
    ) {
        let a = &mut self.accounts[account.index()];
        a.email = email;
        a.changes.push(OptionChange { at, actor, what: "email" });
    }

    /// Initial (unaudited) setup at account creation; used by the
    /// population builder so that "user never changed their options"
    /// remains distinguishable in the audit trail.
    pub fn init(
        &mut self,
        account: AccountId,
        phone: Option<RecoveryPhone>,
        email: Option<RecoveryEmail>,
        question: Option<SecretQuestion>,
    ) {
        let a = &mut self.accounts[account.index()];
        a.phone = phone;
        a.email = email;
        a.question = question;
    }

    /// All audited changes.
    pub fn changes(&self, account: AccountId) -> &[OptionChange] {
        &self.accounts[account.index()].changes
    }

    /// Whether a hijacker changed any recovery option at/after `since`
    /// (the §5.4 delay-recovery tactic; 60% of 2011 cases, 21% of 2012).
    pub fn hijacker_changed_since(&self, account: AccountId, since: SimTime) -> bool {
        self.changes(account)
            .iter()
            .any(|c| c.at >= since && c.actor.is_hijacker())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::{CountryCode, CrewId};

    fn phone() -> RecoveryPhone {
        RecoveryPhone {
            number: PhoneNumber::new(CountryCode::US, 55512345),
            up_to_date: true,
            gateway_reliability: 0.97,
        }
    }

    #[test]
    fn register_and_defaults() {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        let a = o.get(AccountId(0));
        assert!(a.phone.is_none() && a.email.is_none() && a.question.is_none());
    }

    #[test]
    fn init_does_not_audit() {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        o.init(AccountId(0), Some(phone()), None, None);
        assert!(o.get(AccountId(0)).phone.is_some());
        assert!(o.changes(AccountId(0)).is_empty());
    }

    #[test]
    fn hijacker_option_change_detected() {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        o.init(AccountId(0), Some(phone()), None, None);
        let crew = Actor::Hijacker(CrewId(2));
        o.set_phone(AccountId(0), crew, None, SimTime::from_secs(100));
        assert!(o.get(AccountId(0)).phone.is_none());
        assert!(o.hijacker_changed_since(AccountId(0), SimTime::from_secs(50)));
        assert!(!o.hijacker_changed_since(AccountId(0), SimTime::from_secs(150)));
    }

    #[test]
    fn owner_changes_are_not_hijacker_changes() {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        o.set_email(
            AccountId(0),
            Actor::Owner,
            Some(RecoveryEmail {
                address: EmailAddress::new("me", "backup.net"),
                verified: true,
                mistyped: false,
                recycled: false,
            }),
            SimTime::from_secs(10),
        );
        assert!(!o.hijacker_changed_since(AccountId(0), SimTime::from_secs(0)));
        assert_eq!(o.changes(AccountId(0)).len(), 1);
        assert_eq!(o.changes(AccountId(0))[0].what, "email");
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn dense_registration_enforced() {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(3));
    }
}
