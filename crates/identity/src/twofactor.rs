//! Two-step verification state.
//!
//! §8.2 calls a second factor "the best client-side defense against
//! hijacking". Two aspects are modelled:
//!
//! * legitimate enrolment (with its legacy-app escape hatch, the
//!   *application-specific password*, which §8.2 notes "can be phished");
//! * the hijacker abuse of 2FA as a **lockout tactic** — in 2012 crews
//!   briefly enabled 2FA with *their own* phone numbers on victim
//!   accounts. The enrolment audit trail is exactly the Figure 12
//!   dataset ("300 phones that hijackers used in an attempt to lock out
//!   their victims").

use mhw_types::{AccountId, Actor, PhoneNumber, SimTime};

/// One 2FA enrolment/disablement event.
#[derive(Debug, Clone)]
pub struct TwoFactorAudit {
    pub at: SimTime,
    pub actor: Actor,
    /// The phone enrolled (None = disabled or a security key).
    pub phone: Option<PhoneNumber>,
}

#[derive(Debug, Clone, Default)]
struct AccountTwoFactor {
    phone: Option<PhoneNumber>,
    security_key: bool,
    app_passwords: Vec<String>,
    audit: Vec<TwoFactorAudit>,
}

/// 2FA state for all accounts.
#[derive(Debug, Clone, Default)]
pub struct TwoFactorState {
    accounts: Vec<AccountTwoFactor>,
}

impl TwoFactorState {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, account: AccountId) {
        assert_eq!(account.index(), self.accounts.len(), "register accounts densely in order");
        self.accounts.push(AccountTwoFactor::default());
    }

    /// Whether 2FA is enabled (phone or security key).
    pub fn enabled(&self, account: AccountId) -> bool {
        let a = &self.accounts[account.index()];
        a.phone.is_some() || a.security_key
    }

    /// Enrol a hardware security key. Once a key protects the account,
    /// phone-based (re-)enrolment is refused — swapping the factor
    /// requires the key, which is exactly what defeats the crews'
    /// lockout tactic.
    pub fn enroll_security_key(&mut self, account: AccountId, actor: Actor, at: SimTime) {
        let a = &mut self.accounts[account.index()];
        a.security_key = true;
        a.phone = None;
        a.audit.push(TwoFactorAudit { at, actor, phone: None });
    }

    /// The enrolled phone, if any.
    pub fn phone(&self, account: AccountId) -> Option<&PhoneNumber> {
        self.accounts[account.index()].phone.as_ref()
    }

    /// Enable phone-based 2FA (owner enrolment or hijacker lockout).
    /// Returns `false` (refused) when a security key protects the
    /// account.
    pub fn enable(&mut self, account: AccountId, actor: Actor, phone: PhoneNumber, at: SimTime) -> bool {
        let a = &mut self.accounts[account.index()];
        if a.security_key {
            return false;
        }
        a.phone = Some(phone);
        a.audit.push(TwoFactorAudit { at, actor, phone: Some(phone) });
        true
    }

    /// Disable 2FA (phone or key).
    pub fn disable(&mut self, account: AccountId, actor: Actor, at: SimTime) {
        let a = &mut self.accounts[account.index()];
        a.phone = None;
        a.security_key = false;
        a.audit.push(TwoFactorAudit { at, actor, phone: None });
    }

    /// Revoke all ASPs (part of recovery cleanup).
    pub fn revoke_app_passwords(&mut self, account: AccountId) -> usize {
        let n = self.accounts[account.index()].app_passwords.len();
        self.accounts[account.index()].app_passwords.clear();
        n
    }

    /// Full audit trail for an account.
    pub fn audit(&self, account: AccountId) -> &[TwoFactorAudit] {
        &self.accounts[account.index()].audit
    }

    /// Phones hijackers enrolled at/after `since` — the Figure 12
    /// extraction: each hijacker-actor enable event contributes its
    /// phone number.
    pub fn hijacker_enrolled_phones_since(&self, since: SimTime) -> Vec<PhoneNumber> {
        self.accounts
            .iter()
            .flat_map(|a| a.audit.iter())
            .filter(|e| e.at >= since && e.actor.is_hijacker())
            .filter_map(|e| e.phone)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::{CountryCode, CrewId};

    fn ng_phone(n: u64) -> PhoneNumber {
        PhoneNumber::new(CountryCode::NG, 10_000_000 + n)
    }

    fn state1() -> TwoFactorState {
        let mut s = TwoFactorState::new();
        s.register(AccountId(0));
        s
    }

    #[test]
    fn enable_disable_cycle() {
        let mut s = state1();
        assert!(!s.enabled(AccountId(0)));
        s.enable(AccountId(0), Actor::Owner, ng_phone(1), SimTime::from_secs(10));
        assert!(s.enabled(AccountId(0)));
        assert_eq!(s.phone(AccountId(0)), Some(&ng_phone(1)));
        s.disable(AccountId(0), Actor::Owner, SimTime::from_secs(20));
        assert!(!s.enabled(AccountId(0)));
        assert_eq!(s.audit(AccountId(0)).len(), 2);
    }

    #[test]
    fn hijacker_lockout_phones_extracted() {
        let mut s = TwoFactorState::new();
        s.register(AccountId(0));
        s.register(AccountId(1));
        s.enable(AccountId(0), Actor::Owner, ng_phone(1), SimTime::from_secs(5));
        s.enable(
            AccountId(1),
            Actor::Hijacker(CrewId(0)),
            ng_phone(2),
            SimTime::from_secs(100),
        );
        let phones = s.hijacker_enrolled_phones_since(SimTime::from_secs(0));
        assert_eq!(phones, vec![ng_phone(2)]);
        // Time filter applies.
        assert!(s.hijacker_enrolled_phones_since(SimTime::from_secs(200)).is_empty());
    }

    #[test]
    fn security_key_refuses_phone_swap() {
        let mut s = state1();
        s.enroll_security_key(AccountId(0), Actor::Owner, SimTime::from_secs(1));
        assert!(s.enabled(AccountId(0)));
        // The crews' lockout tactic bounces off.
        let ok = s.enable(
            AccountId(0),
            Actor::Hijacker(CrewId(0)),
            ng_phone(9),
            SimTime::from_secs(100),
        );
        assert!(!ok);
        assert_eq!(s.phone(AccountId(0)), None);
        assert!(s.hijacker_enrolled_phones_since(SimTime::from_secs(0)).is_empty());
    }
}
