//! Remission — the §6.4 cleanup after ownership is restored.
//!
//! "The remission process include restoring hijacker-deleted content,
//! removing the hijacker-added content, and resetting all account
//! options to their original state." The deployment of exactly this
//! step is what drove the §5.4 drop in mass deletion (46% → 1.6%):
//! once deleted mail came back, deleting it stopped paying.

use mhw_identity::{RecoveryOptions, TwoFactorState};
use mhw_mailsys::MailProvider;
use mhw_types::{AccountId, Actor, SimTime};

/// What remission restored/reverted on one account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemissionReport {
    /// Hijacker-purged messages restored from the audit trail.
    pub messages_restored: usize,
    /// Hijacker-deleted contacts restored.
    pub contacts_restored: usize,
    /// Hijacker-created mail filters removed.
    pub filters_removed: usize,
    /// Whether a hijacker-set Reply-To was rolled back.
    pub reply_to_reverted: bool,
    /// Whether hijacker-enrolled two-factor was disabled.
    pub twofactor_disabled: bool,
    /// Whether hijacker-changed recovery options were cleared for owner
    /// re-entry.
    pub recovery_options_reverted: bool,
    /// App passwords revoked (always all of them — any may be phished).
    pub app_passwords_revoked: usize,
}

/// Run remission for `account`, reverting everything a hijacker changed
/// at or after `hijack_start`.
///
/// Uses audit trails (who changed what, when) — the same information a
/// real provider has — never the live mailbox state alone.
pub fn run_remission(
    account: AccountId,
    hijack_start: SimTime,
    now: SimTime,
    provider: &mut MailProvider,
    options: &mut RecoveryOptions,
    twofactor: &mut TwoFactorState,
) -> RemissionReport {
    // Restore hijacker-deleted content.
    let mut report = RemissionReport {
        messages_restored: provider.mailbox_mut(account).restore_purged_since(hijack_start),
        contacts_restored: provider.mailbox_mut(account).restore_contacts_since(hijack_start),
        ..RemissionReport::default()
    };

    // Remove hijacker-added filters.
    for (filter, actor) in provider.filters_created_since(account, hijack_start) {
        if actor.is_hijacker() {
            provider.remove_filter(account, Actor::System, filter, now);
            report.filters_removed += 1;
        }
    }

    // Roll back a hijacker Reply-To.
    if let Some(previous) = provider.reply_to_before(account, hijack_start) {
        provider.set_reply_to(account, Actor::System, previous, now);
        report.reply_to_reverted = true;
    }

    // Disable hijacker-enrolled 2FA.
    if let Some(last) = twofactor.audit(account).last() {
        if last.at >= hijack_start && last.actor.is_hijacker() && twofactor.enabled(account) {
            twofactor.disable(account, Actor::System, now);
            report.twofactor_disabled = true;
        }
    }
    // Revoke app passwords unconditionally — cheap, and any of them may
    // have been phished (§8.2).
    report.app_passwords_revoked = twofactor.revoke_app_passwords(account);

    // Reset hijacker-changed recovery options: flag for owner review.
    if options.hijacker_changed_since(account, hijack_start) {
        // The provider cannot reconstruct the owner's old phone; it
        // clears hijacker-set values so the owner re-enters their own.
        options.set_phone(account, Actor::System, None, now);
        options.set_email(account, Actor::System, None, now);
        report.recovery_options_reverted = true;
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_mailsys::{FilterAction, Folder, MessageDraft};
    use mhw_types::{CountryCode, CrewId, EmailAddress, PhoneNumber};

    struct World {
        provider: MailProvider,
        options: RecoveryOptions,
        twofactor: TwoFactorState,
        account: AccountId,
    }

    fn world() -> World {
        let mut provider = MailProvider::new();
        let account = provider.create_account(EmailAddress::new("victim", "homemail.com"));
        let mut options = RecoveryOptions::new();
        options.register(account);
        let mut twofactor = TwoFactorState::new();
        twofactor.register(account);
        // Pre-hijack mail.
        for i in 0..6 {
            let d = MessageDraft::personal(
                vec![EmailAddress::new("victim", "homemail.com")],
                &format!("old {i}"),
                "content",
            );
            provider.deliver_external(
                account,
                EmailAddress::new("friend", "x.com"),
                &d,
                SimTime::from_secs(i),
                |_| false,
            );
        }
        World { provider, options, twofactor, account }
    }

    const HIJACK: SimTime = SimTime(1_000);
    const NOW: SimTime = SimTime(10_000);

    #[test]
    fn full_hijack_is_fully_reverted() {
        let mut w = world();
        let crew = Actor::Hijacker(CrewId(0));
        // The hijacker does everything §5.4 describes.
        w.provider.mass_delete(w.account, crew, SimTime::from_secs(2000));
        w.provider.create_filter(
            w.account,
            crew,
            None,
            None,
            true,
            FilterAction::ForwardTo(EmailAddress::new("dopp", "evil.net")),
            SimTime::from_secs(2100),
        );
        w.provider.set_reply_to(
            w.account,
            crew,
            Some(EmailAddress::new("dopp", "evil.net")),
            SimTime::from_secs(2200),
        );
        w.twofactor.enable(
            w.account,
            crew,
            PhoneNumber::new(CountryCode::NG, 80000001),
            SimTime::from_secs(2300),
        );
        w.options.set_phone(w.account, crew, None, SimTime::from_secs(2400));

        let report = run_remission(
            w.account,
            HIJACK,
            NOW,
            &mut w.provider,
            &mut w.options,
            &mut w.twofactor,
        );
        assert_eq!(report.messages_restored, 6);
        assert_eq!(report.filters_removed, 1);
        assert!(report.reply_to_reverted);
        assert!(report.twofactor_disabled);
        assert!(report.recovery_options_reverted);
        // State is actually clean.
        assert_eq!(w.provider.mailbox(w.account).len(), 6);
        assert!(w.provider.filters(w.account).is_empty());
        assert_eq!(w.provider.reply_to(w.account), None);
        assert!(!w.twofactor.enabled(w.account));
    }

    #[test]
    fn owner_changes_survive_remission() {
        let mut w = world();
        // Owner set their own filter and reply-to long before the hijack.
        let owner_filter = w.provider.create_filter(
            w.account,
            Actor::Owner,
            None,
            Some("news".into()),
            false,
            FilterAction::MoveTo(Folder::Trash),
            SimTime::from_secs(100),
        );
        // Owner 2FA.
        w.twofactor.enable(
            w.account,
            Actor::Owner,
            PhoneNumber::new(CountryCode::US, 55500001),
            SimTime::from_secs(200),
        );
        let report = run_remission(
            w.account,
            HIJACK,
            NOW,
            &mut w.provider,
            &mut w.options,
            &mut w.twofactor,
        );
        assert_eq!(report.filters_removed, 0);
        assert!(!report.twofactor_disabled, "owner 2FA must survive");
        assert!(w.twofactor.enabled(w.account));
        assert_eq!(w.provider.filters(w.account)[0].id, owner_filter);
        assert!(!report.recovery_options_reverted);
    }

    #[test]
    fn idempotent_on_clean_accounts() {
        let mut w = world();
        let r1 = run_remission(
            w.account,
            HIJACK,
            NOW,
            &mut w.provider,
            &mut w.options,
            &mut w.twofactor,
        );
        assert_eq!(r1, RemissionReport::default());
        let r2 = run_remission(
            w.account,
            HIJACK,
            NOW,
            &mut w.provider,
            &mut w.options,
            &mut w.twofactor,
        );
        assert_eq!(r2, RemissionReport::default());
    }

    #[test]
    fn owner_deletions_before_hijack_stay_deleted() {
        let mut w = world();
        // Owner purged a message pre-hijack.
        let id = w.provider.mailbox(w.account).list_folder(Folder::Inbox)[0];
        w.provider.purge_message(w.account, Actor::Owner, id, SimTime::from_secs(500));
        let crew = Actor::Hijacker(CrewId(0));
        w.provider.mass_delete(w.account, crew, SimTime::from_secs(2000));
        let report = run_remission(
            w.account,
            HIJACK,
            NOW,
            &mut w.provider,
            &mut w.options,
            &mut w.twofactor,
        );
        assert_eq!(report.messages_restored, 5);
        assert_eq!(w.provider.mailbox(w.account).len(), 5);
    }
}
