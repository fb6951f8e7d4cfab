//! Mailbox content seeding.
//!
//! A hijacker "searches through the victim's email history for banking
//! details or messages that the victim had previously flagged as
//! important" (§1) — so mailboxes must contain realistic material for
//! those searches to find. Seeded content is language-aware: Spanish
//! speakers hold `transferencia`/`banco` mail, Chinese speakers `账单`,
//! matching the non-English terms in Table 3.

use crate::user::UserProfile;
use mhw_mailsys::{Folder, MailProvider, Message, MessageDraft, MessageKind};
use mhw_simclock::SimRng;
use mhw_types::{EmailAddress, Language, SimDuration, SimTime, DAY};

/// Financial mail subject/body in the user's language. Each tuple is
/// `(subject, body)` and deliberately contains Table 3 finance terms.
fn banking_text(lang: Language, variant: u64) -> (&'static str, &'static str) {
    match lang {
        Language::Spanish => match variant % 3 {
            0 => ("Confirmación de transferencia", "su transferencia al banco fue procesada"),
            1 => ("Estado de cuenta del banco", "adjuntamos su estado de cuenta mensual"),
            _ => ("Recibo de transferencia", "la transferencia bancaria se completó"),
        },
        Language::Chinese => match variant % 2 {
            0 => ("您的账单", "本月账单已生成，请查收"),
            _ => ("银行账单通知", "您的账单明细如下"),
        },
        _ => match variant % 5 {
            0 => ("Wire transfer confirmation", "your wire transfer of $2,400 was completed"),
            1 => ("Bank transfer receipt", "the bank transfer to your savings account posted"),
            2 => ("Monthly bank statement", "your bank statement is attached"),
            3 => ("Investment portfolio update", "your investment account gained 2.1% this quarter"),
            _ => ("Signature needed for wire", "please sign the attached wire transfer form"),
        },
    }
}

/// Linked-account credential mail (Table 3's "Account" column terms).
fn linked_account_text(variant: u64) -> (&'static str, &'static str) {
    match variant % 6 {
        0 => ("Your amazon password was reset", "your new amazon password is enclosed; username unchanged"),
        1 => ("Welcome to dropbox", "your dropbox username and password were created"),
        2 => ("paypal receipt", "you sent a payment; log in to paypal to view"),
        3 => ("Your match profile", "your match username was confirmed"),
        4 => ("ftp account details", "the ftp password for the server is attached"),
        _ => ("skype account confirmation", "your skype username is now active"),
    }
}

/// Personal-media mail with attachments (Table 3's "Content" column).
fn media_attachments(variant: u64) -> Vec<String> {
    match variant % 5 {
        0 => vec!["beach.jpg".into(), "sunset.jpg".into()],
        1 => vec!["family.mov".into()],
        2 => vec!["clip.mp4".into(), "notes.zip".into()],
        3 => vec!["video.3gp".into()],
        _ => vec!["passport.jpg".into()],
    }
}

/// Seed one user's mailbox with `volume`-scaled historical content.
///
/// Content mix (per unit of `mailbox_value`): banking and
/// linked-credential mail for the hijacker to find, personal media,
/// bulk mail, and a starred important message or two. All mail is
/// backdated before `now`.
pub fn seed_mailbox(
    provider: &mut MailProvider,
    user: &UserProfile,
    now: SimTime,
    rng: &mut SimRng,
) {
    let richness = user.mailbox_value;
    let n_banking = (richness * 6.0) as u64 + if rng.chance(richness) { 1 } else { 0 };
    let n_linked = (richness * 3.0) as u64;
    let n_media = (richness * 4.0) as u64 + 1;
    let n_bulk = 6 + rng.below(10);
    let n_personal = 4 + rng.below(8);

    // One address per sender, shared by every message it sends.
    let bank = EmailAddress::new("alerts", "firstexamplebank.com");
    let accounts = EmailAddress::new("no-reply", "accounts.example.net");
    let friend = EmailAddress::new("friend", "yahoomail.com");
    let newsletter = EmailAddress::new("newsletter", "deals.example.org");
    // One draft, refilled per message: the provider copies what it keeps.
    let mut draft = MessageDraft::personal(vec![user.address.clone()], "", "");
    let mut deliver = |provider: &mut MailProvider,
                       from: EmailAddress,
                       subject: &str,
                       body: &str,
                       kind: MessageKind,
                       attachments: Vec<String>,
                       rng: &mut SimRng| {
        let age = SimDuration::from_secs(rng.below(360 * DAY));
        let at = SimTime::from_secs(now.as_secs().saturating_sub(age.as_secs()));
        draft.subject.clear();
        draft.subject.push_str(subject);
        draft.body.clear();
        draft.body.push_str(body);
        draft.attachments = attachments;
        draft.kind = kind;
        provider.deliver_external(user.account, from, &draft, at, |_: &Message| false)
    };

    for i in 0..n_banking {
        let (s, b) = banking_text(user.language, rng.below(100) + i);
        let id = deliver(
            provider,
            bank.clone(),
            s,
            b,
            MessageKind::Banking,
            if rng.chance(0.2) { vec!["statement.pdf".into()] } else { vec![] },
            rng,
        );
        // Users star important financial mail sometimes.
        if rng.chance(0.25) {
            provider.mailbox_mut(user.account).set_starred(id, true);
        }
    }
    for _ in 0..n_linked {
        let (s, b) = linked_account_text(rng.below(100));
        deliver(
            provider,
            accounts.clone(),
            s,
            b,
            MessageKind::LinkedCredentials,
            vec![],
            rng,
        );
    }
    for _ in 0..n_media {
        let v = rng.below(100);
        deliver(
            provider,
            friend.clone(),
            "photos from the weekend",
            "sending you the files we talked about",
            MessageKind::PersonalMedia,
            media_attachments(v),
            rng,
        );
    }
    for i in 0..n_bulk {
        deliver(
            provider,
            newsletter.clone(),
            &format!("Weekly deals #{i}"),
            "this week's offers inside",
            MessageKind::Bulk,
            vec![],
            rng,
        );
    }
    for i in 0..n_personal {
        deliver(
            provider,
            EmailAddress::new(format!("friend{i}"), "hotmail-like.com"),
            "catching up",
            "how have you been? let's talk soon",
            MessageKind::Personal,
            vec![],
            rng,
        );
    }
    // A couple of drafts the user never sent (hijackers open Drafts).
    let drafts = 1 + rng.below(2);
    for i in 0..drafts {
        let id = deliver(
            provider,
            user.address.clone(),
            &format!("draft note {i}"),
            "unfinished thoughts",
            MessageKind::Personal,
            vec![],
            rng,
        );
        provider.mailbox_mut(user.account).move_to(id, Folder::Drafts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_mailsys::{Actor, SearchQuery};
    use mhw_netmodel::GeoDb;
    use mhw_types::{CountryCode, DeviceId};

    fn user_with(lang_country: CountryCode, value: f64, provider: &mut MailProvider) -> UserProfile {
        let geo = GeoDb::new();
        let account = provider.create_account(EmailAddress::new("seeduser", "homemail.com"));
        UserProfile {
            account,
            address: EmailAddress::new("seeduser", "homemail.com"),
            country: lang_country,
            language: lang_country.language(),
            logins_per_day: 2.0,
            sends_per_day: 2.0,
            searches_per_day: 0.1,
            gullibility: 0.5,
            report_propensity: 0.3,
            travel_propensity: 0.02,
            mailbox_value: value,
            home_ip: geo.stable_ip(lang_country, 0),
            device: DeviceId(0),
        }
    }

    #[test]
    fn rich_english_mailbox_hits_finance_searches() {
        let mut provider = MailProvider::new();
        let user = user_with(CountryCode::US, 0.9, &mut provider);
        let mut rng = SimRng::from_seed(31);
        seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
        let hits = provider.search_mailbox(user.account, Actor::Owner, "wire transfer", SimTime::from_secs(400 * DAY));
        assert!(!hits.is_empty(), "wire transfer search must hit");
        let hits2 = provider.search_mailbox(user.account, Actor::Owner, "bank", SimTime::from_secs(400 * DAY));
        assert!(!hits2.is_empty());
    }

    #[test]
    fn spanish_mailbox_contains_transferencia() {
        let mut provider = MailProvider::new();
        let user = user_with(CountryCode::ES, 0.9, &mut provider);
        let mut rng = SimRng::from_seed(32);
        seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
        let mb = provider.mailbox(user.account);
        let q = SearchQuery::parse("transferencia");
        let hits = mhw_mailsys::search::search(mb, &q);
        assert!(!hits.is_empty());
    }

    #[test]
    fn chinese_mailbox_contains_zhangdan() {
        let mut provider = MailProvider::new();
        let user = user_with(CountryCode::CN, 0.9, &mut provider);
        let mut rng = SimRng::from_seed(33);
        seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
        let mb = provider.mailbox(user.account);
        let hits = mhw_mailsys::search::search(mb, &SearchQuery::parse("账单"));
        assert!(!hits.is_empty());
    }

    #[test]
    fn media_and_operator_searches_hit() {
        let mut provider = MailProvider::new();
        let user = user_with(CountryCode::US, 0.8, &mut provider);
        let mut rng = SimRng::from_seed(34);
        seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
        let mb = provider.mailbox(user.account);
        let media = mhw_mailsys::search::search(mb, &SearchQuery::parse("filename:(jpg or jpeg or png)"));
        assert!(!media.is_empty(), "jpg attachments must exist");
    }

    #[test]
    fn starred_and_drafts_views_are_nonempty_for_rich_users() {
        // Across several rich users, Starred and Drafts must be exercised.
        let mut provider = MailProvider::new();
        let geo = GeoDb::new();
        let mut rng = SimRng::from_seed(35);
        let mut any_starred = false;
        let mut any_drafts = false;
        for i in 0..10 {
            let account = provider
                .create_account(EmailAddress::new(format!("u{i}"), "homemail.com"));
            let user = UserProfile {
                account,
                address: EmailAddress::new(format!("u{i}"), "homemail.com"),
                country: CountryCode::US,
                language: Language::English,
                logins_per_day: 2.0,
                sends_per_day: 2.0,
                searches_per_day: 0.1,
                gullibility: 0.5,
                report_propensity: 0.3,
                travel_propensity: 0.02,
                mailbox_value: 0.9,
                home_ip: geo.stable_ip(CountryCode::US, i),
                device: DeviceId(i as u32),
            };
            seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
            any_starred |= !provider.mailbox(account).list_folder(Folder::Starred).is_empty();
            any_drafts |= !provider.mailbox(account).list_folder(Folder::Drafts).is_empty();
        }
        assert!(any_starred);
        assert!(any_drafts);
    }

    #[test]
    fn poor_mailboxes_have_little_finance_mail() {
        let mut provider = MailProvider::new();
        let user = user_with(CountryCode::US, 0.0, &mut provider);
        let mut rng = SimRng::from_seed(36);
        seed_mailbox(&mut provider, &user, SimTime::from_secs(400 * DAY), &mut rng);
        let banking = provider
            .mailbox(user.account)
            .all_messages()
            .filter(|m| m.kind == MessageKind::Banking)
            .count();
        assert_eq!(banking, 0);
        // But the mailbox is not empty (bulk/personal mail exists).
        assert!(provider.mailbox(user.account).len() > 5);
    }
}
