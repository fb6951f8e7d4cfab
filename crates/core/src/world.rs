//! The adversary's window onto the real substrates.
//!
//! [`WorldAdapter`] implements [`HijackerWorld`] over the live mail
//! provider, identity stores and login pipeline. Crucially, crews get
//! no shortcuts: their logins go through the same risk engine as
//! everyone else's, their sent mail through the same classifier, and
//! every action they take lands in the same provider log that the
//! behavioral monitor watches — which is how a session can be disabled
//! *mid-exploitation*.

use mhw_adversary::world::{HijackerWorld, LoginAttemptOutcome, ProfileView};
use mhw_defense::{
    ActivityMonitor, AnswererCapabilities, LoginContext, LoginPipeline, LoginRequest,
    MailClassifier, NotificationEngine, NotificationEvent,
};
use mhw_identity::{CredentialStore, LoginLog, LoginOutcome, RecoveryOptions, TwoFactorState};
use mhw_mailsys::{FilterAction, Folder, MailProvider, Message, MessageDraft, MessageKind};
use mhw_netmodel::GeoDb;
use mhw_population::{ContactGraph, Population};
use mhw_simclock::SimRng;
use mhw_types::{
    AccountId, Actor, CrewId, DeviceId, EmailAddress, IpAddr, PhoneNumber, SimTime,
};
use std::collections::HashSet;

/// Sentinel the playbook presents when a trivial-variant retry lands on
/// the correct password (the simulator adjudicated the retry; see
/// `mhw_adversary::playbook`).
pub const VARIANT_CORRECT: &str = "<variant-correct>";

/// The inbound spam decision for one delivered copy, made alike for
/// organic mail, crew mail and external lures. The classifier decides;
/// then spam from one of the recipient's contacts gets through with
/// probability `contact_leniency` (§5.3), the one draw from `rng`.
/// `sender` is `None` for mail from outside the provider, which gets
/// no leniency.
pub(crate) fn spam_decision(
    classifier: &mut MailClassifier,
    classifier_enabled: bool,
    contact_leniency: f64,
    graph: &ContactGraph,
    sender: Option<AccountId>,
    rng: &mut SimRng,
    m: &Message,
) -> bool {
    if !classifier_enabled || !classifier.should_spam_folder(m) {
        return false;
    }
    let Some(sender) = sender else {
        return true;
    };
    // Accounts outside the graph (decoys) have no contacts.
    let recipient = m.owner;
    let is_contact =
        recipient.index() < graph.len() && graph.contacts_of(recipient).contains(&sender);
    !(is_contact && rng.chance(contact_leniency))
}

/// Mutable view over the ecosystem for one hijack session (or one batch
/// of organic actions).
pub struct WorldAdapter<'a> {
    pub provider: &'a mut MailProvider,
    pub credentials: &'a mut CredentialStore,
    pub options: &'a mut RecoveryOptions,
    pub twofactor: &'a mut TwoFactorState,
    pub login: &'a mut LoginPipeline,
    pub login_log: &'a mut LoginLog,
    pub geo: &'a GeoDb,
    pub population: &'a Population,
    pub classifier: &'a mut MailClassifier,
    pub classifier_enabled: bool,
    pub contact_leniency: f64,
    pub monitor: Option<&'a mut ActivityMonitor>,
    pub notifications: Option<&'a mut NotificationEngine>,
    pub notifications_enabled: bool,
    pub disabled: &'a mut HashSet<AccountId>,
    /// Cursor into the provider log for incremental monitoring.
    pub log_cursor: &'a mut usize,
    /// Delivered hijacker phishing messages, reported back to the
    /// orchestrator so recipient clicks route credentials to the crew
    /// (the §5.3 contact-phishing loop).
    pub lure_sink: &'a mut Vec<(mhw_types::MessageId, CrewId)>,
    pub rng: &'a mut SimRng,
}

impl<'a> WorldAdapter<'a> {
    /// Feed provider-log events that appeared since the cursor into the
    /// behavioral monitor; flagged accounts get disabled and their
    /// owners notified ("unusual in-product activity", §8.2).
    pub fn drain_monitor(&mut self) {
        let Some(monitor) = self.monitor.as_deref_mut() else {
            *self.log_cursor = self.provider.log().len();
            return;
        };
        let log = self.provider.log();
        let mut newly_flagged = Vec::new();
        for event in log.iter_from(*self.log_cursor) {
            let verdict = monitor.observe(&event);
            if verdict.flagged && !self.disabled.contains(&event.account) {
                newly_flagged.push((event.account, event.at));
            }
        }
        *self.log_cursor = log.len();
        for (account, at) in newly_flagged {
            self.disabled.insert(account);
            if self.notifications_enabled {
                if let Some(n) = self.notifications.as_deref_mut() {
                    n.notify(account, NotificationEvent::UnusualActivity, self.options, at, self.rng);
                }
            }
        }
    }

    fn notify(&mut self, account: AccountId, event: NotificationEvent, at: SimTime) {
        if self.notifications_enabled {
            if let Some(n) = self.notifications.as_deref_mut() {
                n.notify(account, event, self.options, at, self.rng);
            }
        }
    }

    /// Send mail from an internal account, with the full classifier path
    /// (shared by crews and organic users — same code, same treatment).
    #[allow(clippy::too_many_arguments)]
    pub fn deliver_from_account(
        &mut self,
        from: AccountId,
        actor: Actor,
        draft: MessageDraft,
        at: SimTime,
    ) -> (mhw_types::MessageId, Vec<mhw_types::MessageId>) {
        let classifier = &mut *self.classifier;
        let enabled = self.classifier_enabled;
        let leniency = self.contact_leniency;
        let graph = &self.population.graph;
        let rng = &mut *self.rng;
        let result = self.provider.send(from, actor, draft, at, |m| {
            spam_decision(classifier, enabled, leniency, graph, Some(from), rng, m)
        });
        self.drain_monitor();
        result
    }
}

impl<'a> HijackerWorld for WorldAdapter<'a> {
    fn try_login(
        &mut self,
        crew: CrewId,
        address: &EmailAddress,
        password: &str,
        ip: IpAddr,
        device: DeviceId,
        at: SimTime,
    ) -> LoginAttemptOutcome {
        let Some(account) = self.provider.resolve(address) else {
            return LoginAttemptOutcome::NoSuchAccount;
        };
        if self.disabled.contains(&account) {
            return LoginAttemptOutcome::Blocked;
        }
        let literal = if password == VARIANT_CORRECT {
            self.credentials.password_for_capture(account).to_string()
        } else {
            password.to_string()
        };
        // Crews research victims; knowledge challenges are guessable at
        // a modest rate (§8.2). If a hijacker (any crew — §5.5 notes
        // shared resources) enrolled the current 2FA phone, the crew can
        // complete the second factor; an owner-enrolled factor stops it.
        let crew_controls_2fa = self
            .twofactor
            .audit(account)
            .last()
            .map(|e| e.actor.is_hijacker())
            .unwrap_or(false);
        let request = LoginRequest {
            at,
            account,
            ip,
            device,
            password: literal,
            actor: Actor::Hijacker(crew),
            capabilities: AnswererCapabilities::hijacker(0.18)
                .with_second_factor(crew_controls_2fa),
        };
        let ctx = LoginContext {
            credentials: &*self.credentials,
            options: &*self.options,
            twofactor: &*self.twofactor,
            geo: self.geo,
        };
        let outcome = self.login.attempt(&request, &ctx, self.login_log, self.rng);
        match outcome {
            LoginOutcome::Success => LoginAttemptOutcome::Success(account),
            LoginOutcome::WrongPassword => LoginAttemptOutcome::WrongPassword,
            LoginOutcome::ChallengeFailed | LoginOutcome::SecondFactorFailed => {
                LoginAttemptOutcome::ChallengeFailed
            }
            LoginOutcome::Blocked => LoginAttemptOutcome::Blocked,
        }
    }

    fn variant_retry_would_succeed(&self, address: &EmailAddress, captured: &str) -> bool {
        self.provider
            .resolve(address)
            .map(|a| self.credentials.verify_with_variants(a, captured))
            .unwrap_or(false)
    }

    fn search(&mut self, crew: CrewId, account: AccountId, query: &str, at: SimTime) -> usize {
        let hits = self
            .provider
            .search_mailbox(account, Actor::Hijacker(crew), query, at)
            .len();
        self.drain_monitor();
        hits
    }

    fn open_folder(
        &mut self,
        crew: CrewId,
        account: AccountId,
        folder: Folder,
        at: SimTime,
    ) -> usize {
        let n = self
            .provider
            .open_folder(account, Actor::Hijacker(crew), folder, at)
            .len();
        self.drain_monitor();
        n
    }

    fn view_profile(&mut self, crew: CrewId, account: AccountId, at: SimTime) -> ProfileView {
        let contacts = self
            .provider
            .view_contacts(account, Actor::Hijacker(crew), at)
            .into_iter()
            .map(|c| c.address)
            .collect();
        self.drain_monitor();
        // The local part is what a hijacker can glean for
        // personalization ("user123" → "user123"; real deployments
        // would read a display name).
        let owner_first_name = self
            .provider
            .address_of(account)
            .local()
            .split('.')
            .next()
            .unwrap_or("")
            .to_string();
        ProfileView { contacts, owner_first_name }
    }

    fn send_mail(
        &mut self,
        crew: CrewId,
        account: AccountId,
        to: Vec<EmailAddress>,
        subject: String,
        body: String,
        is_phishing: bool,
        reply_to: Option<EmailAddress>,
        at: SimTime,
    ) {
        let kind = if is_phishing { MessageKind::PhishingLure } else { MessageKind::Scam };
        let mut draft = MessageDraft {
            to,
            subject,
            body,
            attachments: Vec::new(),
            kind,
            reply_to: None,
        };
        if let Some(r) = reply_to {
            draft = draft.with_reply_to(r);
        }
        let (_, delivered) = self.deliver_from_account(account, Actor::Hijacker(crew), draft, at);
        if is_phishing {
            for id in delivered {
                self.lure_sink.push((id, crew));
            }
        }
    }

    fn create_forward_filter(
        &mut self,
        crew: CrewId,
        account: AccountId,
        to: EmailAddress,
        at: SimTime,
    ) {
        self.provider.create_filter(
            account,
            Actor::Hijacker(crew),
            None,
            None,
            true,
            FilterAction::ForwardTo(to),
            at,
        );
        self.drain_monitor();
    }

    fn set_reply_to(&mut self, crew: CrewId, account: AccountId, to: EmailAddress, at: SimTime) {
        self.provider
            .set_reply_to(account, Actor::Hijacker(crew), Some(to), at);
        self.drain_monitor();
    }

    fn change_password(&mut self, crew: CrewId, account: AccountId, at: SimTime) {
        let new_pw = format!("crew{}-{}", crew.index(), self.rng.below(1_000_000));
        self.credentials
            .change_password(account, Actor::Hijacker(crew), &new_pw, at);
        self.notify(account, NotificationEvent::PasswordChanged, at);
    }

    fn change_recovery_options(&mut self, crew: CrewId, account: AccountId, at: SimTime) {
        let actor = Actor::Hijacker(crew);
        self.options.set_phone(account, actor, None, at);
        self.options.set_email(account, actor, None, at);
        self.notify(account, NotificationEvent::RecoveryOptionsChanged, at);
    }

    fn enable_two_factor(
        &mut self,
        crew: CrewId,
        account: AccountId,
        phone: PhoneNumber,
        at: SimTime,
    ) {
        self.twofactor
            .enable(account, Actor::Hijacker(crew), phone, at);
        self.notify(account, NotificationEvent::RecoveryOptionsChanged, at);
    }

    fn mass_delete(&mut self, crew: CrewId, account: AccountId, at: SimTime) {
        let actor = Actor::Hijacker(crew);
        self.provider.mass_delete(account, actor, at);
        // "they often delete the user's emails and contact lists" (§5.4).
        let contacts: Vec<EmailAddress> = self
            .provider
            .mailbox(account)
            .contacts()
            .iter()
            .map(|c| c.address.clone())
            .collect();
        for c in contacts {
            self.provider.delete_contact(account, actor, &c, at);
        }
        self.drain_monitor();
    }

    fn proxy_exit_in(&mut self, country: mhw_types::CountryCode) -> IpAddr {
        // Rented proxies are effectively unlimited fresh addresses.
        self.geo.random_ip(country, self.rng)
    }

    fn account_disabled(&self, account: AccountId) -> bool {
        self.disabled.contains(&account)
    }
}
