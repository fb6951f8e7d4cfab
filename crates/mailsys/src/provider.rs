//! The mail provider: account registry, delivery, and the activity log.
//!
//! [`MailProvider`] is the single authority for every mailbox in the
//! ecosystem. All reads and writes go through methods that append to the
//! provider activity log — the simulator's analogue of the raw logs
//! Google's measurement jobs aggregated (§3). Inbound spam decisions are
//! delegated to a caller-supplied classifier closure so this crate stays
//! independent of `mhw-defense`.

use crate::event::{Actor, MailEvent, MailEventKind};
use crate::filters::{apply_filters, FilterAction, MailFilter};
use crate::mailbox::{ContactEntry, Folder, Mailbox};
use crate::message::{Message, MessageDraft};
use crate::search::{search, SearchQuery};
use mhw_obs::{MetricId, Registry};
use mhw_types::{
    AccountId, EmailAddress, FilterId, Interner, LogStore, MessageId, ShardId, SimTime, Sym,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Messages sent from internal accounts (one per Sent event).
pub const M_MESSAGES_SENT: MetricId = MetricId("mailsys.messages_sent");
/// Copies delivered into internal mailboxes (any folder).
pub const M_MAIL_DELIVERED: MetricId = MetricId("mailsys.mail_delivered");
/// Delivered copies the inbound classifier routed to Spam.
pub const M_MAIL_SPAM_FOLDERED: MetricId = MetricId("mailsys.mail_spam_foldered");
/// Mailbox searches run (Dataset 6 raw volume).
pub const M_SEARCHES: MetricId = MetricId("mailsys.searches");
/// Messages users reported as spam/phishing.
pub const M_SPAM_REPORTS: MetricId = MetricId("mailsys.spam_reports");

/// Audit record of a settings change (used by remission).
#[derive(Debug, Clone)]
pub struct SettingsAudit<T> {
    pub at: SimTime,
    pub actor: Actor,
    pub old: T,
    pub new: T,
}

/// Per-account state held by the provider. The account's primary
/// address lives in the provider-wide address interner (symbol index ==
/// account index), not here.
#[derive(Debug, Clone, Default)]
struct AccountState {
    mailbox: Mailbox,
    filters: Vec<MailFilter>,
    reply_to: Option<EmailAddress>,
    filter_audit: Vec<(FilterId, Actor, SimTime)>,
    reply_to_audit: Vec<SettingsAudit<Option<EmailAddress>>>,
}

/// The simulated mail provider.
#[derive(Debug, Clone)]
pub struct MailProvider {
    accounts: Vec<AccountState>,
    /// Every registered primary address, interned in account order —
    /// so the symbol for an account's address *is* its dense account
    /// index, and address → account resolution is one table probe with
    /// no separate reverse map.
    addresses: Interner<EmailAddress>,
    /// Every distinct subject and body stored so far: copies of one
    /// text share a single allocation.
    texts: HashSet<Arc<str>>,
    next_message: u32,
    next_filter: u32,
    log: LogStore<MailEvent>,
    metrics: Registry,
}

impl Default for MailProvider {
    fn default() -> Self {
        MailProvider {
            accounts: Vec::new(),
            addresses: Interner::new(),
            texts: HashSet::new(),
            next_message: 0,
            next_filter: 0,
            log: LogStore::default(),
            metrics: Registry::new()
                .with_counter(M_MESSAGES_SENT)
                .with_counter(M_MAIL_DELIVERED)
                .with_counter(M_MAIL_SPAM_FOLDERED)
                .with_counter(M_SEARCHES)
                .with_counter(M_SPAM_REPORTS),
        }
    }
}

/// What every copy of one send shares: the deduplicated subject and
/// body, and one recipient list.
struct SharedText {
    subject: Arc<str>,
    body: Arc<str>,
    to: Arc<[EmailAddress]>,
}

impl SharedText {
    /// An unread, unstarred copy of `draft` in `owner`'s mailbox.
    fn message(
        &self,
        id: MessageId,
        owner: AccountId,
        from: EmailAddress,
        draft: &MessageDraft,
        at: SimTime,
    ) -> Message {
        Message {
            id,
            owner,
            from,
            to: Arc::clone(&self.to),
            subject: Arc::clone(&self.subject),
            body: Arc::clone(&self.body),
            attachments: draft.attachments.clone(),
            kind: draft.kind,
            reply_to: draft.reply_to.clone(),
            at,
            read: false,
            starred: false,
        }
    }
}

/// Message-id namespace stride per logical shard (see
/// `LoginLog::for_shard` for the same convention on session ids).
const SHARD_ID_NAMESPACE: u32 = 1 << 24;

impl MailProvider {
    pub fn new() -> Self {
        Self::default()
    }

    /// A provider owned by logical shard `shard`: activity-log entries
    /// carry the shard id and message ids come from a per-shard
    /// namespace, so independently running shards never collide.
    pub fn for_shard(shard: ShardId) -> Self {
        MailProvider {
            log: LogStore::for_shard(shard),
            next_message: shard as u32 * SHARD_ID_NAMESPACE,
            ..Self::default()
        }
    }

    /// Register an account with its primary address.
    ///
    /// # Panics
    /// Panics if the address is already registered.
    pub fn create_account(&mut self, address: EmailAddress) -> AccountId {
        assert!(
            self.addresses.lookup(&address).is_none(),
            "address {address} already registered"
        );
        let id = AccountId::from_index(self.accounts.len());
        self.accounts.push(AccountState::default());
        let sym = self.addresses.intern(address);
        debug_assert_eq!(sym.index(), id.index(), "address symbols track account ids");
        id
    }

    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Primary address of an account.
    pub fn address_of(&self, id: AccountId) -> &EmailAddress {
        self.addresses.resolve(Sym::from_index(id.index()))
    }

    /// Resolve an address to an internal account, if it is one of ours.
    pub fn resolve(&self, address: &EmailAddress) -> Option<AccountId> {
        self.addresses.lookup(address).map(|sym| AccountId::from_index(sym.index()))
    }

    /// Immutable mailbox access (measurement only).
    pub fn mailbox(&self, id: AccountId) -> &Mailbox {
        &self.accounts[id.index()].mailbox
    }

    /// Mutable mailbox access (remission restores; sizing contact lists
    /// at build).
    pub fn mailbox_mut(&mut self, id: AccountId) -> &mut Mailbox {
        &mut self.accounts[id.index()].mailbox
    }

    /// The full activity log (a columnar segment; iterate it for
    /// stamped entries, or use [`LogStore::iter_from`] for incremental
    /// cursor-based consumers).
    pub fn log(&self) -> &LogStore<MailEvent> {
        &self.log
    }

    /// The provider's metrics registry (send/delivery/search counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn push_event(&mut self, at: SimTime, account: AccountId, actor: Actor, kind: MailEventKind) {
        self.log.append(at, MailEvent { at, account, actor, kind });
    }

    fn alloc_message(&mut self) -> MessageId {
        let id = MessageId(self.next_message);
        self.next_message += 1;
        id
    }

    fn share(&mut self, text: &str) -> Arc<str> {
        if let Some(shared) = self.texts.get(text) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(text);
        self.texts.insert(Arc::clone(&shared));
        shared
    }

    /// A draft's subject and body as shared text, and its recipients
    /// as one list.
    fn share_text(&mut self, draft: &MessageDraft) -> SharedText {
        SharedText {
            subject: self.share(&draft.subject),
            body: self.share(&draft.body),
            to: Arc::from(draft.to.as_slice()),
        }
    }

    // ---- sending & delivery ----

    /// Send a message from an internal account.
    ///
    /// One copy lands in the sender's Sent folder; each recipient who is
    /// an internal account receives a delivered copy, routed through
    /// their filters, with `classify_spam` deciding whether the
    /// provider's inbound filter sends it to Spam. Returns the Sent-copy
    /// id and the ids of delivered copies.
    pub fn send(
        &mut self,
        from: AccountId,
        actor: Actor,
        draft: MessageDraft,
        at: SimTime,
        mut classify_spam: impl FnMut(&Message) -> bool,
    ) -> (MessageId, Vec<MessageId>) {
        let from_addr = self.address_of(from).clone();
        let text = self.share_text(&draft);
        let sent_id = self.alloc_message();
        let mut sent_copy = text.message(sent_id, from, from_addr.clone(), &draft, at);
        sent_copy.read = true;
        self.accounts[from.index()].mailbox.store(sent_copy, Folder::Sent);
        self.metrics.inc(M_MESSAGES_SENT);
        self.push_event(
            at,
            from,
            actor,
            MailEventKind::Sent { message: sent_id, recipients: draft.to.len() },
        );

        let mut delivered = Vec::new();
        for recipient in &draft.to {
            if let Some(rcpt_id) = self.resolve(recipient) {
                let id = self.deliver_internal(
                    rcpt_id,
                    from_addr.clone(),
                    &draft,
                    &text,
                    at,
                    &mut classify_spam,
                );
                delivered.push(id);
            }
            // External recipients leave our logs at the Sent event.
        }
        (sent_id, delivered)
    }

    /// Deliver mail that originates *outside* the provider (phishing
    /// lures from external infrastructure, external correspondents).
    pub fn deliver_external(
        &mut self,
        to: AccountId,
        from: EmailAddress,
        draft: &MessageDraft,
        at: SimTime,
        mut classify_spam: impl FnMut(&Message) -> bool,
    ) -> MessageId {
        let text = self.share_text(draft);
        self.deliver_internal(to, from, draft, &text, at, &mut classify_spam)
    }

    fn deliver_internal(
        &mut self,
        to: AccountId,
        from: EmailAddress,
        draft: &MessageDraft,
        text: &SharedText,
        at: SimTime,
        classify_spam: &mut impl FnMut(&Message) -> bool,
    ) -> MessageId {
        let id = self.alloc_message();
        let msg = text.message(id, to, from, draft, at);
        let spam = classify_spam(&msg);
        // User filters run on mail the spam filter lets through.
        let outcome = if spam {
            crate::filters::FilterOutcome {
                route_to: Some(Folder::Spam),
                forward_to: None,
                fired: None,
            }
        } else {
            apply_filters(&self.accounts[to.index()].filters, &msg)
        };
        let folder = outcome.route_to.unwrap_or(Folder::Inbox);
        // Forwarded copies leave the provider (doppelgangers are
        // external); the Sent-style event trail is the filter audit.
        self.accounts[to.index()].mailbox.store(msg, folder);
        self.metrics.inc(M_MAIL_DELIVERED);
        if spam {
            self.metrics.inc(M_MAIL_SPAM_FOLDERED);
        }
        self.push_event(
            at,
            to,
            Actor::System,
            MailEventKind::Delivered { message: id, spam_foldered: spam },
        );
        id
    }

    // ---- reading & browsing ----

    /// Open a message, marking it read.
    pub fn read_message(&mut self, account: AccountId, actor: Actor, id: MessageId, at: SimTime) {
        if self.accounts[account.index()].mailbox.mark_read(id) {
            self.push_event(at, account, actor, MailEventKind::Read { message: id });
        }
    }

    /// Run a search, logging the raw query string (Dataset 6 is exactly
    /// this log restricted to hijacker sessions).
    pub fn search_mailbox(
        &mut self,
        account: AccountId,
        actor: Actor,
        raw_query: &str,
        at: SimTime,
    ) -> Vec<MessageId> {
        let q = SearchQuery::parse(raw_query);
        let hits = search(&self.accounts[account.index()].mailbox, &q);
        self.metrics.inc(M_SEARCHES);
        self.push_event(
            at,
            account,
            actor,
            MailEventKind::Searched { query: raw_query.to_string() },
        );
        hits
    }

    /// Open a folder view.
    pub fn open_folder(
        &mut self,
        account: AccountId,
        actor: Actor,
        folder: Folder,
        at: SimTime,
    ) -> Vec<MessageId> {
        let ids = self.accounts[account.index()].mailbox.list_folder(folder);
        self.push_event(at, account, actor, MailEventKind::FolderOpened { folder });
        ids
    }

    /// View the contact list.
    pub fn view_contacts(
        &mut self,
        account: AccountId,
        actor: Actor,
        at: SimTime,
    ) -> Vec<ContactEntry> {
        let contacts = self.accounts[account.index()].mailbox.contacts().to_vec();
        self.push_event(
            at,
            account,
            actor,
            MailEventKind::ContactsViewed { count: contacts.len() },
        );
        contacts
    }

    pub fn add_contact(&mut self, account: AccountId, entry: ContactEntry) {
        self.accounts[account.index()].mailbox.add_contact(entry);
    }

    pub fn delete_contact(
        &mut self,
        account: AccountId,
        actor: Actor,
        address: &EmailAddress,
        at: SimTime,
    ) -> bool {
        let ok = self.accounts[account.index()].mailbox.delete_contact(address, at);
        if ok {
            self.push_event(
                at,
                account,
                actor,
                MailEventKind::ContactDeleted { address: address.clone() },
            );
        }
        ok
    }

    // ---- moving & deleting ----

    pub fn purge_message(
        &mut self,
        account: AccountId,
        actor: Actor,
        id: MessageId,
        at: SimTime,
    ) -> bool {
        let ok = self.accounts[account.index()].mailbox.purge(id, at);
        if ok {
            self.push_event(at, account, actor, MailEventKind::Purged { message: id });
        }
        ok
    }

    /// Purge every live message — the §5.4 mass-deletion tactic.
    /// Returns the number of messages deleted.
    pub fn mass_delete(&mut self, account: AccountId, actor: Actor, at: SimTime) -> usize {
        let ids = self.accounts[account.index()].mailbox.purge_all(at);
        for &message in &ids {
            self.push_event(at, account, actor, MailEventKind::Purged { message });
        }
        ids.len()
    }

    // ---- filters & reply-to ----

    /// Install a filter; the id is allocated by the provider.
    #[allow(clippy::too_many_arguments)]
    pub fn create_filter(
        &mut self,
        account: AccountId,
        actor: Actor,
        match_from: Option<EmailAddress>,
        match_subject_contains: Option<String>,
        match_all: bool,
        action: FilterAction,
        at: SimTime,
    ) -> FilterId {
        let id = FilterId(self.next_filter);
        self.next_filter += 1;
        self.accounts[account.index()].filters.push(MailFilter {
            id,
            match_from,
            match_subject_contains,
            match_all,
            action,
        });
        self.accounts[account.index()].filter_audit.push((id, actor, at));
        self.push_event(at, account, actor, MailEventKind::FilterCreated { filter: id });
        id
    }

    pub fn remove_filter(
        &mut self,
        account: AccountId,
        actor: Actor,
        id: FilterId,
        at: SimTime,
    ) -> bool {
        let filters = &mut self.accounts[account.index()].filters;
        let Some(pos) = filters.iter().position(|f| f.id == id) else {
            return false;
        };
        filters.remove(pos);
        self.push_event(at, account, actor, MailEventKind::FilterRemoved { filter: id });
        true
    }

    /// Active filters on an account.
    pub fn filters(&self, account: AccountId) -> &[MailFilter] {
        &self.accounts[account.index()].filters
    }

    /// Filters created at or after `since`, with their creating actor —
    /// the remission review surface.
    pub fn filters_created_since(
        &self,
        account: AccountId,
        since: SimTime,
    ) -> Vec<(FilterId, Actor)> {
        self.accounts[account.index()]
            .filter_audit
            .iter()
            .filter(|(_, _, at)| *at >= since)
            .map(|(id, actor, _)| (*id, *actor))
            .collect()
    }

    /// Change the account-level default Reply-To (26% of 2012 hijack
    /// cases had a hijacker-configured Reply-To, §5.4).
    pub fn set_reply_to(
        &mut self,
        account: AccountId,
        actor: Actor,
        to: Option<EmailAddress>,
        at: SimTime,
    ) {
        let state = &mut self.accounts[account.index()];
        let old = state.reply_to.clone();
        state.reply_to = to.clone();
        state.reply_to_audit.push(SettingsAudit { at, actor, old, new: to.clone() });
        self.push_event(at, account, actor, MailEventKind::ReplyToChanged { to });
    }

    pub fn reply_to(&self, account: AccountId) -> Option<&EmailAddress> {
        self.accounts[account.index()].reply_to.as_ref()
    }

    /// The Reply-To value that was in effect just before `since`
    /// (for remission rollback). `None` if it was never changed.
    pub fn reply_to_before(&self, account: AccountId, since: SimTime) -> Option<Option<EmailAddress>> {
        let audit = &self.accounts[account.index()].reply_to_audit;
        // First change at/after `since` carries the pre-hijack value.
        audit.iter().find(|a| a.at >= since).map(|a| a.old.clone())
    }

    /// User reports a received message as spam/phishing (feeds the §5.3
    /// "39% more spam reports on hijack day" measurement).
    pub fn report_spam(&mut self, account: AccountId, id: MessageId, at: SimTime) {
        self.metrics.inc(M_SPAM_REPORTS);
        self.push_event(at, account, Actor::Owner, MailEventKind::ReportedSpam { message: id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn addr(local: &str) -> EmailAddress {
        EmailAddress::new(local, "homemail.com")
    }

    fn never_spam(_: &Message) -> bool {
        false
    }

    fn setup2() -> (MailProvider, AccountId, AccountId) {
        let mut p = MailProvider::new();
        let a = p.create_account(addr("alice"));
        let b = p.create_account(addr("bob"));
        (p, a, b)
    }

    #[test]
    fn create_and_resolve() {
        let (p, a, b) = setup2();
        assert_eq!(p.account_count(), 2);
        assert_eq!(p.resolve(&addr("alice")), Some(a));
        assert_eq!(p.resolve(&addr("bob")), Some(b));
        assert_eq!(p.resolve(&addr("carol")), None);
        assert_eq!(p.address_of(a), &addr("alice"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_address_rejected() {
        let mut p = MailProvider::new();
        p.create_account(addr("alice"));
        p.create_account(addr("alice"));
    }

    #[test]
    fn send_stores_sent_copy_and_delivers() {
        let (mut p, a, b) = setup2();
        let draft = MessageDraft::personal(vec![addr("bob")], "hi", "hello bob");
        let (sent, delivered) = p.send(a, Actor::Owner, draft, SimTime::from_secs(10), never_spam);
        assert_eq!(delivered.len(), 1);
        assert_eq!(p.mailbox(a).list_folder(Folder::Sent), vec![sent]);
        assert_eq!(p.mailbox(b).list_folder(Folder::Inbox), vec![delivered[0]]);
        // The log has a Sent and a Delivered record.
        assert!(p.log().iter().any(|e| matches!(
            &e.kind,
            MailEventKind::Sent { recipients: 1, .. }
        ) && e.account == a));
        assert!(p.log().iter().any(|e| matches!(
            &e.kind,
            MailEventKind::Delivered { spam_foldered: false, .. }
        ) && e.account == b));
    }

    #[test]
    fn external_recipients_only_log_sent() {
        let (mut p, a, _) = setup2();
        let ext = EmailAddress::new("someone", "elsewhere.net");
        let draft = MessageDraft::personal(vec![ext], "hi", "x");
        let (_, delivered) = p.send(a, Actor::Owner, draft, SimTime::from_secs(5), never_spam);
        assert!(delivered.is_empty());
    }

    #[test]
    fn spam_classifier_routes_to_spam() {
        let (mut p, _, b) = setup2();
        let lure = MessageDraft::personal(vec![addr("bob")], "verify your account", "click")
            .with_kind(MessageKind::PhishingLure);
        let id = p.deliver_external(
            b,
            EmailAddress::new("phisher", "evil.net"),
            &lure,
            SimTime::from_secs(20),
            |m| m.kind == MessageKind::PhishingLure,
        );
        assert_eq!(p.mailbox(b).folder_of(id), Some(Folder::Spam));
        assert!(p.log().iter().any(|e| matches!(
            &e.kind,
            MailEventKind::Delivered { spam_foldered: true, .. }
        )));
    }

    #[test]
    fn user_filters_apply_on_clean_mail() {
        let (mut p, _, b) = setup2();
        p.create_filter(
            b,
            Actor::Owner,
            None,
            Some("newsletter".into()),
            false,
            FilterAction::MoveTo(Folder::Trash),
            SimTime::from_secs(1),
        );
        let d = MessageDraft::personal(vec![addr("bob")], "Weekly Newsletter", "content");
        let id = p.deliver_external(
            b,
            EmailAddress::new("list", "news.org"),
            &d,
            SimTime::from_secs(2),
            never_spam,
        );
        assert_eq!(p.mailbox(b).folder_of(id), Some(Folder::Trash));
    }

    #[test]
    fn read_marks_message() {
        let (mut p, a, b) = setup2();
        let d = MessageDraft::personal(vec![addr("bob")], "s", "b");
        let (_, delivered) = p.send(a, Actor::Owner, d, SimTime::from_secs(1), never_spam);
        let id = delivered[0];
        assert!(!p.mailbox(b).get(id).unwrap().read);
        p.read_message(b, Actor::Owner, id, SimTime::from_secs(2));
        assert!(p.mailbox(b).get(id).unwrap().read);
    }

    #[test]
    fn search_logs_query() {
        let (mut p, a, _) = setup2();
        p.search_mailbox(a, Actor::Hijacker(mhw_types::CrewId(0)), "wire transfer", SimTime::from_secs(9));
        let rec = p
            .log()
            .iter()
            .find(|e| matches!(&e.kind, MailEventKind::Searched { .. }))
            .unwrap();
        assert_eq!(rec.actor, Actor::Hijacker(mhw_types::CrewId(0)));
        match &rec.kind {
            MailEventKind::Searched { query } => assert_eq!(query, "wire transfer"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn folder_open_and_contacts_logged() {
        let (mut p, a, _) = setup2();
        p.add_contact(a, ContactEntry { address: addr("bob"), internal: None });
        p.open_folder(a, Actor::Owner, Folder::Starred, SimTime::from_secs(1));
        let contacts = p.view_contacts(a, Actor::Owner, SimTime::from_secs(2));
        assert_eq!(contacts.len(), 1);
        assert!(p.log().iter().any(|e| matches!(
            &e.kind,
            MailEventKind::FolderOpened { folder: Folder::Starred }
        )));
        assert!(p
            .log()
            .iter()
            .any(|e| matches!(&e.kind, MailEventKind::ContactsViewed { count: 1 })));
    }

    #[test]
    fn mass_delete_and_restore() {
        let (mut p, a, b) = setup2();
        for i in 0..5 {
            let d = MessageDraft::personal(vec![addr("bob")], &format!("m{i}"), "x");
            p.send(a, Actor::Owner, d, SimTime::from_secs(i), never_spam);
        }
        let crew = Actor::Hijacker(mhw_types::CrewId(1));
        let hijack_at = SimTime::from_secs(100);
        let n = p.mass_delete(b, crew, hijack_at);
        assert_eq!(n, 5);
        assert!(p.mailbox(b).is_empty());
        // Remission restores the mailbox.
        let restored = p.mailbox_mut(b).restore_purged_since(hijack_at);
        assert_eq!(restored, 5);
        assert_eq!(p.mailbox(b).len(), 5);
    }

    #[test]
    fn metrics_track_send_delivery_and_spam() {
        let (mut p, a, b) = setup2();
        let d = MessageDraft::personal(vec![addr("bob")], "hi", "x");
        p.send(a, Actor::Owner, d, SimTime::from_secs(1), never_spam);
        let lure = MessageDraft::personal(vec![addr("bob")], "verify", "click")
            .with_kind(MessageKind::PhishingLure);
        p.deliver_external(
            b,
            EmailAddress::new("phisher", "evil.net"),
            &lure,
            SimTime::from_secs(2),
            |m| m.kind == MessageKind::PhishingLure,
        );
        p.search_mailbox(b, Actor::Owner, "verify", SimTime::from_secs(3));
        let m = p.metrics();
        assert_eq!(m.counter_value(M_MESSAGES_SENT), Some(1));
        assert_eq!(m.counter_value(M_MAIL_DELIVERED), Some(2));
        assert_eq!(m.counter_value(M_MAIL_SPAM_FOLDERED), Some(1));
        assert_eq!(m.counter_value(M_SEARCHES), Some(1));
    }

    #[test]
    fn filter_audit_supports_remission() {
        let (mut p, a, _) = setup2();
        let owner_f = p.create_filter(
            a,
            Actor::Owner,
            None,
            Some("news".into()),
            false,
            FilterAction::MoveTo(Folder::Trash),
            SimTime::from_secs(10),
        );
        let crew = Actor::Hijacker(mhw_types::CrewId(0));
        let hijack_at = SimTime::from_secs(100);
        let evil_f = p.create_filter(
            a,
            crew,
            None,
            None,
            true,
            FilterAction::ForwardTo(EmailAddress::new("dopp", "evil.net")),
            hijack_at,
        );
        let created = p.filters_created_since(a, hijack_at);
        assert_eq!(created, vec![(evil_f, crew)]);
        assert!(p.remove_filter(a, Actor::System, evil_f, SimTime::from_secs(200)));
        assert!(!p.remove_filter(a, Actor::System, evil_f, SimTime::from_secs(201)));
        assert_eq!(p.filters(a).len(), 1);
        assert_eq!(p.filters(a)[0].id, owner_f);
    }

    #[test]
    fn reply_to_audit_rollback_value() {
        let (mut p, a, _) = setup2();
        let crew = Actor::Hijacker(mhw_types::CrewId(0));
        let hijack_at = SimTime::from_secs(50);
        assert_eq!(p.reply_to(a), None);
        p.set_reply_to(a, crew, Some(EmailAddress::new("dopp", "evil.net")), hijack_at);
        assert!(p.reply_to(a).is_some());
        // Remission looks up the pre-hijack value.
        assert_eq!(p.reply_to_before(a, hijack_at), Some(None));
        // No change since a later time → nothing to roll back.
        assert_eq!(p.reply_to_before(a, SimTime::from_secs(500)), None);
    }
}
