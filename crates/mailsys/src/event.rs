//! Provider activity log.
//!
//! The measurement pipeline in `mhw-core`/`mhw-analysis` consumes exactly
//! this log — the simulator's analogue of the Gmail activity logs Google
//! aggregated "via map-reduce computation" (§3). Each record is one
//! account-scoped action with a timestamp and the ground-truth [`Actor`].

use crate::mailbox::Folder;
use mhw_types::{AccountId, EmailAddress, FilterId, MessageId, SimTime};

/// Re-exported ground-truth actor type (shared across the workspace).
pub use mhw_types::Actor;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum MailEventKind {
    /// A message was sent from this account to `recipients` addresses.
    Sent { message: MessageId, recipients: usize },
    /// A message was delivered into this mailbox (`spam_foldered` if the
    /// provider's inbound filter routed it to Spam).
    Delivered { message: MessageId, spam_foldered: bool },
    /// A message was opened/read.
    Read { message: MessageId },
    /// A mailbox search was performed.
    Searched { query: String },
    /// A folder view was opened.
    FolderOpened { folder: Folder },
    /// The contact list was viewed.
    ContactsViewed { count: usize },
    /// A message was permanently deleted (tombstoned).
    Purged { message: MessageId },
    /// A filter was created.
    FilterCreated { filter: FilterId },
    /// A filter was removed.
    FilterRemoved { filter: FilterId },
    /// The account-level Reply-To default was changed.
    ReplyToChanged { to: Option<EmailAddress> },
    /// A contact was removed (mass contact deletion tactic).
    ContactDeleted { address: EmailAddress },
    /// The user reported a received message as spam/phishing.
    ReportedSpam { message: MessageId },
}

/// One record in the provider activity log.
#[derive(Debug, Clone, PartialEq)]
pub struct MailEvent {
    pub at: SimTime,
    pub account: AccountId,
    pub actor: Actor,
    pub kind: MailEventKind,
}
