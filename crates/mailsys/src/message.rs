//! Messages.
//!
//! A message carries enough synthetic structure for everything the
//! hijacker playbook and the defender's classifiers look at: sender and
//! recipients, a subject and body (synthetic text), attachment file
//! names (hijackers search `filename:(jpg or jpeg or png)`, Table 3),
//! and a [`MessageKind`] ground-truth label used by the measurement
//! pipeline (e.g. "was this sent mail actually a scam?") — never by
//! detectors, which must classify from content.

use mhw_types::{AccountId, EmailAddress, MessageId, SimTime};
use std::sync::Arc;

/// Ground-truth provenance of a message. Detection code must not branch
/// on this; the measurement pipeline uses it to validate classifier
/// output and to label datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Ordinary person-to-person mail.
    Personal,
    /// Statements, wire-transfer confirmations, signature scans — the
    /// financial material hijackers hunt for (§5.2).
    Banking,
    /// Mail containing credentials for linked accounts (password resets,
    /// welcome mail from other services).
    LinkedCredentials,
    /// Newsletters, receipts, machine mail.
    Bulk,
    /// A lure pointing to (or asking replies with credentials for) a
    /// phishing campaign.
    PhishingLure,
    /// A scam plea (Mugged-in-City and friends, §5.3).
    Scam,
    /// Provider-generated security notification (§8.2).
    SecurityNotification,
    /// Personal media/attachments (vacation photos, documents).
    PersonalMedia,
}

impl MessageKind {
    /// Whether a user who recognizes this mail as abusive would plausibly
    /// report it as spam/phishing.
    pub fn is_abusive(self) -> bool {
        matches!(self, MessageKind::PhishingLure | MessageKind::Scam)
    }
}

/// A draft handed to [`MailProvider::send`](crate::MailProvider::send).
#[derive(Debug, Clone)]
pub struct MessageDraft {
    pub to: Vec<EmailAddress>,
    pub subject: String,
    pub body: String,
    pub attachments: Vec<String>,
    pub kind: MessageKind,
    /// Reply-To override set on this specific message (the §5.4
    /// doppelganger diversion sets this).
    pub reply_to: Option<EmailAddress>,
}

impl MessageDraft {
    /// A plain personal message.
    pub fn personal(to: Vec<EmailAddress>, subject: &str, body: &str) -> Self {
        MessageDraft {
            to,
            subject: subject.to_string(),
            body: body.to_string(),
            attachments: Vec::new(),
            kind: MessageKind::Personal,
            reply_to: None,
        }
    }

    pub fn with_kind(mut self, kind: MessageKind) -> Self {
        self.kind = kind;
        self
    }

    pub fn with_reply_to(mut self, reply_to: EmailAddress) -> Self {
        self.reply_to = Some(reply_to);
        self
    }
}

/// A stored message in some mailbox.
///
/// Subject and body are shared: the provider deduplicates message text,
/// so a Sent copy, its delivered copies and every repeat of a template
/// point at one allocation. One send's recipient list is shared the
/// same way by its Sent copy and every delivered copy.
#[derive(Debug, Clone)]
pub struct Message {
    pub id: MessageId,
    /// Owning mailbox.
    pub owner: AccountId,
    pub from: EmailAddress,
    pub to: Arc<[EmailAddress]>,
    pub subject: Arc<str>,
    pub body: Arc<str>,
    pub attachments: Vec<String>,
    pub kind: MessageKind,
    pub reply_to: Option<EmailAddress>,
    pub at: SimTime,
    pub read: bool,
    pub starred: bool,
}

/// Whether `haystack.to_ascii_lowercase()` contains `needle`, decided
/// byte for byte without allocating. Only ASCII capitals fold, as in
/// `to_ascii_lowercase`, so a needle holding one never matches.
pub fn contains_lowercased(haystack: &str, needle: &str) -> bool {
    find_folded(haystack.as_bytes(), needle.as_bytes(), false)
}

/// Whether `haystack.to_ascii_lowercase()` contains
/// `needle.to_ascii_lowercase()`: [`contains_lowercased`] with the
/// needle folded too.
pub fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    find_folded(haystack.as_bytes(), needle.as_bytes(), true)
}

fn find_folded(haystack: &[u8], needle: &[u8], fold_needle: bool) -> bool {
    let fold = |b: u8| if fold_needle { b.to_ascii_lowercase() } else { b };
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let first = fold(first);
    haystack.windows(needle.len()).any(|w| {
        w[0].to_ascii_lowercase() == first
            && w[1..].iter().zip(rest).all(|(h, n)| h.to_ascii_lowercase() == fold(*n))
    })
}

impl Message {
    /// The addresses of the subject and body allocations. Copies that
    /// share their text have equal keys; equal texts in different
    /// allocations do not.
    pub fn text_key(&self) -> (usize, usize) {
        (Arc::as_ptr(&self.subject).addr(), Arc::as_ptr(&self.body).addr())
    }

    /// Case-insensitive haystack over subject and body.
    pub fn text_matches(&self, needle_lower: &str) -> bool {
        contains_lowercased(&self.subject, needle_lower)
            || contains_lowercased(&self.body, needle_lower)
    }

    /// Whether any attachment has one of the given extensions.
    pub fn has_attachment_ext(&self, exts: &[&str]) -> bool {
        self.attachments.iter().any(|a| {
            a.rsplit('.')
                .next()
                .map(|e| exts.iter().any(|x| x.eq_ignore_ascii_case(e)))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(subject: &str, body: &str, attachments: Vec<&str>) -> Message {
        Message {
            id: MessageId(0),
            owner: AccountId(0),
            from: EmailAddress::new("a", "x.com"),
            to: vec![EmailAddress::new("b", "y.com")].into(),
            subject: subject.into(),
            body: body.into(),
            attachments: attachments.into_iter().map(String::from).collect(),
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::EPOCH,
            read: false,
            starred: false,
        }
    }

    #[test]
    fn text_match_is_case_insensitive() {
        let m = msg("Wire Transfer Confirmation", "Your bank statement is attached", vec![]);
        assert!(m.text_matches("wire transfer"));
        assert!(m.text_matches("bank statement"));
        assert!(!m.text_matches("paypal"));
    }

    #[test]
    fn attachment_extension_matching() {
        let m = msg("photos", "from the trip", vec!["beach.JPG", "notes.txt"]);
        assert!(m.has_attachment_ext(&["jpg", "jpeg", "png"]));
        assert!(!m.has_attachment_ext(&["mp4"]));
        let none = msg("x", "y", vec![]);
        assert!(!none.has_attachment_ext(&["jpg"]));
    }

    #[test]
    fn abusive_kinds() {
        assert!(MessageKind::Scam.is_abusive());
        assert!(MessageKind::PhishingLure.is_abusive());
        assert!(!MessageKind::Personal.is_abusive());
        assert!(!MessageKind::SecurityNotification.is_abusive());
    }

    #[test]
    fn draft_builders() {
        let d = MessageDraft::personal(vec![EmailAddress::new("b", "y.com")], "hi", "there")
            .with_kind(MessageKind::Banking)
            .with_reply_to(EmailAddress::new("evil", "dopp.com"));
        assert_eq!(d.kind, MessageKind::Banking);
        assert!(d.reply_to.is_some());
    }
}
