//! Mail filters and forwarding rules.
//!
//! §5.4 "Acting in the Shadow": hijackers "set up an email filter and
//! redirect all hijacker-initiated communication to the Trash or to the
//! Spam folder", and divert victim replies to doppelganger accounts via
//! forwarding rules. In the November 2012 sample, 15% of hijacked
//! accounts had hijacker-created forwarding rules. Filters here match on
//! sender and/or subject substring and either move the message on
//! delivery or forward a copy to an external address.

use crate::mailbox::Folder;
use crate::message::{contains_ignore_ascii_case, Message};
use mhw_types::{EmailAddress, FilterId};
use serde::{Deserialize, Serialize};

/// What a matching filter does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterAction {
    /// Route the message to a folder on delivery (Trash/Spam hiding).
    MoveTo(Folder),
    /// Forward a copy to an external address (doppelganger diversion),
    /// leaving the original in the Inbox.
    ForwardTo(EmailAddress),
    /// Forward and hide: copy out, original to Trash — the combined
    /// tactic that maximizes stealth.
    ForwardAndTrash(EmailAddress),
}

/// A delivery-time filter rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MailFilter {
    pub id: FilterId,
    /// Match messages from this exact address (if set).
    pub match_from: Option<EmailAddress>,
    /// Match messages whose subject contains this needle, ignoring ASCII
    /// case on both sides.
    pub match_subject_contains: Option<String>,
    /// `true` ⇒ match every inbound message (the "forward all" rule).
    pub match_all: bool,
    pub action: FilterAction,
}

impl MailFilter {
    /// Whether the filter matches an inbound message.
    pub fn matches(&self, m: &Message) -> bool {
        if self.match_all {
            return true;
        }
        let mut any_criterion = false;
        if let Some(from) = &self.match_from {
            any_criterion = true;
            if &m.from != from {
                return false;
            }
        }
        if let Some(needle) = &self.match_subject_contains {
            any_criterion = true;
            if !contains_ignore_ascii_case(&m.subject, needle) {
                return false;
            }
        }
        any_criterion
    }

    /// Whether this filter forwards mail off the account — the signal
    /// the recovery review surfaces to the owner (§5.4: "it is essential
    /// during the account recovery process to have these settings
    /// reviewed … or automatically cleared").
    pub fn forwards_externally(&self) -> bool {
        matches!(
            self.action,
            FilterAction::ForwardTo(_) | FilterAction::ForwardAndTrash(_)
        )
    }
}

/// Apply the first matching filter (first-match-wins, like real filter
/// chains) and report the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOutcome {
    /// Folder the message should be stored in (None ⇒ default Inbox).
    pub route_to: Option<Folder>,
    /// External address to forward a copy to, if any.
    pub forward_to: Option<EmailAddress>,
    /// The filter that fired, if any.
    pub fired: Option<FilterId>,
}

pub fn apply_filters(filters: &[MailFilter], m: &Message) -> FilterOutcome {
    for f in filters {
        if f.matches(m) {
            let (route_to, forward_to) = match &f.action {
                FilterAction::MoveTo(folder) => (Some(*folder), None),
                FilterAction::ForwardTo(addr) => (None, Some(addr.clone())),
                FilterAction::ForwardAndTrash(addr) => {
                    (Some(Folder::Trash), Some(addr.clone()))
                }
            };
            return FilterOutcome { route_to, forward_to, fired: Some(f.id) };
        }
    }
    FilterOutcome { route_to: None, forward_to: None, fired: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use mhw_types::{AccountId, MessageId, SimTime};

    fn msg(from: &str, subject: &str) -> Message {
        Message {
            id: MessageId(1),
            owner: AccountId(0),
            from: EmailAddress::new(from, "x.com"),
            to: vec![],
            subject: subject.into(),
            body: "".into(),
            attachments: vec![],
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::EPOCH,
            read: false,
            starred: false,
        }
    }

    fn fwd(id: u32, addr: &str) -> MailFilter {
        MailFilter {
            id: FilterId(id),
            match_from: None,
            match_subject_contains: None,
            match_all: true,
            action: FilterAction::ForwardTo(EmailAddress::new(addr, "dopp.com")),
        }
    }

    #[test]
    fn match_all_forwards_everything() {
        let filters = vec![fwd(1, "evil")];
        let out = apply_filters(&filters, &msg("anyone", "anything"));
        assert_eq!(out.fired, Some(FilterId(1)));
        assert_eq!(out.forward_to.unwrap().local(), "evil");
        assert_eq!(out.route_to, None);
    }

    #[test]
    fn from_criterion() {
        let f = MailFilter {
            id: FilterId(2),
            match_from: Some(EmailAddress::new("alice", "x.com")),
            match_subject_contains: None,
            match_all: false,
            action: FilterAction::MoveTo(Folder::Trash),
        };
        assert!(f.matches(&msg("alice", "hi")));
        assert!(!f.matches(&msg("bob", "hi")));
    }

    #[test]
    fn subject_criterion_is_case_insensitive() {
        let f = MailFilter {
            id: FilterId(3),
            match_from: None,
            match_subject_contains: Some("Urgent Help".into()),
            match_all: false,
            action: FilterAction::MoveTo(Folder::Spam),
        };
        assert!(f.matches(&msg("x", "RE: URGENT HELP needed")));
        assert!(!f.matches(&msg("x", "lunch?")));
    }

    #[test]
    fn both_criteria_must_hold() {
        let f = MailFilter {
            id: FilterId(4),
            match_from: Some(EmailAddress::new("alice", "x.com")),
            match_subject_contains: Some("wire".into()),
            match_all: false,
            action: FilterAction::MoveTo(Folder::Trash),
        };
        assert!(f.matches(&msg("alice", "wire details")));
        assert!(!f.matches(&msg("alice", "hello")));
        assert!(!f.matches(&msg("bob", "wire details")));
    }

    #[test]
    fn criterionless_non_matchall_filter_never_fires() {
        let f = MailFilter {
            id: FilterId(5),
            match_from: None,
            match_subject_contains: None,
            match_all: false,
            action: FilterAction::MoveTo(Folder::Trash),
        };
        assert!(!f.matches(&msg("x", "y")));
    }

    #[test]
    fn first_match_wins() {
        let filters = vec![
            MailFilter {
                id: FilterId(1),
                match_from: None,
                match_subject_contains: Some("wire".into()),
                match_all: false,
                action: FilterAction::MoveTo(Folder::Spam),
            },
            fwd(2, "evil"),
        ];
        let out = apply_filters(&filters, &msg("x", "wire transfer"));
        assert_eq!(out.fired, Some(FilterId(1)));
        assert_eq!(out.route_to, Some(Folder::Spam));
        assert!(out.forward_to.is_none());
    }

    #[test]
    fn forward_and_trash_does_both() {
        let filters = vec![MailFilter {
            id: FilterId(6),
            match_from: None,
            match_subject_contains: None,
            match_all: true,
            action: FilterAction::ForwardAndTrash(EmailAddress::new("d", "dopp.com")),
        }];
        let out = apply_filters(&filters, &msg("x", "y"));
        assert_eq!(out.route_to, Some(Folder::Trash));
        assert!(out.forward_to.is_some());
    }

    #[test]
    fn external_forwarding_detection() {
        assert!(fwd(1, "e").forwards_externally());
        let mover = MailFilter {
            id: FilterId(2),
            match_from: None,
            match_subject_contains: None,
            match_all: true,
            action: FilterAction::MoveTo(Folder::Trash),
        };
        assert!(!mover.forwards_externally());
    }

    #[test]
    fn no_filters_default_route() {
        let out = apply_filters(&[], &msg("x", "y"));
        assert_eq!(out, FilterOutcome { route_to: None, forward_to: None, fired: None });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::message::MessageKind;
    use mhw_types::{AccountId, MessageId, SimTime};
    use proptest::prelude::*;

    fn msg_with_subject(subject: &str) -> Message {
        Message {
            id: MessageId(0),
            owner: AccountId(0),
            from: EmailAddress::new("someone", "x.com"),
            to: vec![],
            subject: subject.into(),
            body: "".into(),
            attachments: vec![],
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::EPOCH,
            read: false,
            starred: false,
        }
    }

    proptest! {
        /// First-match-wins: the outcome always corresponds to the first
        /// matching filter in chain order.
        #[test]
        fn first_match_wins_always(subjects in proptest::collection::vec("[a-c]{1,4}", 1..8), needle in "[a-c]{1,2}") {
            let filters: Vec<MailFilter> = subjects
                .iter()
                .enumerate()
                .map(|(i, s)| MailFilter {
                    id: FilterId(i as u32),
                    match_from: None,
                    match_subject_contains: Some(s.clone()),
                    match_all: false,
                    action: FilterAction::MoveTo(Folder::Trash),
                })
                .collect();
            let m = msg_with_subject(&needle);
            let outcome = apply_filters(&filters, &m);
            let expected = filters.iter().find(|f| f.matches(&m)).map(|f| f.id);
            prop_assert_eq!(outcome.fired, expected);
        }

        /// A match-all filter at position 0 shadows everything behind it.
        #[test]
        fn match_all_shadows(rest in proptest::collection::vec("[a-z]{1,4}", 0..5)) {
            let mut filters = vec![MailFilter {
                id: FilterId(0),
                match_from: None,
                match_subject_contains: None,
                match_all: true,
                action: FilterAction::MoveTo(Folder::Spam),
            }];
            for (i, s) in rest.iter().enumerate() {
                filters.push(MailFilter {
                    id: FilterId(1 + i as u32),
                    match_from: None,
                    match_subject_contains: Some(s.clone()),
                    match_all: false,
                    action: FilterAction::MoveTo(Folder::Trash),
                });
            }
            let out = apply_filters(&filters, &msg_with_subject("whatever"));
            prop_assert_eq!(out.fired, Some(FilterId(0)));
            prop_assert_eq!(out.route_to, Some(Folder::Spam));
        }
    }
}
