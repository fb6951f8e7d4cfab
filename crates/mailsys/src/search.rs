//! Mailbox search.
//!
//! Hijackers' primary value-assessment tool is "the Gmail search feature"
//! (§5.2), and Table 3 lists their actual queries — plain keywords
//! (`wire transfer`, `password`, `jpg`), non-Latin terms (`账单`), and
//! Gmail operators (`is:starred`, `filename:(jpg or jpeg or png)`). The
//! query language implemented here covers exactly those forms:
//!
//! * bare terms — case-insensitive substring match over subject + body
//!   (multiple terms must all match);
//! * `is:starred` — restrict to starred messages;
//! * `filename:EXT` / `filename:(A or B or C)` — match attachment
//!   extensions.

use crate::mailbox::{Folder, Mailbox};
use mhw_types::MessageId;

/// A parsed search query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchQuery {
    /// Lower-cased free-text terms that must all match subject or body.
    pub terms: Vec<String>,
    /// `is:starred` operator present.
    pub starred_only: bool,
    /// Attachment extensions from `filename:` operators (lower-cased).
    pub filename_exts: Vec<String>,
}

impl SearchQuery {
    /// Parse a raw query string.
    pub fn parse(raw: &str) -> SearchQuery {
        let mut q = SearchQuery::default();
        let mut rest = raw.trim();
        let mut terms = Vec::new();
        while !rest.is_empty() {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            let lower = rest.to_ascii_lowercase();
            if lower.starts_with("is:starred") {
                q.starred_only = true;
                rest = &rest["is:starred".len()..];
            } else if lower.starts_with("filename:(") {
                // filename:(jpg or jpeg or png)
                if let Some(close) = rest.find(')') {
                    let inner = &rest["filename:(".len()..close];
                    for part in inner.split_whitespace() {
                        let p = part.to_ascii_lowercase();
                        if p != "or" && !p.is_empty() {
                            q.filename_exts.push(p);
                        }
                    }
                    rest = &rest[close + 1..];
                } else {
                    // Unbalanced parenthesis: treat the remainder as text.
                    terms.push(rest.to_ascii_lowercase());
                    break;
                }
            } else if lower.starts_with("filename:") {
                let after = &rest["filename:".len()..];
                let end = after.find(char::is_whitespace).unwrap_or(after.len());
                q.filename_exts.push(after[..end].to_ascii_lowercase());
                rest = &after[end..];
            } else {
                // Take the next whitespace-separated token as a term, but
                // keep multi-word phrases together when no operators are
                // present (hijacker queries like "wire transfer" should
                // match as a phrase).
                let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
                terms.push(rest[..end].to_ascii_lowercase());
                rest = &rest[end..];
            }
        }
        // Adjacent bare terms form one phrase: "wire transfer" matches
        // the literal phrase first, falling back to all-terms-match.
        q.terms = terms;
        q
    }

    /// Whether the query has any effective criteria.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty() && !self.starred_only && self.filename_exts.is_empty()
    }
}

/// Run a query over a mailbox; excludes Trash and Spam (like default
/// webmail search) and returns ids in arrival order.
pub fn search(mailbox: &Mailbox, query: &SearchQuery) -> Vec<MessageId> {
    let phrase = query.terms.join(" ");
    let exts: Vec<&str> = query.filename_exts.iter().map(String::as_str).collect();
    mailbox
        .messages_in_folders()
        .filter(|(_, folder)| !matches!(folder, Folder::Trash | Folder::Spam))
        .map(|(m, _)| m)
        .filter(|m| {
            if query.starred_only && !m.starred {
                return false;
            }
            if !exts.is_empty() && !m.has_attachment_ext(&exts) {
                return false;
            }
            if !query.terms.is_empty() {
                // Phrase match, falling back to all-terms match.
                if !(m.text_matches(&phrase)
                    || query.terms.iter().all(|t| m.text_matches(t)))
                {
                    return false;
                }
            }
            true
        })
        .map(|m| m.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, MessageKind};
    use mhw_types::{AccountId, EmailAddress, SimTime};

    fn mk(id: u32, subject: &str, body: &str, starred: bool, attachments: Vec<&str>) -> Message {
        Message {
            id: MessageId(id),
            owner: AccountId(0),
            from: EmailAddress::new("from", "x.com"),
            to: vec![].into(),
            subject: subject.into(),
            body: body.into(),
            attachments: attachments.into_iter().map(String::from).collect(),
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::from_secs(id as u64),
            read: false,
            starred,
        }
    }

    fn mailbox() -> Mailbox {
        let mut mb = Mailbox::new();
        mb.store(
            mk(1, "Wire transfer receipt", "your bank confirmed the wire transfer", false, vec![]),
            Folder::Inbox,
        );
        mb.store(
            mk(2, "Vacation", "photos attached", true, vec!["beach.jpg", "sunset.png"]),
            Folder::Inbox,
        );
        mb.store(mk(3, "password reset", "your amazon password", false, vec![]), Folder::Inbox);
        mb.store(mk(4, "old wire transfer", "archived", false, vec![]), Folder::Trash);
        mb.store(mk(5, "spam transfer", "wire transfer scam", false, vec![]), Folder::Spam);
        mb
    }

    #[test]
    fn parse_bare_terms() {
        let q = SearchQuery::parse("wire transfer");
        assert_eq!(q.terms, vec!["wire", "transfer"]);
        assert!(!q.starred_only);
        assert!(q.filename_exts.is_empty());
    }

    #[test]
    fn parse_operators() {
        let q = SearchQuery::parse("filename:(jpg or jpeg or png) is:starred");
        assert!(q.starred_only);
        assert_eq!(q.filename_exts, vec!["jpg", "jpeg", "png"]);
        assert!(q.terms.is_empty());
    }

    #[test]
    fn parse_single_filename() {
        let q = SearchQuery::parse("filename:zip");
        assert_eq!(q.filename_exts, vec!["zip"]);
    }

    #[test]
    fn parse_mixed() {
        let q = SearchQuery::parse("passport filename:jpg");
        assert_eq!(q.terms, vec!["passport"]);
        assert_eq!(q.filename_exts, vec!["jpg"]);
    }

    #[test]
    fn parse_empty_and_unbalanced() {
        assert!(SearchQuery::parse("").is_empty());
        assert!(SearchQuery::parse("   ").is_empty());
        let q = SearchQuery::parse("filename:(jpg or png");
        assert!(!q.is_empty()); // degrades to a text term
    }

    #[test]
    fn phrase_search_matches() {
        let mb = mailbox();
        let hits = search(&mb, &SearchQuery::parse("wire transfer"));
        assert_eq!(hits, vec![MessageId(1)]); // trash/spam excluded
    }

    #[test]
    fn search_excludes_trash_and_spam() {
        let mb = mailbox();
        let hits = search(&mb, &SearchQuery::parse("transfer"));
        assert_eq!(hits, vec![MessageId(1)]);
    }

    #[test]
    fn starred_filter() {
        let mb = mailbox();
        let hits = search(&mb, &SearchQuery::parse("is:starred"));
        assert_eq!(hits, vec![MessageId(2)]);
    }

    #[test]
    fn filename_filter() {
        let mb = mailbox();
        let hits = search(&mb, &SearchQuery::parse("filename:(jpg or jpeg or png)"));
        assert_eq!(hits, vec![MessageId(2)]);
        let none = search(&mb, &SearchQuery::parse("filename:mp4"));
        assert!(none.is_empty());
    }

    #[test]
    fn chinese_terms_match() {
        let mut mb = mailbox();
        mb.store(mk(9, "您的账单", "本月账单已生成", false, vec![]), Folder::Inbox);
        let hits = search(&mb, &SearchQuery::parse("账单"));
        assert_eq!(hits, vec![MessageId(9)]);
    }

    #[test]
    fn multi_term_fallback_when_phrase_absent() {
        let mut mb = Mailbox::new();
        mb.store(
            mk(1, "transfer completed", "the wire arrived yesterday", false, vec![]),
            Folder::Inbox,
        );
        // Phrase "wire transfer" absent, but both terms present.
        let hits = search(&mb, &SearchQuery::parse("wire transfer"));
        assert_eq!(hits, vec![MessageId(1)]);
    }
}
