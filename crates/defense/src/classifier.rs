//! Scam & phishing mail classification.
//!
//! §5.3 formalizes the core principles shared by hijacker scam mail:
//! a credible distress story, sympathy-evoking language, an appearance
//! of limited financial risk (loan + speedy repayment), language that
//! discourages out-of-band verification ("my phone was stolen"), and an
//! untraceable-but-safe-looking transfer mechanism (Western Union /
//! MoneyGram by name). "Detecting and filtering out such emails is a
//! high priority for us" — this module is that filter, implemented as an
//! interpretable feature scorer over exactly those principles, plus a
//! lure detector for credential-phishing mail (§4.1's two structures:
//! link-to-page and reply-with-credentials).

use mhw_mailsys::Message;
use std::collections::HashMap;
use std::sync::Arc;

/// Classifier output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MailClass {
    Clean,
    Scam,
    Phishing,
}

/// Feature hits for one message (exposed for explainability tests and
/// the classifier-quality experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScamFeatures {
    /// Untraceable transfer mechanism named (Western Union, MoneyGram,
    /// wire…).
    pub transfer_mechanism: bool,
    /// Distress story vocabulary (mugged, robbed, hospital, stranded…).
    pub distress_story: bool,
    /// Sympathy/urgency pleading.
    pub plea: bool,
    /// Loan framing with repayment promise ("limited financial risk").
    pub repayment_promise: bool,
    /// Anti-verification language ("phone was stolen", "can only be
    /// reached by email").
    pub anti_verification: bool,
    /// Credential request (password/username + reply/verify).
    pub credential_request: bool,
    /// Carries a URL plus account-pretext vocabulary.
    pub account_pretext_url: bool,
}

fn contains_any(haystack: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| haystack.contains(n))
}

/// Extract interpretable features from a message.
pub fn extract_features(m: &Message) -> ScamFeatures {
    let text = format!("{} {}", m.subject, m.body).to_ascii_lowercase();
    ScamFeatures {
        transfer_mechanism: contains_any(
            &text,
            &["western union", "moneygram", "wire me", "wire the money", "send money", "money transfer"],
        ),
        distress_story: contains_any(
            &text,
            &["mugged", "robbed", "stolen", "stranded", "hospital", "kidney", "accident", "knife", "at gunpoint"],
        ),
        plea: contains_any(
            &text,
            &["urgent", "urgently", "please help", "need your help", "sorry to bother", "desperate"],
        ),
        repayment_promise: contains_any(
            &text,
            &["pay you back", "payback", "repay", "refund you", "as soon as i get back", "temporary loan", "emergency loan"],
        ),
        anti_verification: contains_any(
            &text,
            &["phone was stolen", "cell phone were stolen", "can't call", "cannot call", "only reach me by email", "email is the only way"],
        ),
        credential_request: (text.contains("password") || text.contains("username"))
            && contains_any(&text, &["reply", "confirm", "verify", "send us", "provide"]),
        account_pretext_url: text.contains("http")
            && contains_any(
                &text,
                &["verify", "deactivat", "suspend", "quota", "confirm your account", "unusual activity"],
            ),
    }
}

/// A classified pair's two texts, held so their addresses stay keys,
/// and its features.
type SeenText = (Arc<str>, Arc<str>, ScamFeatures);

/// The classifier: weighted noisy-OR per class with thresholds.
///
/// Delivery classifies every copy of every message, but the provider
/// keeps one allocation per distinct subject and body, so copies share
/// their text. [`should_spam_folder`](Self::should_spam_folder)
/// therefore extracts each (subject, body) pair's features once and
/// looks them up after. Equal texts in different allocations get
/// entries of their own, which costs an extraction but never changes
/// an answer.
#[derive(Debug, Clone)]
pub struct MailClassifier {
    /// Threshold above which mail is labelled scam.
    pub scam_threshold: f64,
    /// Threshold above which mail is labelled phishing.
    pub phishing_threshold: f64,
    /// Features of every pair seen by `should_spam_folder`, keyed by
    /// the two texts' addresses. Each entry holds both texts, so no
    /// address can be freed and reused while it is a key.
    features_seen: HashMap<(usize, usize), SeenText>,
}

impl Default for MailClassifier {
    fn default() -> Self {
        MailClassifier {
            scam_threshold: 0.5,
            phishing_threshold: 0.5,
            features_seen: HashMap::new(),
        }
    }
}

impl MailClassifier {
    /// Scam score: how many of the §5.3 principles co-occur.
    pub fn scam_score(&self, f: &ScamFeatures) -> f64 {
        let subs = [
            if f.transfer_mechanism { 0.45 } else { 0.0 },
            if f.distress_story { 0.35 } else { 0.0 },
            if f.plea { 0.20 } else { 0.0 },
            if f.repayment_promise { 0.30 } else { 0.0 },
            if f.anti_verification { 0.35 } else { 0.0 },
        ];
        1.0 - subs.iter().fold(1.0, |acc, s| acc * (1.0 - s))
    }

    /// Phishing score: credential request or account-pretext URL.
    pub fn phishing_score(&self, f: &ScamFeatures) -> f64 {
        let subs = [
            if f.credential_request { 0.60 } else { 0.0 },
            if f.account_pretext_url { 0.60 } else { 0.0 },
        ];
        1.0 - subs.iter().fold(1.0, |acc, s| acc * (1.0 - s))
    }

    /// Classify one message.
    pub fn classify(&self, m: &Message) -> MailClass {
        self.class_of(&extract_features(m))
    }

    fn class_of(&self, f: &ScamFeatures) -> MailClass {
        let phish = self.phishing_score(f);
        let scam = self.scam_score(f);
        if phish >= self.phishing_threshold && phish >= scam {
            MailClass::Phishing
        } else if scam >= self.scam_threshold {
            MailClass::Scam
        } else {
            MailClass::Clean
        }
    }

    /// Whether delivery should route this message to Spam: the answer
    /// of `self.classify(m) != MailClass::Clean`, with the features
    /// of each distinct (subject, body) allocation pair extracted once.
    pub fn should_spam_folder(&mut self, m: &Message) -> bool {
        let key = m.text_key();
        let features = match self.features_seen.get(&key) {
            Some(&(_, _, features)) => features,
            None => {
                let features = extract_features(m);
                let entry = (Arc::clone(&m.subject), Arc::clone(&m.body), features);
                self.features_seen.insert(key, entry);
                features
            }
        };
        self.class_of(&features) != MailClass::Clean
    }
}

/// Convenience free function with the default classifier.
pub fn classify_mail(m: &Message) -> MailClass {
    MailClassifier::default().classify(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_mailsys::MessageKind;
    use mhw_types::{AccountId, EmailAddress, MessageId, SimTime};

    fn msg(subject: &str, body: &str) -> Message {
        Message {
            id: MessageId(0),
            owner: AccountId(0),
            from: EmailAddress::new("x", "y.com"),
            to: vec![].into(),
            subject: subject.into(),
            body: body.into(),
            attachments: vec![],
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::EPOCH,
            read: false,
            starred: false,
        }
    }

    /// The paper's own Mugged-In-City excerpt must classify as scam.
    #[test]
    fn mugged_in_city_is_scam() {
        let m = msg(
            "Terrible situation, please help",
            "My family and I came down here to West Midlands, UK for a short \
             vacation and we were mugged last night in an alley by a gang of \
             thugs, one of them had a knife poking my neck for almost two \
             minutes and everything we had on us including my cell phone, \
             credit cards were all stolen. I'm urgently in need of some money \
             to pay for my hotel bills and my flight ticket home, will payback \
             as soon as i get back home. Please wire the money by western union.",
        );
        assert_eq!(classify_mail(&m), MailClass::Scam);
        let f = extract_features(&m);
        assert!(f.transfer_mechanism && f.distress_story && f.plea && f.repayment_promise);
    }

    /// The paper's sick-relative excerpt.
    #[test]
    fn sick_relative_is_scam() {
        let m = msg(
            "Sorry to bother you with this",
            "I am presently in Spain with my ill Cousin. She's suffering from \
             a kidney disease and must undergo Kidney Transplant to save her \
             life. I urgently need an emergency loan, will repay you next week. \
             My phone was stolen so email is the only way to reach me. Please \
             send money via moneygram.",
        );
        assert_eq!(classify_mail(&m), MailClass::Scam);
        let f = extract_features(&m);
        assert!(f.anti_verification, "anti-verification language must register");
    }

    #[test]
    fn credential_reply_lure_is_phishing() {
        let m = msg(
            "Action required: account verification",
            "your mailbox exceeded its quota. reply to this message with your \
             username and password so our team can verify your account.",
        );
        assert_eq!(classify_mail(&m), MailClass::Phishing);
    }

    #[test]
    fn url_pretext_lure_is_phishing() {
        let m = msg(
            "Unusual activity on your account",
            "we detected unusual activity. verify your account within 24 hours \
             at http://secure-verify.example/login or it will be deactivated.",
        );
        assert_eq!(classify_mail(&m), MailClass::Phishing);
    }

    #[test]
    fn ordinary_mail_is_clean() {
        for (s, b) in [
            ("lunch?", "want to grab food at noon"),
            ("meeting notes", "attached are the Q3 planning notes"),
            ("wire transfer confirmation", "your wire transfer of $2,400 was completed"),
            ("vacation photos", "here are the beach pictures"),
        ] {
            assert_eq!(classify_mail(&msg(s, b)), MailClass::Clean, "{s}");
        }
    }

    #[test]
    fn single_principle_does_not_convict() {
        // A real traveller asking for help but with verifiable channels
        // and no money mechanics stays clean.
        let m = msg(
            "need a favor",
            "i'm stranded at the airport, can you check if the meeting moved? \
             call me anytime.",
        );
        assert_eq!(classify_mail(&m), MailClass::Clean);
    }

    #[test]
    fn spam_folder_decision_matches_class() {
        let mut c = MailClassifier::default();
        let scam = msg("help", "i was mugged, please wire me money via western union, urgent, will repay");
        assert!(c.should_spam_folder(&scam));
        let clean = msg("hi", "see you tomorrow");
        assert!(!c.should_spam_folder(&clean));
    }

    /// Subjects that end, and bodies that start, with half of a needle,
    /// so a pair can match only across the space that joins them:
    /// "Western" | "union", "wire" | "me", "please" | "help" and "my
    /// phone was" | "stolen".
    const SPLIT_SUBJECTS: [&str; 7] =
        ["", "please", "Western", "wire", "Lunch", "reset your password", "my phone was"];
    const SPLIT_BODIES: [&str; 8] = [
        "",
        "help",
        "union, urgent",
        "me money, urgent",
        "help: western union",
        "reply with it",
        "stolen",
        "see you at noon",
    ];

    proptest::proptest! {
        /// Through the memo, `should_spam_folder` answers as a fresh
        /// `classify` does, however pairs share allocations: texts
        /// repeat in any order, one subject allocation pairs with many
        /// bodies and one body with many subjects, equal texts sit in
        /// distinct allocations, and the thresholds move between calls.
        #[test]
        fn memoized_decision_matches_fresh_classification(
            picks in proptest::collection::vec(0u64..u64::MAX, 1..80)
        ) {
            let twice = |texts: &[&str]| -> Vec<Arc<str>> {
                texts.iter().flat_map(|t| [Arc::from(*t), Arc::from(*t)]).collect()
            };
            let (subjects, bodies) = (twice(&SPLIT_SUBJECTS), twice(&SPLIT_BODIES));
            let mut c = MailClassifier::default();
            for p in picks {
                if p % 16 == 0 {
                    c.scam_threshold = if c.scam_threshold == 0.5 { 0.3 } else { 0.5 };
                }
                let mut m = msg("", "");
                m.subject = Arc::clone(&subjects[((p >> 8) % subjects.len() as u64) as usize]);
                m.body = Arc::clone(&bodies[((p >> 32) % bodies.len() as u64) as usize]);
                let fresh = c.classify(&m) != MailClass::Clean;
                proptest::prop_assert_eq!(c.should_spam_folder(&m), fresh, "{:?}", m.subject);
            }
        }
    }

    #[test]
    fn banking_vocabulary_alone_is_not_phishing() {
        // The victim's own bank mail must not be eaten by the filter.
        let m = msg(
            "Monthly bank statement",
            "your bank statement is attached; log in at http://bank.example to view",
        );
        // Contains a URL but no pretext vocabulary.
        assert_eq!(classify_mail(&m), MailClass::Clean);
    }
}
