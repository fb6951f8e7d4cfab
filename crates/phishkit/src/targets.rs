//! Phishing targets and lure emails.
//!
//! Table 2 gives the category mix of what phishers ask for — email
//! credentials first (35% of emails, 27% of pages), banking second
//! (21% / 25%), then app stores, social networks and a long tail.
//! §4.1: of 100 curated phishing emails, 62 carried a URL to a phishing
//! page and 38 asked the victim to reply with credentials.

use mhw_simclock::SimRng;
use mhw_types::AccountCategory;

/// A category mix over [`AccountCategory`], used to draw what a lure or
/// page phishes for.
#[derive(Debug, Clone)]
pub struct TargetMix {
    /// Weights aligned with `AccountCategory::ALL`.
    weights: [f64; 5],
}

impl TargetMix {
    /// The email-lure mix of Table 2 (Mail 35, Bank 21, App Store 16,
    /// Social 14, Other 14).
    pub fn email_lures() -> Self {
        TargetMix { weights: [35.0, 21.0, 16.0, 14.0, 14.0] }
    }

    /// The phishing-page mix of Table 2 (Mail 27, Bank 25, App Store 17,
    /// Social 15, Other 15).
    pub fn pages() -> Self {
        TargetMix { weights: [27.0, 25.0, 17.0, 15.0, 15.0] }
    }

    /// A custom mix.
    ///
    /// # Panics
    /// Panics if all weights are zero or any is negative.
    pub fn custom(weights: [f64; 5]) -> Self {
        assert!(weights.iter().all(|w| *w >= 0.0), "weights must be non-negative");
        assert!(weights.iter().sum::<f64>() > 0.0, "weights must not all be zero");
        TargetMix { weights }
    }

    /// Draw a category.
    pub fn sample(&self, rng: &mut SimRng) -> AccountCategory {
        let i = rng.weighted_index(&self.weights).expect("mix is non-degenerate");
        AccountCategory::ALL[i]
    }

    /// Expected fraction of a category.
    pub fn fraction(&self, cat: AccountCategory) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let i = AccountCategory::ALL.iter().position(|c| *c == cat).unwrap();
        self.weights[i] / total
    }
}

/// How a lure email tries to capture credentials (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LureStructure {
    /// Contains a URL pointing at a phishing page.
    LinkToPage,
    /// No URL; asks the victim to reply with their credentials.
    ReplyWithCredentials,
}

/// Subject/body template bank per category. The texts instantiate the
/// classic false pretexts (§4: "impending account deactivation").
pub fn lure_text(category: AccountCategory, structure: LureStructure) -> (String, String) {
    let (service, pretext) = match category {
        AccountCategory::Mail => ("HomeMail", "your mailbox has exceeded its storage quota"),
        AccountCategory::Bank => ("First Example Bank", "unusual activity was detected on your account"),
        AccountCategory::AppStore => ("AppMarket", "your payment method could not be verified"),
        AccountCategory::SocialNetwork => ("FriendSphere", "your profile was reported and will be suspended"),
        AccountCategory::Other => ("WebPortal", "your subscription is about to be deactivated"),
    };
    let subject = format!("Action required: {service} account verification");
    let body = match structure {
        LureStructure::LinkToPage => format!(
            "Dear customer, {pretext}. To avoid interruption, verify your \
             account within 24 hours at our secure portal: \
             http://secure-{}-verify.example/login. Failure to comply will \
             result in permanent deactivation.",
            service.to_ascii_lowercase()
        ),
        LureStructure::ReplyWithCredentials => format!(
            "Dear customer, {pretext}. To avoid interruption, reply to this \
             message with your username and password so our technical team \
             can re-validate your account. Failure to comply will result in \
             permanent deactivation."
        ),
    };
    (subject, body)
}

/// Draw the structure with the §4.1 proportions (62% link / 38% reply).
pub fn sample_structure(rng: &mut SimRng) -> LureStructure {
    if rng.chance(0.62) {
        LureStructure::LinkToPage
    } else {
        LureStructure::ReplyWithCredentials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn email_mix_matches_table2() {
        let m = TargetMix::email_lures();
        assert!((m.fraction(AccountCategory::Mail) - 0.35).abs() < 1e-9);
        assert!((m.fraction(AccountCategory::Bank) - 0.21).abs() < 1e-9);
    }

    #[test]
    fn page_mix_matches_table2() {
        // Table 2's page column sums to 99 reviewed pages.
        let m = TargetMix::pages();
        assert!((m.fraction(AccountCategory::Mail) - 27.0 / 99.0).abs() < 1e-9);
        assert!((m.fraction(AccountCategory::Bank) - 25.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_converges_to_mix() {
        let m = TargetMix::email_lures();
        let mut rng = SimRng::from_seed(1);
        let n = 50_000;
        let mail = (0..n)
            .filter(|_| m.sample(&mut rng) == AccountCategory::Mail)
            .count();
        let frac = mail as f64 / n as f64;
        assert!((frac - 0.35).abs() < 0.01, "mail fraction {frac}");
    }

    #[test]
    fn structure_split_is_62_38() {
        let mut rng = SimRng::from_seed(2);
        let n = 50_000;
        let links = (0..n)
            .filter(|_| sample_structure(&mut rng) == LureStructure::LinkToPage)
            .count();
        let frac = links as f64 / n as f64;
        assert!((frac - 0.62).abs() < 0.01, "link fraction {frac}");
    }

    #[test]
    fn link_lures_contain_urls_and_reply_lures_do_not() {
        for cat in AccountCategory::ALL {
            let (_, with_url) = lure_text(cat, LureStructure::LinkToPage);
            assert!(with_url.contains("http://"), "{cat} link lure lacks URL");
            let (_, reply) = lure_text(cat, LureStructure::ReplyWithCredentials);
            assert!(!reply.contains("http://"), "{cat} reply lure has URL");
            assert!(reply.contains("password"), "{cat} reply lure must ask for creds");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn custom_mix_validates() {
        TargetMix::custom([1.0, -1.0, 0.0, 0.0, 0.0]);
    }
}
