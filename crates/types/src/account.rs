//! Account categories and webmail providers.
//!
//! Table 2 of the paper breaks phishing emails and pages down by the
//! *type* of account credential they target; Figure 3 breaks non-blank
//! HTTP referrers down by webmail provider. Both enumerations live here
//! so the phishing substrate (which generates lures) and the analysis
//! crate (which tabulates them) agree on the categories.

use std::fmt;

/// The type of credential a phishing lure asks for — the row dimension of
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccountCategory {
    /// Webmail account credentials (the top target: 35% of emails).
    Mail,
    /// Online banking credentials (21% of emails).
    Bank,
    /// App store credentials (16%).
    AppStore,
    /// Social network credentials (14%).
    SocialNetwork,
    /// Everything else — gaming, e-commerce, ISP portals (14%).
    Other,
}

impl AccountCategory {
    /// Every category, in Figure 5 presentation order.
    pub const ALL: [AccountCategory; 5] = [
        AccountCategory::Mail,
        AccountCategory::Bank,
        AccountCategory::AppStore,
        AccountCategory::SocialNetwork,
        AccountCategory::Other,
    ];

    /// Label as printed in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            AccountCategory::Mail => "Mail",
            AccountCategory::Bank => "Bank",
            AccountCategory::AppStore => "App Store",
            AccountCategory::SocialNetwork => "Social network",
            AccountCategory::Other => "Other",
        }
    }
}

impl fmt::Display for AccountCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Webmail providers observed in the HTTP-referrer breakdown (Figure 3).
///
/// Names are genericized: the simulated ecosystem's own provider plays the
/// role Gmail plays in the paper; the others are independent webmail and
/// web properties whose referrers appear on phishing-page traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WebmailProvider {
    /// Aggregate of small webmail systems ("Webmail Generic" in Fig 3).
    GenericWebmail,
    /// A large independent webmail provider (Yahoo's role).
    YahooLike,
    /// Unclassified other referrers.
    OtherReferrer,
    /// The simulated provider itself (Gmail's role). Its referrers only
    /// leak via a legacy HTML frontend used by old phones (§4.2).
    HomeProvider,
    /// A search/portal company's webmail (Google-other properties).
    PortalProperties,
    /// A large software company's webmail (Microsoft's role).
    MicrosoftLike,
    /// A legacy dial-up era provider (AOL's role).
    AolLike,
    /// An anti-phishing clearinghouse crawling reported pages (PhishTank's role).
    PhishClearinghouse,
    /// A social network (Facebook's role).
    SocialNetworkSite,
    /// A regional search engine's webmail (Yandex's role).
    RegionalSearchMail,
}

impl WebmailProvider {
    /// In the order Figure 3 lists them (top to bottom).
    pub const ALL: [WebmailProvider; 10] = [
        WebmailProvider::GenericWebmail,
        WebmailProvider::YahooLike,
        WebmailProvider::OtherReferrer,
        WebmailProvider::HomeProvider,
        WebmailProvider::PortalProperties,
        WebmailProvider::MicrosoftLike,
        WebmailProvider::AolLike,
        WebmailProvider::PhishClearinghouse,
        WebmailProvider::SocialNetworkSite,
        WebmailProvider::RegionalSearchMail,
    ];

    /// Human-readable label used in figure renderings.
    pub fn label(self) -> &'static str {
        match self {
            WebmailProvider::GenericWebmail => "Webmail Generic",
            WebmailProvider::YahooLike => "Yahoo-like",
            WebmailProvider::OtherReferrer => "Other",
            WebmailProvider::HomeProvider => "Home provider (legacy frontend)",
            WebmailProvider::PortalProperties => "Portal properties",
            WebmailProvider::MicrosoftLike => "Microsoft-like",
            WebmailProvider::AolLike => "AOL-like",
            WebmailProvider::PhishClearinghouse => "Phish clearinghouse",
            WebmailProvider::SocialNetworkSite => "Social network",
            WebmailProvider::RegionalSearchMail => "Regional search mail",
        }
    }
}

impl fmt::Display for WebmailProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn five_table2_categories() {
        assert_eq!(AccountCategory::ALL.len(), 5);
        let set: HashSet<_> = AccountCategory::ALL.iter().collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(AccountCategory::Mail.label(), "Mail");
        assert_eq!(AccountCategory::AppStore.label(), "App Store");
        assert_eq!(AccountCategory::SocialNetwork.to_string(), "Social network");
    }

    #[test]
    fn ten_referrer_sources() {
        // Figure 3 lists ten referrer sources.
        assert_eq!(WebmailProvider::ALL.len(), 10);
        let set: HashSet<_> = WebmailProvider::ALL.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn categories_are_ordered_for_stable_tabulation() {
        let mut v = [AccountCategory::Other, AccountCategory::Mail];
        v.sort();
        assert_eq!(v[0], AccountCategory::Mail);
    }
}
