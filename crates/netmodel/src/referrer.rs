//! HTTP-referrer model for phishing-page traffic.
//!
//! §4.2 observed that **over 99% of requests to phishing pages carry a
//! blank referrer**, because victims are lured by email: desktop mail
//! clients send no referrer at all, and major webmail (including the
//! provider itself) strips it by opening links in a new tab. The
//! remaining <1% leak referrers from an assortment of webmail frontends
//! (Figure 3), with the home provider appearing only via a legacy HTML
//! frontend used by old phones.
//!
//! The model assigns a referrer to each phishing-page visit as a function
//! of *how the victim reached the page* — the causal structure the paper
//! infers — rather than sampling Figure 3 directly.

use mhw_simclock::SimRng;
use mhw_types::WebmailProvider;

/// How a victim arrived at a phishing page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferrerSource {
    /// Clicked a lure in a desktop mail client (no referrer, ever).
    DesktopMailClient,
    /// Clicked a lure in a modern webmail UI (referrer stripped).
    ModernWebmail,
    /// Clicked a lure in a webmail frontend that leaks referrers.
    LeakyWebmail(WebmailProvider),
    /// Crawler / clearinghouse traffic (leaks its own referrer).
    Clearinghouse,
    /// Direct navigation (pasted URL; no referrer).
    Direct,
}

/// The observed referrer on a single HTTP request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Referrer {
    Blank,
    From(WebmailProvider),
}

/// Distribution of arrival paths for email-lured phishing traffic.
#[derive(Debug, Clone)]
pub struct ReferrerModel {
    /// Probability that a lure click comes from a desktop client.
    pub p_desktop: f64,
    /// Probability that a webmail click goes through a leaky frontend
    /// (conditioned on being webmail).
    pub p_leaky_given_webmail: f64,
    /// Mix of leaky frontends, ordered as [`WebmailProvider::ALL`].
    pub leaky_mix: [f64; 10],
}

impl Default for ReferrerModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl ReferrerModel {
    /// Calibration reproducing Figure 3's ordering: generic webmail and
    /// the Yahoo-like provider dominate the leaked referrers; the home
    /// provider leaks only through its legacy frontend; clearinghouse,
    /// social-network and regional-search referrers trail.
    pub fn paper_calibrated() -> Self {
        ReferrerModel {
            p_desktop: 0.35,
            // Referrer leakage is rare: calibrated so total non-blank
            // stays under 1% of page views.
            p_leaky_given_webmail: 0.012,
            leaky_mix: [
                1150.0, // Webmail Generic
                760.0,  // Yahoo-like
                620.0,  // Other
                550.0,  // Home provider (legacy phones)
                330.0,  // Portal properties
                260.0,  // Microsoft-like
                210.0,  // AOL-like
                150.0,  // Phish clearinghouse
                120.0,  // Social network
                90.0,   // Regional search mail
            ],
        }
    }

    /// Draw the arrival path of one lure click.
    pub fn sample_source(&self, rng: &mut SimRng) -> ReferrerSource {
        if rng.chance(self.p_desktop) {
            return ReferrerSource::DesktopMailClient;
        }
        if rng.chance(self.p_leaky_given_webmail) {
            let idx = rng
                .weighted_index(&self.leaky_mix)
                .expect("leaky mix has positive weights");
            ReferrerSource::LeakyWebmail(WebmailProvider::ALL[idx])
        } else {
            ReferrerSource::ModernWebmail
        }
    }

    /// The referrer a given arrival path produces on the HTTP request.
    pub fn referrer_of(source: ReferrerSource) -> Referrer {
        match source {
            ReferrerSource::DesktopMailClient
            | ReferrerSource::ModernWebmail
            | ReferrerSource::Direct => Referrer::Blank,
            ReferrerSource::LeakyWebmail(p) => Referrer::From(p),
            ReferrerSource::Clearinghouse => {
                Referrer::From(WebmailProvider::PhishClearinghouse)
            }
        }
    }

    /// Convenience: sample the observable referrer of one lure click.
    pub fn sample_referrer(&self, rng: &mut SimRng) -> Referrer {
        Self::referrer_of(self.sample_source(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn email_lured_traffic_is_mostly_blank() {
        let model = ReferrerModel::paper_calibrated();
        let mut rng = SimRng::from_seed(9);
        let n = 100_000;
        let blank = (0..n)
            .filter(|_| model.sample_referrer(&mut rng) == Referrer::Blank)
            .count();
        let frac = blank as f64 / n as f64;
        assert!(frac > 0.99, "blank fraction {frac} must exceed 99% (§4.2)");
        assert!(frac < 0.9999, "some referrers must leak for Figure 3");
    }

    #[test]
    fn leaked_referrers_ordered_like_figure3() {
        let model = ReferrerModel::paper_calibrated();
        let mut rng = SimRng::from_seed(10);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2_000_000 {
            if let Referrer::From(p) = model.sample_referrer(&mut rng) {
                *counts.entry(p).or_insert(0usize) += 1;
            }
        }
        let generic = counts[&WebmailProvider::GenericWebmail];
        let yahoo = counts[&WebmailProvider::YahooLike];
        let regional = *counts.get(&WebmailProvider::RegionalSearchMail).unwrap_or(&0);
        assert!(generic > yahoo, "generic {generic} vs yahoo {yahoo}");
        assert!(yahoo > regional, "yahoo {yahoo} vs regional {regional}");
    }

    #[test]
    fn referrer_of_is_deterministic() {
        assert_eq!(
            ReferrerModel::referrer_of(ReferrerSource::DesktopMailClient),
            Referrer::Blank
        );
        assert_eq!(
            ReferrerModel::referrer_of(ReferrerSource::Direct),
            Referrer::Blank
        );
        assert_eq!(
            ReferrerModel::referrer_of(ReferrerSource::LeakyWebmail(
                WebmailProvider::YahooLike
            )),
            Referrer::From(WebmailProvider::YahooLike)
        );
        assert_eq!(
            ReferrerModel::referrer_of(ReferrerSource::Clearinghouse),
            Referrer::From(WebmailProvider::PhishClearinghouse)
        );
    }
}
