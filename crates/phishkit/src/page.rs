//! Phishing pages and their HTTP logs.
//!
//! A page is a credential-harvesting form (the paper's Dataset 3 pages
//! were Google Forms). Its HTTP log of GETs and POSTs is the raw data
//! behind Figures 3–6: referrer breakdown, phished-address TLDs,
//! per-page conversion, and the arrival time series.

use mhw_netmodel::referrer::Referrer;
use mhw_simclock::SimRng;
use mhw_types::{AccountCategory, CampaignId, EmailAddress, PageId, SimTime};

/// Execution quality of a phishing page, the driver of per-page
/// conversion (Figure 5). §4.2: pages "with low submission rates were
/// very poorly executed and contained only a form asking for a username
/// and password"; the best page converted at 45%, the worst at 3%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageQuality {
    /// Bare username/password form, no branding.
    Poor,
    /// Copies some branding, visible flaws.
    Mediocre,
    /// Convincing clone of the target's sign-in page.
    Good,
    /// Pixel-faithful clone with plausible URL and flow.
    Excellent,
}

impl PageQuality {
    pub const ALL: [PageQuality; 4] = [
        PageQuality::Poor,
        PageQuality::Mediocre,
        PageQuality::Good,
        PageQuality::Excellent,
    ];

    /// Mean conversion (POST per GET) for this quality tier. The
    /// tier mix in [`PageQuality::sample`] is calibrated so the overall
    /// mean lands at the paper's 13.7%.
    pub fn base_conversion(self) -> f64 {
        match self {
            PageQuality::Poor => 0.04,
            PageQuality::Mediocre => 0.10,
            PageQuality::Good => 0.18,
            PageQuality::Excellent => 0.38,
        }
    }

    /// Draw a quality from the calibrated ecosystem mix.
    pub fn sample(rng: &mut SimRng) -> PageQuality {
        // Mix: 22% poor, 38% mediocre, 30% good, 10% excellent
        // → mean conversion ≈ .22*.04 + .38*.10 + .30*.18 + .10*.38 = 0.1388.
        let i = rng
            .weighted_index(&[0.22, 0.38, 0.30, 0.10])
            .expect("static weights");
        PageQuality::ALL[i]
    }
}

/// HTTP request method on a phishing form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpMethod {
    /// Page view.
    Get,
    /// Form submission.
    Post,
}

/// One request in a page's HTTP log.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    pub at: SimTime,
    pub method: HttpMethod,
    pub referrer: Referrer,
    /// Address the victim typed into the form (POSTs only).
    pub submitted_address: Option<EmailAddress>,
}

/// A phishing page.
#[derive(Debug, Clone)]
pub struct PhishingPage {
    pub id: PageId,
    pub campaign: CampaignId,
    pub category: AccountCategory,
    pub quality: PageQuality,
    pub created_at: SimTime,
    /// Set when the detection pipeline takes the page down.
    pub taken_down_at: Option<SimTime>,
    /// HTTP log, time-ordered.
    pub http_log: Vec<HttpRequest>,
}

impl PhishingPage {
    pub fn new(
        id: PageId,
        campaign: CampaignId,
        category: AccountCategory,
        quality: PageQuality,
        created_at: SimTime,
    ) -> Self {
        PhishingPage {
            id,
            campaign,
            category,
            quality,
            created_at,
            taken_down_at: None,
            http_log: Vec::new(),
        }
    }

    /// Whether the page still serves at `t`.
    pub fn is_live(&self, t: SimTime) -> bool {
        t >= self.created_at && self.taken_down_at.map(|d| t < d).unwrap_or(true)
    }

    /// Record a page view.
    pub fn record_get(&mut self, at: SimTime, referrer: Referrer) {
        debug_assert!(self.is_live(at), "requests must hit a live page");
        self.http_log.push(HttpRequest {
            at,
            method: HttpMethod::Get,
            referrer,
            submitted_address: None,
        });
    }

    /// Record a form submission.
    pub fn record_post(&mut self, at: SimTime, referrer: Referrer, address: EmailAddress) {
        debug_assert!(self.is_live(at), "requests must hit a live page");
        self.http_log.push(HttpRequest {
            at,
            method: HttpMethod::Post,
            referrer,
            submitted_address: Some(address),
        });
    }

    /// First request time (the paper computes arrival series "from the
    /// time when the page was first visited").
    pub fn first_visit(&self) -> Option<SimTime> {
        self.http_log.first().map(|r| r.at)
    }

    pub fn views(&self) -> usize {
        self.http_log.iter().filter(|r| r.method == HttpMethod::Get).count()
    }

    pub fn submissions(&self) -> usize {
        self.http_log.iter().filter(|r| r.method == HttpMethod::Post).count()
    }

    /// POST / GET conversion, the Figure 5 metric. `None` with no views.
    pub fn success_rate(&self) -> Option<f64> {
        let v = self.views();
        if v == 0 {
            None
        } else {
            Some(self.submissions() as f64 / v as f64)
        }
    }

    /// Hourly submission counts from first visit to takedown (or the
    /// last request), the Figure 6 series.
    pub fn hourly_submissions(&self) -> Vec<u32> {
        let Some(start) = self.first_visit() else {
            return Vec::new();
        };
        let end = self
            .taken_down_at
            .or_else(|| self.http_log.last().map(|r| r.at))
            .unwrap_or(start);
        let hours = (end.since(start).as_secs() / 3600 + 1) as usize;
        let mut series = vec![0u32; hours];
        for r in &self.http_log {
            if r.method == HttpMethod::Post {
                let h = (r.at.since(start).as_secs() / 3600) as usize;
                if h < series.len() {
                    series[h] += 1;
                }
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::HOUR;

    fn page() -> PhishingPage {
        PhishingPage::new(
            PageId(0),
            CampaignId(0),
            AccountCategory::Mail,
            PageQuality::Good,
            SimTime::from_secs(0),
        )
    }

    fn addr(i: u32) -> EmailAddress {
        EmailAddress::new(format!("v{i}"), "stateuniv.edu")
    }

    #[test]
    fn quality_tiers_average_to_paper_mean() {
        let mut rng = SimRng::from_seed(3);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| PageQuality::sample(&mut rng).base_conversion())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.137).abs() < 0.01, "mean conversion {mean}");
    }

    #[test]
    fn quality_range_covers_paper_extremes() {
        assert!(PageQuality::Poor.base_conversion() <= 0.05);
        assert!(PageQuality::Excellent.base_conversion() >= 0.30);
    }

    #[test]
    fn success_rate_counts_posts_over_gets() {
        let mut p = page();
        for i in 0..10 {
            p.record_get(SimTime::from_secs(i * 60), Referrer::Blank);
        }
        p.record_post(SimTime::from_secs(601), Referrer::Blank, addr(0));
        p.record_post(SimTime::from_secs(602), Referrer::Blank, addr(1));
        assert_eq!(p.views(), 10);
        assert_eq!(p.submissions(), 2);
        assert!((p.success_rate().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_page_has_no_rate() {
        assert_eq!(page().success_rate(), None);
        assert_eq!(page().first_visit(), None);
        assert!(page().hourly_submissions().is_empty());
    }

    #[test]
    fn liveness_window() {
        let mut p = page();
        assert!(p.is_live(SimTime::from_secs(100)));
        p.taken_down_at = Some(SimTime::from_secs(1000));
        assert!(p.is_live(SimTime::from_secs(999)));
        assert!(!p.is_live(SimTime::from_secs(1000)));
    }

    #[test]
    fn hourly_series_buckets_correctly() {
        let mut p = page();
        p.record_get(SimTime::from_secs(10), Referrer::Blank); // first visit t=10
        p.record_post(SimTime::from_secs(20), Referrer::Blank, addr(0)); // hour 0
        p.record_post(SimTime::from_secs(10 + HOUR + 5), Referrer::Blank, addr(1)); // hour 1
        p.record_post(SimTime::from_secs(10 + 3 * HOUR), Referrer::Blank, addr(2)); // hour 3
        p.taken_down_at = Some(SimTime::from_secs(10 + 4 * HOUR));
        let series = p.hourly_submissions();
        assert_eq!(series, vec![1, 1, 0, 1, 0]);
    }

    #[test]
    fn submitted_addresses_recorded() {
        let mut p = page();
        p.record_get(SimTime::from_secs(1), Referrer::Blank);
        p.record_post(SimTime::from_secs(2), Referrer::Blank, addr(7));
        let posts: Vec<_> = p
            .http_log
            .iter()
            .filter(|r| r.method == HttpMethod::Post)
            .collect();
        assert_eq!(posts.len(), 1);
        assert_eq!(posts[0].submitted_address.as_ref().unwrap().tld(), "edu");
    }
}
