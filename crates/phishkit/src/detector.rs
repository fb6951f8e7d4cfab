//! Anti-phishing detection and takedown.
//!
//! The SafeBrowsing-like pipeline detects phishing pages "while indexing
//! the web" (§3: 16,000–25,000 pages per week across the Internet during
//! 2012–13) and takes down provider-hosted forms (Dataset 3). Detection
//! latency determines how long a page collects credentials — which
//! bounds both Figure 6's series length and the volume of stolen
//! credentials entering crew dropboxes.

use crate::page::{PageQuality, PhishingPage};
use mhw_obs::{buckets, MetricId, Registry};
use mhw_simclock::SimRng;
use mhw_types::{PageId, SimDuration, SimTime, HOUR};

/// Phishing pages put up (one per page the pipeline processed).
pub const M_PAGES_UP: MetricId = MetricId("phishkit.pages_up");
/// Pages stamped with a takedown time.
pub const M_PAGES_TAKEN_DOWN: MetricId = MetricId("phishkit.pages_taken_down");
/// Page lifetime (creation → takedown), simulated seconds.
pub const M_PAGE_LIFETIME_SECS: MetricId = MetricId("phishkit.page_lifetime_secs");

/// Outcome of the pipeline for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakedownRecord {
    pub page: PageId,
    pub detected_at: SimTime,
    pub taken_down_at: SimTime,
}

/// Detection/takedown latency model.
#[derive(Debug, Clone)]
pub struct DetectionPipeline {
    /// Median detection delay for a typical page, in hours.
    pub median_detection_hours: f64,
    /// Log-normal sigma of the detection delay.
    pub sigma: f64,
    /// Takedown lag after detection, in hours (propagation/processing).
    pub takedown_lag_hours: f64,
    metrics: Registry,
}

impl Default for DetectionPipeline {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl DetectionPipeline {
    /// Calibrated so typical pages live ~1–2 days (Figure 6's standard
    /// series run out within tens of hours) while well-executed pages
    /// survive somewhat longer (the outlier ran for several days).
    pub fn paper_calibrated() -> Self {
        DetectionPipeline {
            median_detection_hours: 26.0,
            sigma: 0.7,
            takedown_lag_hours: 2.0,
            metrics: Registry::new()
                .with_counter(M_PAGES_UP)
                .with_counter(M_PAGES_TAKEN_DOWN)
                .with_histogram(M_PAGE_LIFETIME_SECS, buckets::LATENCY_SECS),
        }
    }

    /// The pipeline's metrics registry (page volume and lifetimes).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Draw the detection time for a page created at `created_at`.
    /// Better-executed pages evade crawler heuristics a little longer.
    pub fn detection_time(
        &self,
        created_at: SimTime,
        quality: PageQuality,
        rng: &mut SimRng,
    ) -> SimTime {
        let quality_factor = match quality {
            PageQuality::Poor => 0.7,
            PageQuality::Mediocre => 0.9,
            PageQuality::Good => 1.1,
            PageQuality::Excellent => 1.5,
        };
        let mu = (self.median_detection_hours * quality_factor).ln();
        let hours = rng.lognormal(mu, self.sigma);
        created_at.plus(SimDuration::from_secs((hours * HOUR as f64) as u64))
    }

    /// Process a page: stamp its takedown time and return the record.
    pub fn process(&self, page: &mut PhishingPage, rng: &mut SimRng) -> TakedownRecord {
        let detected_at = self.detection_time(page.created_at, page.quality, rng);
        let taken_down_at =
            detected_at.plus(SimDuration::from_secs((self.takedown_lag_hours * HOUR as f64) as u64));
        page.taken_down_at = Some(taken_down_at);
        self.metrics.inc(M_PAGES_UP);
        self.metrics.inc(M_PAGES_TAKEN_DOWN);
        self.metrics
            .observe(M_PAGE_LIFETIME_SECS, taken_down_at.since(page.created_at).as_secs());
        TakedownRecord { page: page.id, detected_at, taken_down_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::{AccountCategory, CampaignId, DAY};

    #[test]
    fn detection_median_is_calibrated() {
        let pipe = DetectionPipeline::paper_calibrated();
        let mut rng = SimRng::from_seed(21);
        let n = 10_001;
        let mut delays: Vec<u64> = (0..n)
            .map(|_| {
                pipe.detection_time(SimTime::EPOCH, PageQuality::Good, &mut rng)
                    .as_secs()
            })
            .collect();
        delays.sort();
        let median_hours = delays[n / 2] as f64 / HOUR as f64;
        // Good pages: 26 * 1.1 ≈ 28.6 h median.
        assert!((median_hours - 28.6).abs() < 2.0, "median {median_hours}");
    }

    #[test]
    fn better_pages_live_longer_on_average() {
        let pipe = DetectionPipeline::paper_calibrated();
        let mean = |q: PageQuality, seed: u64| {
            let mut rng = SimRng::from_seed(seed);
            (0..4000)
                .map(|_| pipe.detection_time(SimTime::EPOCH, q, &mut rng).as_secs() as f64)
                .sum::<f64>()
                / 4000.0
        };
        assert!(mean(PageQuality::Excellent, 1) > mean(PageQuality::Poor, 1));
    }

    #[test]
    fn process_stamps_takedown_after_detection() {
        let pipe = DetectionPipeline::paper_calibrated();
        let mut rng = SimRng::from_seed(23);
        let mut page = PhishingPage::new(
            PageId(7),
            CampaignId(0),
            AccountCategory::Bank,
            PageQuality::Mediocre,
            SimTime::from_secs(DAY),
        );
        let rec = pipe.process(&mut page, &mut rng);
        assert_eq!(rec.page, PageId(7));
        assert!(rec.detected_at > page.created_at);
        assert_eq!(
            rec.taken_down_at.since(rec.detected_at).as_secs(),
            2 * HOUR
        );
        assert_eq!(page.taken_down_at, Some(rec.taken_down_at));
        // Metrics observed the page and its lifetime.
        assert_eq!(pipe.metrics().counter_value(M_PAGES_UP), Some(1));
        let snap = pipe.metrics().snapshot();
        let lifetime = snap.histogram(M_PAGE_LIFETIME_SECS.name()).unwrap();
        assert_eq!(lifetime.total, 1);
        assert_eq!(lifetime.sum, rec.taken_down_at.since(page.created_at).as_secs());
    }
}
