//! Statistical primitives.


/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are rejected loudly — a NaN in a latency
    /// dataset is always an upstream bug).
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|v| *v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1), nearest-rank.
    ///
    /// # Panics
    /// Panics on an empty ECDF or q outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&q), "q out of range: {q}");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Sample mean (0.0 on an empty ECDF).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// A fixed-width histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Lower bound of the first bin.
    pub lo: f64,
    /// Width of every bin.
    pub bin_width: f64,
    /// Per-bin sample counts.
    pub counts: Vec<u64>,
    /// Samples above the last bin.
    pub overflow: u64,
}

impl Histogram {
    /// Build with `bins` bins of `bin_width` starting at `lo`.
    ///
    /// # Panics
    /// Panics on zero bins or non-positive width.
    pub fn new(lo: f64, bin_width: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(bin_width > 0.0, "bin width must be positive");
        Histogram { lo, bin_width, counts: vec![0; bins], overflow: 0 }
    }

    /// Count one sample into its bin.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            // Clamp into the first bin (latency data has no negatives;
            // clamping keeps the histogram total equal to sample count).
            self.counts[0] += 1;
            return;
        }
        let idx = ((x - self.lo) / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples counted, including overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }
}

/// An hourly event-count series (Figure 6's x-axis).
#[derive(Debug, Clone, Default)]
pub struct HourlySeries {
    /// Events per simulated hour, index 0 = the first hour.
    pub counts: Vec<u32>,
}

impl HourlySeries {
    /// Wrap raw per-hour counts.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        HourlySeries { counts }
    }

    /// Total events across all hours.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| *c as u64).sum()
    }

    /// Average of several same-length-or-shorter series, per hour —
    /// the "average number of submitted credentials over time" panel.
    pub fn average(series: &[HourlySeries]) -> Vec<f64> {
        let max_len = series.iter().map(|s| s.counts.len()).max().unwrap_or(0);
        let mut out = vec![0.0; max_len];
        if series.is_empty() {
            return out;
        }
        for (h, slot) in out.iter_mut().enumerate() {
            let mut sum = 0.0;
            for s in series {
                sum += *s.counts.get(h).unwrap_or(&0) as f64;
            }
            *slot = sum / series.len() as f64;
        }
        out
    }

    /// Whether the series is broadly decaying: the mean of the first
    /// quarter exceeds `factor` × the mean of the last quarter. Used by
    /// tests asserting the Figure 6 standard pattern.
    pub fn is_decaying(&self, factor: f64) -> bool {
        let n = self.counts.len();
        if n < 4 {
            return false;
        }
        let q = n / 4;
        let head: f64 = self.counts[..q].iter().map(|c| *c as f64).sum::<f64>() / q as f64;
        let tail: f64 =
            self.counts[n - q..].iter().map(|c| *c as f64).sum::<f64>() / q as f64;
        head > factor * tail.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(4.0));
        assert_eq!(e.fraction_at_or_below(2.0), 0.5);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(10.0), 1.0);
        assert_eq!(e.mean(), 2.5);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.2), 20.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.0), 1.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 3.0, 3.0, 7.0]);
        let mut prev = 0.0;
        for x in 0..12 {
            let f = e.fraction_at_or_below(x as f64);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for x in [0.1, 0.9, 1.5, 4.9, 7.0, -1.0] {
            h.add(x);
        }
        assert_eq!(h.counts, vec![3, 1, 0, 0, 1]); // -1 clamps into bin 0
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn hourly_average() {
        let a = HourlySeries::from_counts(vec![4, 2, 0]);
        let b = HourlySeries::from_counts(vec![2, 0]);
        let avg = HourlySeries::average(&[a, b]);
        assert_eq!(avg, vec![3.0, 1.0, 0.0]);
        assert!(HourlySeries::average(&[]).is_empty());
    }

    #[test]
    fn decay_detection() {
        let decaying = HourlySeries::from_counts(vec![100, 80, 60, 40, 20, 10, 5, 2]);
        assert!(decaying.is_decaying(3.0));
        let flat = HourlySeries::from_counts(vec![50, 48, 52, 49, 51, 50, 49, 50]);
        assert!(!flat.is_decaying(3.0));
        let short = HourlySeries::from_counts(vec![5, 1]);
        assert!(!short.is_decaying(1.0));
    }
}
