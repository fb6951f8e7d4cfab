//! Order statistics over raw samples: medians, quartiles, and the tail
//! percentile rule every latency in the benchmark is reported with.

/// The value at nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the average of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match the acceptance check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    // Python's exclusive method: position i·(n+1)/4, clamped to the
    // sample and interpolated (or extrapolated) between neighbours.
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A latency distribution summarized by the tail rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Median sample.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// Which percentile `tail` is (100 means the maximum).
    pub percentile: u32,
    /// Samples the summary was computed from.
    pub samples: usize,
}

/// The tail rule: p99 with at least 1000 samples; otherwise the highest
/// whole percentile that still has at least ten samples beyond it. When
/// even p50 has fewer than ten beyond it (under 20 samples), the tail
/// is the maximum, reported as percentile 100.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    let beyond = |p: u32| n - ((p as f64 / 100.0) * n as f64).ceil() as usize;
    let pct = (50..=99).rev().find(|&p| beyond(p) >= 10).unwrap_or(100);
    Tail {
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, pct as f64),
        percentile: pct,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, 99);
        assert_eq!(t.tail, 990.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(tail(&ramp(50_000)).percentile, 99);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it_below_a_thousand() {
        for n in [20, 27, 54, 90, 500, 999] {
            let v = ramp(n);
            let t = tail(&v);
            assert!(
                t.percentile < 99 && t.percentile >= 50,
                "n={n}: p{}",
                t.percentile
            );
            let beyond = v.iter().filter(|x| **x > t.tail).count();
            assert!(
                beyond >= 10,
                "n={n}: only {beyond} beyond p{}",
                t.percentile
            );
            // One percentile higher would leave fewer than ten beyond.
            let next = percentile(&v, (t.percentile + 1) as f64);
            assert!(v.iter().filter(|x| **x > next).count() < 10, "n={n}");
        }
        assert_eq!(tail(&ramp(27)).percentile, 62);
        assert_eq!(tail(&ramp(54)).percentile, 81);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_on_tiny_samples() {
        let t = tail(&[3.0, 1.0, 2.0, 9.0]);
        assert_eq!((t.percentile, t.tail, t.samples), (100, 9.0, 4));
        assert_eq!(t.p50, 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }
}
