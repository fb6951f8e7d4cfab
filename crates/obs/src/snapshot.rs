//! Rendered metric values and their deterministic merge.
//!
//! A [`MetricsSnapshot`] is the wire form of a [`Registry`]: plain
//! sorted vectors of named values, serializable through the vendored
//! serde path. Snapshots from different shards (or different subsystem
//! registries within one shard) merge by name — counters, gauges and
//! histogram buckets all sum — so the run-level snapshot is independent
//! of both worker scheduling and merge order.
//!
//! [`Registry`]: crate::Registry

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One counter's rendered value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name (dot-namespaced).
    pub name: String,
    /// Monotonic count.
    pub value: u64,
}

/// One gauge's rendered value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name (dot-namespaced).
    pub name: String,
    /// Last-set (or high-water-mark) value; per-shard gauges sum on
    /// merge into a run-wide total.
    pub value: u64,
}

/// One histogram's rendered buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name (dot-namespaced).
    pub name: String,
    /// Ascending inclusive upper bounds, one per non-overflow bucket.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the final count is the overflow
    /// bucket (observations above the last bound).
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all observed values (for mean computation).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, if anything was observed.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the bucket holding the target rank.
    ///
    /// Observations that landed in the overflow bucket are only known
    /// to exceed the last bound, so a quantile that falls there
    /// reports that bound (a lower bound on the true value). Returns
    /// `None` when nothing was observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: q=0 → first, q=1 → last.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let prev_cum = cum;
            cum += count;
            if cum < rank {
                continue;
            }
            if i >= self.bounds.len() {
                // Overflow bucket: the last finite bound is all we know.
                return Some(*self.bounds.last()? as f64);
            }
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] as f64 };
            let upper = self.bounds[i] as f64;
            let frac = (rank - prev_cum) as f64 / count as f64;
            return Some(lower + frac * (upper - lower));
        }
        None
    }
}

/// A complete, name-sorted set of rendered metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge any number of snapshots into one: counters, gauges and
    /// histogram buckets sum by name. Histograms sharing a name must
    /// share bucket bounds (they come from the same static declaration).
    ///
    /// The result is sorted by name, so it does not depend on the order
    /// the inputs are supplied in — the property the engine's
    /// byte-identical report contract rests on.
    pub fn merge_all(parts: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for part in parts {
            for c in part.counters {
                *counters.entry(c.name).or_insert(0) += c.value;
            }
            for g in part.gauges {
                *gauges.entry(g.name).or_insert(0) += g.value;
            }
            for h in part.histograms {
                match histograms.entry(h.name.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(h);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let acc = e.get_mut();
                        assert_eq!(
                            acc.bounds, h.bounds,
                            "histogram {} merged across different bucket bounds",
                            h.name
                        );
                        for (a, b) in acc.counts.iter_mut().zip(&h.counts) {
                            *a += b;
                        }
                        acc.total += h.total;
                        acc.sum += h.sum;
                    }
                }
            }
        }
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterSnapshot { name, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(name, value)| GaugeSnapshot { name, value })
                .collect(),
            histograms: histograms.into_values().collect(),
        }
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].value)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricId, Registry};

    fn reg(counter_val: u64) -> MetricsSnapshot {
        let r = Registry::new()
            .with_counter(MetricId("a.count"))
            .with_histogram(MetricId("a.hist"), &[10, 100]);
        r.add(MetricId("a.count"), counter_val);
        r.observe(MetricId("a.hist"), 5);
        r.observe(MetricId("a.hist"), 50 + counter_val);
        r.snapshot()
    }

    #[test]
    fn merge_sums_by_name() {
        let merged = MetricsSnapshot::merge_all([reg(1), reg(2), reg(3)]);
        assert_eq!(merged.counter("a.count"), Some(6));
        let h = merged.histogram("a.hist").unwrap();
        assert_eq!(h.total, 6);
        assert_eq!(h.counts, vec![3, 3, 0]);
    }

    #[test]
    fn merge_is_order_independent() {
        let ab = MetricsSnapshot::merge_all([reg(1), reg(9)]);
        let ba = MetricsSnapshot::merge_all([reg(9), reg(1)]);
        assert_eq!(ab, ba);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap(),
            "merged snapshots must serialize to identical bytes"
        );
    }

    #[test]
    fn merge_of_disjoint_names_unions() {
        let a = Registry::new().with_counter(MetricId("x.one")).snapshot();
        let b = Registry::new().with_counter(MetricId("y.two")).snapshot();
        let merged = MetricsSnapshot::merge_all([a, b]);
        assert_eq!(merged.counters.len(), 2);
        assert_eq!(merged.counter("x.one"), Some(0));
        assert_eq!(merged.counter("y.two"), Some(0));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = MetricsSnapshot::merge_all([reg(4)]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = HistogramSnapshot {
            name: "h".into(),
            bounds: vec![100, 200, 400],
            // 10 obs ≤100, 10 in (100,200], none in (200,400], 0 overflow.
            counts: vec![10, 10, 0, 0],
            total: 20,
            sum: 3000,
        };
        assert_eq!(h.quantile(0.0), Some(10.0)); // rank 1 of 10 in [0,100]
        assert_eq!(h.quantile(0.5), Some(100.0)); // rank 10: top of bucket 0
        assert_eq!(h.quantile(0.75), Some(150.0)); // rank 15: mid bucket 1
        assert_eq!(h.quantile(1.0), Some(200.0));
        // Out-of-range q clamps.
        assert_eq!(h.quantile(7.0), Some(200.0));
    }

    #[test]
    fn quantile_overflow_reports_last_bound() {
        let h = HistogramSnapshot {
            name: "h".into(),
            bounds: vec![100],
            counts: vec![1, 9], // 9 observations above the last bound
            total: 10,
            sum: 10_000,
        };
        assert_eq!(h.quantile(0.99), Some(100.0));
        let empty = HistogramSnapshot {
            name: "e".into(),
            bounds: vec![100],
            counts: vec![0, 0],
            total: 0,
            sum: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn histogram_mean() {
        let h = HistogramSnapshot {
            name: "h".into(),
            bounds: vec![10],
            counts: vec![2, 0],
            total: 2,
            sum: 8,
        };
        assert_eq!(h.mean(), Some(4.0));
        let empty = HistogramSnapshot { total: 0, sum: 0, ..h };
        assert_eq!(empty.mean(), None);
    }
}
