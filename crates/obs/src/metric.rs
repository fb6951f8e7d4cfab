//! The lock-free metrics registry.
//!
//! A [`Registry`] owns a fixed set of instruments, declared once at
//! construction time (registration takes `&mut self`) and updated from
//! hot paths through `&self` with a single relaxed atomic operation —
//! no locks anywhere on the write path, so instrumented subsystems can
//! be shared freely across the engine's worker threads.
//!
//! Determinism is the design constraint that shapes everything here:
//!
//! * each logical shard owns its *own* registry (exactly like its own
//!   event-log segment), so values are a pure function of the events
//!   that shard processed, independent of worker scheduling;
//! * all measured quantities are simulated-time quantities (counts,
//!   sim-second latencies) — never wall clock;
//! * [`Registry::snapshot`] renders a [`MetricsSnapshot`] with metrics
//!   sorted by name, and snapshot merging is commutative, so the merged
//!   run-level snapshot is byte-identical at any worker count.
//!
//! Updates to a metric id that was never registered are silently
//! dropped. This keeps `Default`-constructed subsystems (tests,
//! fixtures) working without wiring, at the cost of typos being quiet —
//! which is why `tests/observability.rs` asserts the report's key
//! counters are nonzero.

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use mhw_types::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A static metric identifier, e.g. `MetricId("identity.login_attempts")`.
///
/// Ids are dot-namespaced by crate (`identity.`, `mailsys.`,
/// `phishkit.`, `adversary.`, `defense.`, `recovery.`, `engine.`) so a
/// merged run report reads like a map of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub &'static str);

impl MetricId {
    /// The metric name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

/// Standard histogram bucket boundaries.
pub mod buckets {
    /// Latency buckets in simulated seconds: 1 min, 5 min, 15 min,
    /// 30 min, 1 h, 2 h, 6 h, 12 h, 1 d, 2 d, 7 d (+ overflow).
    ///
    /// Chosen to resolve both tails the paper cares about: Figure 7's
    /// minutes-scale decoy pickups and Figure 9's hours-to-days
    /// recovery latencies.
    pub const LATENCY_SECS: &[u64] = &[
        60,
        300,
        900,
        1_800,
        3_600,
        7_200,
        21_600,
        43_200,
        86_400,
        172_800,
        604_800,
    ];

    /// Wall-clock scoring-latency buckets in **nanoseconds** (+
    /// overflow), for serve-mode per-login latency. Unlike
    /// [`LATENCY_SECS`] these measure real machine time, not simulated
    /// time: 50 ns resolves a warm in-memory assess, the 1–4 decade
    /// spread absorbs cache misses, allocator stalls and scheduler
    /// preemption, and the 10 ms top bound keeps even a pathological
    /// page fault out of the overflow bucket.
    pub const SERVE_LATENCY_NANOS: &[u64] = &[
        50,
        100,
        250,
        500,
        1_000,
        2_500,
        5_000,
        10_000,
        25_000,
        50_000,
        100_000,
        250_000,
        500_000,
        1_000_000,
        2_500_000,
        5_000_000,
        10_000_000,
    ];
}

/// A histogram's atomic cells: one bucket per boundary plus overflow.
#[derive(Debug)]
struct HistogramCells {
    bounds: &'static [u64],
    /// `bounds.len() + 1` buckets; bucket `i` counts observations
    /// `v <= bounds[i]`, the last bucket counts everything larger.
    /// Cache-padded so concurrent observers hitting adjacent buckets
    /// never ping-pong one line.
    counts: Box<[CachePadded<AtomicU64>]>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        HistogramCells {
            bounds,
            counts: (0..=bounds.len()).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        // First bucket whose upper bound contains the value; the extra
        // final bucket absorbs anything beyond the last boundary.
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// The registry: a declared set of instruments with a lock-free write
/// path.
///
/// ```
/// use mhw_obs::{MetricId, Registry};
///
/// const LOGINS: MetricId = MetricId("demo.logins");
/// let mut reg = Registry::new();
/// reg.register_counter(LOGINS);
/// reg.inc(LOGINS); // &self — callable from any hot path
/// assert_eq!(reg.counter_value(LOGINS), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    // Each cell is cache-padded: per-shard registries are allocated
    // back to back by the engine, and unpadded adjacent counters would
    // false-share lines across worker threads.
    counters: Vec<(MetricId, CachePadded<AtomicU64>)>,
    gauges: Vec<(MetricId, CachePadded<AtomicU64>)>,
    histograms: Vec<(MetricId, HistogramCells)>,
}

impl Clone for Registry {
    /// Cloning snapshots the current values into fresh atomics (used by
    /// `Clone`-able hosts like the detection pipeline).
    fn clone(&self) -> Self {
        Registry {
            counters: self
                .counters
                .iter()
                .map(|(id, c)| (*id, CachePadded::new(AtomicU64::new(c.load(Ordering::Relaxed)))))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(id, g)| (*id, CachePadded::new(AtomicU64::new(g.load(Ordering::Relaxed)))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(id, h)| {
                    let cells = HistogramCells {
                        bounds: h.bounds,
                        counts: h
                            .counts
                            .iter()
                            .map(|c| CachePadded::new(AtomicU64::new(c.load(Ordering::Relaxed))))
                            .collect(),
                        total: AtomicU64::new(h.total.load(Ordering::Relaxed)),
                        sum: AtomicU64::new(h.sum.load(Ordering::Relaxed)),
                    };
                    (*id, cells)
                })
                .collect(),
        }
    }
}

impl Registry {
    /// An empty registry (no instruments; every update is a no-op until
    /// something is registered).
    pub fn new() -> Self {
        Registry::default()
    }

    // ---- registration (cold path, `&mut self`) ----

    /// Declare a monotonically increasing counter.
    pub fn register_counter(&mut self, id: MetricId) {
        if self.find(&self.counters, id).is_none() {
            self.counters.push((id, CachePadded::new(AtomicU64::new(0))));
        }
    }

    /// Declare a gauge (last-set value; merged by summing, so per-shard
    /// gauges read as a run-wide total).
    pub fn register_gauge(&mut self, id: MetricId) {
        if self.find(&self.gauges, id).is_none() {
            self.gauges.push((id, CachePadded::new(AtomicU64::new(0))));
        }
    }

    /// Declare a fixed-bucket histogram over the given ascending bucket
    /// boundaries (see [`buckets`]).
    pub fn register_histogram(&mut self, id: MetricId, bounds: &'static [u64]) {
        if !self.histograms.iter().any(|(i, _)| *i == id) {
            self.histograms.push((id, HistogramCells::new(bounds)));
        }
    }

    /// Builder-style [`Registry::register_counter`].
    pub fn with_counter(mut self, id: MetricId) -> Self {
        self.register_counter(id);
        self
    }

    /// Builder-style [`Registry::register_gauge`].
    pub fn with_gauge(mut self, id: MetricId) -> Self {
        self.register_gauge(id);
        self
    }

    /// Builder-style [`Registry::register_histogram`].
    pub fn with_histogram(mut self, id: MetricId, bounds: &'static [u64]) -> Self {
        self.register_histogram(id, bounds);
        self
    }

    // ---- updates (hot path, `&self`, lock-free) ----

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if let Some(c) = self.find(&self.counters, id) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&self, id: MetricId, v: u64) {
        if let Some(g) = self.find(&self.gauges, id) {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise a gauge to `v` if `v` is larger (high-water-mark use).
    #[inline]
    pub fn gauge_max(&self, id: MetricId, v: u64) {
        if let Some(g) = self.find(&self.gauges, id) {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: MetricId, value: u64) {
        if let Some((_, h)) = self.histograms.iter().find(|(i, _)| *i == id) {
            h.observe(value);
        }
    }

    fn find<'a>(
        &self,
        list: &'a [(MetricId, CachePadded<AtomicU64>)],
        id: MetricId,
    ) -> Option<&'a AtomicU64> {
        // The instrument sets are tiny (≤ ~10 per subsystem); a linear
        // scan comparing static-str pointers first is cheaper than any
        // hash for this size.
        list.iter()
            .find(|(i, _)| std::ptr::eq(i.0, id.0) || i.0 == id.0)
            .map(|(_, v)| &**v)
    }

    // ---- reads ----

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, id: MetricId) -> Option<u64> {
        self.find(&self.counters, id).map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, id: MetricId) -> Option<u64> {
        self.find(&self.gauges, id).map(|g| g.load(Ordering::Relaxed))
    }

    /// Render every instrument into a [`MetricsSnapshot`], sorted by
    /// metric name (the deterministic wire form).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .map(|(id, c)| CounterSnapshot {
                name: id.0.to_string(),
                value: c.load(Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .iter()
            .map(|(id, g)| GaugeSnapshot {
                name: id.0.to_string(),
                value: g.load(Ordering::Relaxed),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .iter()
            .map(|(id, h)| HistogramSnapshot {
                name: id.0.to_string(),
                bounds: h.bounds.to_vec(),
                counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                total: h.total.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: MetricId = MetricId("test.counter");
    const G: MetricId = MetricId("test.gauge");
    const H: MetricId = MetricId("test.histogram");

    #[test]
    fn counters_and_gauges_update_through_shared_refs() {
        let reg = Registry::new().with_counter(C).with_gauge(G);
        reg.inc(C);
        reg.add(C, 4);
        reg.gauge_set(G, 7);
        reg.gauge_max(G, 3); // lower: no effect
        reg.gauge_max(G, 11);
        assert_eq!(reg.counter_value(C), Some(5));
        assert_eq!(reg.gauge_value(G), Some(11));
    }

    #[test]
    fn unregistered_updates_are_dropped() {
        let reg = Registry::new();
        reg.inc(C);
        reg.observe(H, 10);
        reg.gauge_set(G, 1);
        assert_eq!(reg.counter_value(C), None);
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let reg = Registry::new().with_histogram(H, &[10, 100, 1000]);
        // On-boundary values land in the bucket they bound.
        reg.observe(H, 10);
        reg.observe(H, 100);
        reg.observe(H, 1000);
        // Strictly-inside values.
        reg.observe(H, 11);
        reg.observe(H, 1);
        // Overflow.
        reg.observe(H, 1001);
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.bounds, vec![10, 100, 1000]);
        assert_eq!(h.counts, vec![2, 2, 1, 1]); // ≤10, ≤100, ≤1000, >1000
        assert_eq!(h.total, 6);
        assert_eq!(h.sum, 10 + 100 + 1000 + 11 + 1 + 1001);
    }

    #[test]
    fn histogram_zero_and_max_values() {
        let reg = Registry::new().with_histogram(H, buckets::LATENCY_SECS);
        reg.observe(H, 0);
        reg.observe(H, u64::MAX);
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.counts[0], 1, "zero lands in the first bucket");
        assert_eq!(*h.counts.last().unwrap(), 1, "huge values land in overflow");
        assert_eq!(h.counts.len(), buckets::LATENCY_SECS.len() + 1);
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut reg = Registry::new();
        reg.register_counter(C);
        reg.register_counter(C);
        reg.inc(C);
        assert_eq!(reg.snapshot().counters.len(), 1);
        assert_eq!(reg.counter_value(C), Some(1));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = Registry::new()
            .with_counter(MetricId("z.last"))
            .with_counter(MetricId("a.first"));
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }

    #[test]
    fn clone_preserves_values_independently() {
        let reg = Registry::new().with_counter(C);
        reg.add(C, 3);
        let copy = reg.clone();
        reg.inc(C);
        assert_eq!(copy.counter_value(C), Some(3));
        assert_eq!(reg.counter_value(C), Some(4));
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let reg = Registry::new().with_counter(C);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.inc(C);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value(C), Some(8000));
    }
}
