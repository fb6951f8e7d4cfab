//! The serve-mode report (`BENCH_serve.json`).
//!
//! Every row comes from the same overload-safe replay loop, which
//! reads no wall clock, so the whole report is deterministic for a
//! fixed stream, fault plan and thread count: the workload identity
//! (seed, users, days, event count), each run's verdict digest, its
//! *virtual*-clock latency quantiles (queueing + the service's modeled
//! scoring cost), its state footprint, and its [`ServeAvailability`]
//! block (shed counts, degradation counts, breaker transitions,
//! divergence from the clean arm). Wall-clock throughput and latency of
//! the scoring path are measured by the benchmark's serve-replay
//! workload, not here.

use crate::snapshot::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// Identifies the serve-report layout; bump when fields change meaning.
///
/// v2 added per-run `arm` labels and the optional `availability` block
/// for fault arms, and widened the digest domain with the verdict
/// fidelity byte. v3 dropped the wall-clock `wall_ms` and
/// `logins_per_sec`, made latency virtual on every arm, and gave every
/// row, the clean arm's included, an `availability` block.
pub const SERVE_SCHEMA: &str = "mhw-serve/v3";

/// The arm label for the unfaulted baseline run.
pub const ARM_CLEAN: &str = "clean";

/// Overload/degradation accounting for one arm: everything the
/// resilient replay did besides scoring, all deterministic for a fixed
/// stream, plan and thread count. On the clean arm the plan is empty,
/// the deadline unlimited, and every count but `events_scored` is 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeAvailability {
    /// The canonical fault-plan spec this arm injected (`(no faults)`
    /// on the clean arm).
    pub fault_plan: String,
    /// Which request was dropped on queue overflow (`fifo` or
    /// `lowest-risk`).
    pub shed_policy: String,
    /// Per-request virtual-nanosecond deadline budget.
    pub deadline_ns: u64,
    /// Bounded admission-queue depth per service instance.
    pub queue_cap: u64,
    /// Events scored through the full degradation ladder.
    pub events_scored: u64,
    /// Events shed by admission control (cheap-prior verdict, never
    /// committed).
    pub events_shed: u64,
    /// `events_shed / (events_scored + events_shed)`.
    pub shed_rate: f64,
    /// Scored events with at least one degraded signal.
    pub degraded_events: u64,
    /// Events scored with the geo fallback (country-novelty prior).
    pub degraded_geo: u64,
    /// Events scored with the cold-cache fan-out fallback.
    pub degraded_ip_cache: u64,
    /// Events scored with the new-account history posture.
    pub degraded_history: u64,
    /// Source consultations abandoned on an exhausted deadline budget.
    pub deadline_downgrades: u64,
    /// IP-cache wipes injected by the plan (summed over shards).
    pub cache_wipes: u64,
    /// Circuit-breaker trips (closed/half-open → open) across sources
    /// and shards.
    pub breaker_opened: u64,
    /// Breaker probe windows (open → half-open).
    pub breaker_half_opened: u64,
    /// Breaker recoveries (half-open → closed).
    pub breaker_closed: u64,
    /// Deepest any shard's admission queue got.
    pub peak_queue_depth: u64,
    /// Fraction of events whose decision differs from the clean arm at
    /// the same thread count (shed events compare their cheap-prior
    /// decision).
    pub divergence_from_clean: f64,
    /// Absolute count behind [`ServeAvailability::divergence_from_clean`].
    pub diverged_events: u64,
}

/// One (thread count, arm) configuration's replay measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRun {
    /// Which arm this row measures: [`ARM_CLEAN`] or a fault-plan spec.
    pub arm: String,
    /// Worker threads (each owning one `RiskService` shard).
    pub threads: usize,
    /// Login events replayed (all shards together).
    pub events: u64,
    /// Median per-login latency in virtual nanoseconds (queueing +
    /// modeled scoring cost).
    pub p50_ns: f64,
    /// 99th-percentile per-login latency in nanoseconds (same clock as
    /// [`ServeRun::p50_ns`]).
    pub p99_ns: f64,
    /// Mean per-login latency in nanoseconds (same clock as
    /// [`ServeRun::p50_ns`]).
    pub mean_ns: f64,
    /// Bounded-state footprint summed over all shards at the end of the
    /// replay, in bytes.
    pub peak_state_bytes: u64,
    /// Accounts with materialized history across all shards at the end
    /// of the replay.
    pub peak_accounts: u64,
    /// IP-cache entries across all shards at the end of the replay
    /// (≤ capacity × shards).
    pub peak_ip_entries: u64,
    /// Chained verdict digest over the replay (per-shard digests
    /// folded in shard order). Equal across repeat runs at the same
    /// thread count and arm; differs across thread counts because
    /// per-shard IP fan-out state partitions differently.
    pub verdict_digest: u64,
    /// Overload accounting.
    pub availability: ServeAvailability,
}

impl ServeRun {
    /// Assemble one run's row from the merged latency histogram.
    #[allow(clippy::too_many_arguments)]
    pub fn from_measurement(
        arm: &str,
        threads: usize,
        events: u64,
        latency: &HistogramSnapshot,
        peak_state_bytes: u64,
        peak_accounts: u64,
        peak_ip_entries: u64,
        verdict_digest: u64,
        availability: ServeAvailability,
    ) -> Self {
        ServeRun {
            arm: arm.to_string(),
            threads,
            events,
            p50_ns: latency.quantile(0.50).unwrap_or(0.0),
            p99_ns: latency.quantile(0.99).unwrap_or(0.0),
            mean_ns: latency.mean().unwrap_or(0.0),
            peak_state_bytes,
            peak_accounts,
            peak_ip_entries,
            verdict_digest,
            availability,
        }
    }
}

/// The full serve benchmark artifact: workload identity plus one
/// [`ServeRun`] per (thread count, arm) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report schema tag ([`SERVE_SCHEMA`]).
    pub schema: String,
    /// Workload seed (0 when replaying a recorded log).
    pub seed: u64,
    /// Users in the generating workload (0 for recorded logs).
    pub users: u32,
    /// Days of generated traffic (0 for recorded logs).
    pub days: u32,
    /// Total login events in the stream.
    pub events: u64,
    /// One measurement per (thread count, arm), in the order run.
    pub runs: Vec<ServeRun>,
}

impl ServeReport {
    /// Assemble a report around its workload identity.
    pub fn new(seed: u64, users: u32, days: u32, events: u64) -> Self {
        ServeReport { schema: SERVE_SCHEMA.to_string(), seed, users, days, events, runs: Vec::new() }
    }

    /// Serialize to canonical JSON (fields in declaration order).
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used)] // every field is serializable by construction
        serde_json::to_string(self).expect("serve report serializes")
    }

    /// Parse a report back from [`ServeReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> HistogramSnapshot {
        HistogramSnapshot {
            name: "serve.latency".into(),
            bounds: vec![100, 1_000, 10_000],
            counts: vec![50, 40, 10, 0],
            total: 100,
            sum: 60_000,
        }
    }

    fn availability() -> ServeAvailability {
        ServeAvailability {
            fault_plan: "geo-down@10..40".into(),
            shed_policy: "lowest-risk".into(),
            deadline_ns: 5_000,
            queue_cap: 64,
            events_scored: 950,
            events_shed: 50,
            shed_rate: 0.05,
            degraded_events: 30,
            degraded_geo: 30,
            degraded_ip_cache: 0,
            degraded_history: 0,
            deadline_downgrades: 0,
            cache_wipes: 0,
            breaker_opened: 1,
            breaker_half_opened: 1,
            breaker_closed: 1,
            peak_queue_depth: 9,
            divergence_from_clean: 0.02,
            diverged_events: 20,
        }
    }

    #[test]
    fn run_row_derives_quantiles() {
        let run = ServeRun::from_measurement(
            ARM_CLEAN,
            4,
            1_000,
            &latency(),
            4096,
            100,
            64,
            0xabc,
            availability(),
        );
        assert_eq!(run.p50_ns, 100.0);
        assert!(run.p99_ns > run.p50_ns);
        assert_eq!(run.mean_ns, 600.0);
        assert_eq!(run.arm, "clean");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = ServeReport::new(7, 200, 3, 1_000);
        for (arm, digest) in [(ARM_CLEAN, 0xabc), ("geo-down@10..40", 0xdef)] {
            report.runs.push(ServeRun::from_measurement(
                arm,
                1,
                1_000,
                &latency(),
                4096,
                100,
                64,
                digest,
                availability(),
            ));
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"mhw-serve/v3\""));
        assert!(!json.contains("\"availability\":null"), "every arm carries availability");
        assert!(json.contains("\"breaker_opened\":1"));
        let back = ServeReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }
}
