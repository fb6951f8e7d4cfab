//! Per-phase wall-clock profiling for the sharded engine.
//!
//! A [`PhaseProfiler`] accumulates how much real time each coarse
//! engine phase consumed — world build, per-shard day steps, the
//! single-threaded barrier exchange, the final log merge. The rendered
//! [`EngineProfile`] is what the benchmark's scale-world workload reads
//! for its per-layer times (`core.shard_day_ms` and friends).
//!
//! Phase timings are wall-clock and therefore vary run to run; they
//! are kept out of the deterministic [`RunReport`](crate::RunReport).

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Accumulated wall-clock time for one named phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name, e.g. `"barrier_exchange"`.
    pub phase: String,
    /// How many times the phase ran.
    pub calls: u64,
    /// Total wall-clock milliseconds across all calls.
    pub total_ms: f64,
    /// Mean wall-clock milliseconds per call.
    pub mean_ms: f64,
}

/// A complete profile of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Logical shard count of the profiled run.
    pub n_shards: u16,
    /// Worker threads used.
    pub workers: usize,
    /// Per-phase timings, in first-recorded order.
    pub phases: Vec<PhaseTiming>,
    /// Per-worker busy milliseconds during the build phase, indexed by
    /// worker id (the coordinating thread is worker 0). Shows how
    /// evenly work stealing spread world construction; empty when the
    /// engine did not record it.
    pub build_worker_ms: Vec<f64>,
}

/// Accumulates wall-clock durations per phase, preserving the order
/// phases were first recorded in.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phases: Vec<(&'static str, u64, Duration)>,
    build_workers: Vec<Duration>,
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f` and charge its duration to `phase`.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(phase, start.elapsed());
        out
    }

    /// Charge an externally measured duration to `phase`.
    pub fn record(&mut self, phase: &'static str, elapsed: Duration) {
        match self.phases.iter_mut().find(|(name, _, _)| *name == phase) {
            Some((_, calls, total)) => {
                *calls += 1;
                *total += elapsed;
            }
            None => self.phases.push((phase, 1, elapsed)),
        }
    }

    /// Record how long each worker spent busy during the build phase
    /// (coordinator first), as reported by the engine's worker pool.
    pub fn set_build_workers(&mut self, busy: Vec<Duration>) {
        self.build_workers = busy;
    }

    /// Total time charged to `phase` so far, if it ever ran.
    pub fn total(&self, phase: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(name, _, _)| *name == phase)
            .map(|(_, _, total)| *total)
    }

    /// Render the accumulated timings into an [`EngineProfile`].
    pub fn report(&self, n_shards: u16, workers: usize) -> EngineProfile {
        EngineProfile {
            n_shards,
            workers,
            phases: self
                .phases
                .iter()
                .map(|(phase, calls, total)| {
                    let total_ms = total.as_secs_f64() * 1e3;
                    PhaseTiming {
                        phase: (*phase).to_string(),
                        calls: *calls,
                        total_ms,
                        mean_ms: if *calls > 0 { total_ms / *calls as f64 } else { 0.0 },
                    }
                })
                .collect(),
            build_worker_ms: self
                .build_workers
                .iter()
                .map(|busy| busy.as_secs_f64() * 1e3)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_calls() {
        let mut p = PhaseProfiler::new();
        let a = p.time("step", || 1 + 1);
        assert_eq!(a, 2);
        p.time("step", || ());
        p.time("merge", || ());
        let report = p.report(4, 2);
        assert_eq!(report.n_shards, 4);
        assert_eq!(report.workers, 2);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].phase, "step");
        assert_eq!(report.phases[0].calls, 2);
        assert_eq!(report.phases[1].phase, "merge");
        assert_eq!(report.phases[1].calls, 1);
    }

    #[test]
    fn record_preserves_first_seen_order() {
        let mut p = PhaseProfiler::new();
        p.record("b", Duration::from_millis(3));
        p.record("a", Duration::from_millis(1));
        p.record("b", Duration::from_millis(2));
        let report = p.report(1, 1);
        let names: Vec<&str> = report.phases.iter().map(|t| t.phase.as_str()).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(p.total("b"), Some(Duration::from_millis(5)));
        assert_eq!(p.total("missing"), None);
        assert!((report.phases[0].mean_ms - 2.5).abs() < 1e-9);
    }

    #[test]
    fn build_worker_timings_render_in_ms() {
        let mut p = PhaseProfiler::new();
        p.record("build", Duration::from_millis(10));
        p.set_build_workers(vec![Duration::from_millis(6), Duration::from_millis(4)]);
        let report = p.report(4, 2);
        assert_eq!(report.build_worker_ms.len(), 2);
        assert!((report.build_worker_ms[0] - 6.0).abs() < 1e-9);
        assert!((report.build_worker_ms[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn profile_roundtrips_through_json() {
        let mut p = PhaseProfiler::new();
        p.record("step", Duration::from_millis(4));
        let profile = p.report(8, 4);
        let json = serde_json::to_string(&profile).unwrap();
        let back: EngineProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }
}
