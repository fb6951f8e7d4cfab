//! # mhw-obs
//!
//! The simulator's observability layer: every way to see *inside* a run
//! without changing what the run produces.
//!
//! Two instruments, two different truths:
//!
//! * [`Registry`] — exact, deterministic **metrics**: atomic counters,
//!   gauges and fixed-bucket latency histograms keyed by a static
//!   [`MetricId`]. Every value is a pure function of the simulated
//!   events, measured in simulated time, so per-shard registries merge
//!   into a [`MetricsSnapshot`] that is byte-identical at any worker
//!   count. These feed the end-of-run [`RunReport`].
//! * [`PhaseProfiler`] — wall-clock **phase timings** for the sharded
//!   engine's coarse phases (world build, shard step, barrier drain,
//!   log merge), aggregated into an [`EngineProfile`] that the
//!   benchmark's scale-world workload reads for its per-layer times.
//!
//! The split matters: metrics are part of the engine's determinism
//! contract (`tests/observability.rs` pins report bytes across 1/2/4/8
//! workers), while phase timings are explicitly allowed to vary run to
//! run — they measure the hardware, not the scenario.
//!
//! A third artifact rides on the same determinism contract: the
//! [`FidelityReport`] scorecard (`repro --validate`) that grades the
//! regenerated figures and tables against the paper's published
//! numbers — see [`fidelity`].

#![deny(missing_docs)]

pub mod fidelity;
pub mod metric;
pub mod profile;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod sweep;

pub use fidelity::{FidelityReport, FidelityStatus, TargetScore, Tolerance, FIDELITY_SCHEMA};
pub use metric::{buckets, MetricId, Registry};
pub use profile::{EngineProfile, PhaseProfiler, PhaseTiming};
pub use report::RunReport;
pub use serve::{ServeAvailability, ServeReport, ServeRun, ARM_CLEAN, SERVE_SCHEMA};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use sweep::{SweepCellRow, SweepReport, SWEEP_SCHEMA};

/// Logical CPUs on this host, as `std::thread::available_parallelism`
/// reports them (1 when the count cannot be determined). Hardware-bound
/// artifacts ([`FidelityReport`], [`SweepReport`]) record this so a
/// reader can judge whether wall-clock numbers were taken on an
/// oversubscribed machine.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
