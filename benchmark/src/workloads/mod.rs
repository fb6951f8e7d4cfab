//! The four workloads and what they share: the repeat-until-deadline
//! loop, the output checks, and the shape of a run's outcome.
//!
//! Every workload runs on the calling thread only, through the same
//! public calls the shipped binaries make, and takes its inputs from
//! the seed alone.

pub mod paper_world;
pub mod posture_sweep;
pub mod scale_world;
pub mod serve_replay;

use crate::trace::Tracer;
use mhw_obs::MetricsSnapshot;
use mhw_types::fnv::fnv1a;
use serde::Value;
use std::time::Instant;

/// A workload: its name, why it exists, and its entry point.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&Params) -> Result<Outcome, String>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-world",
        why: "paper-calibrated worlds stepped day by day: mail, identity, phishing, crews, recovery and in-sim scoring",
        run: paper_world::run,
    },
    Workload {
        name: "scale-world",
        why: "30k low-activity users in 8 shards on one worker: state columns, log appends, barriers and merges",
        run: scale_world::run,
    },
    Workload {
        name: "posture-sweep",
        why: "27 seed x defense x recovery cells forked from one frozen world: snapshot clone, fork checks, recovery scoring, pivots",
        run: posture_sweep::run,
    },
    Workload {
        name: "serve-replay",
        why: "3M logins through one streaming risk service: the defense hot path with its caches at their caps",
        run: serve_replay::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the caller asked for.
pub struct Params {
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One output check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Raw samples of a timed run, turned into end-to-end metrics by the
/// caller.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Items per second of each measured unit.
    pub throughput: Vec<f64>,
    /// What `throughput` counts, e.g. "user-days/s".
    pub throughput_of: &'static str,
    /// Latency of each sampled item, µs.
    pub latency_us: Vec<f64>,
    /// What one latency sample is, e.g. "login".
    pub latency_of: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items the throughput counts, over every measured unit.
    pub attempted: u64,
    /// Items in units whose output failed a check.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Filled by timed runs.
    pub timed: Timed,
    /// Filled by traced runs.
    pub layers: Vec<Metric>,
    /// Throughput of the traced units, to set against the untraced ones.
    pub traced_throughput: Vec<f64>,
    /// Spans of the traced units.
    pub tracer: Option<Tracer>,
    /// The run's output digest (digest and layer counters, folded).
    pub digest: u64,
    /// Workload-specific detail for the result record.
    pub detail: Vec<(&'static str, Value)>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }
}

/// Digests pinned per workload for the default seed and one held-out
/// seed. A run with either seed must reproduce its pin exactly; a run
/// with any other seed is checked for repeatability only.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 20_141_105;
const PINS: &[(&str, u64, u64)] = &[
    ("paper-world", DEFAULT_SEED, 0x03a6_a4a1_0bcf_1ed0),
    ("paper-world", HELD_OUT_SEED, 0x85e1_c952_e70a_804b),
    ("scale-world", DEFAULT_SEED, 0x1213_33c4_cb68_dd17),
    ("scale-world", HELD_OUT_SEED, 0x5b3b_c4c0_a978_deb7),
    ("posture-sweep", DEFAULT_SEED, 0x4c09_a890_cfeb_4894),
    ("posture-sweep", HELD_OUT_SEED, 0x442a_4418_3c74_201e),
    ("serve-replay", DEFAULT_SEED, 0x33a9_7320_4cd6_7168),
    ("serve-replay", HELD_OUT_SEED, 0xf92d_38e6_10fc_dde9),
];

/// The pin check for `seed`, when `seed` is pinned.
pub fn pin_check(workload: &str, seed: u64, digest: u64) -> Option<Check> {
    let (_, _, pinned) = PINS.iter().find(|(w, s, _)| *w == workload && *s == seed)?;
    Some(Check::new(
        "pinned digest",
        digest == *pinned,
        format!("seed {seed}: {digest:#018x}, pinned {pinned:#018x}"),
    ))
}

/// Run `unit` repeatedly until `seconds` have passed, at least once.
/// A unit is not started when more than half of a mean unit would fall
/// past the budget, so a run ends within half a unit of `seconds`.
pub fn repeat_for(
    seconds: f64,
    mut unit: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0usize;
    loop {
        unit()?;
        n += 1;
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / n as f64 / 2.0 > seconds {
            return Ok(n);
        }
    }
}

/// Checks that every unit of a run produced the same fingerprint, and
/// counts the items of units that did not as failed.
#[derive(Debug, Default)]
pub struct Repeats {
    first: Option<u64>,
    units: usize,
    mismatched: usize,
    pub failed_items: u64,
}

impl Repeats {
    pub fn observe(&mut self, fingerprint: u64, items: u64) {
        self.units += 1;
        match self.first {
            None => self.first = Some(fingerprint),
            Some(first) if first != fingerprint => {
                self.mismatched += 1;
                self.failed_items += items;
            }
            Some(_) => {}
        }
    }

    pub fn fingerprint(&self) -> u64 {
        self.first.unwrap_or(0)
    }

    pub fn check(&self, what: &str) -> Check {
        Check::new(
            format!("{what} repeat exactly"),
            self.mismatched == 0,
            format!(
                "{} of {} units differ from the first",
                self.mismatched, self.units
            ),
        )
    }
}

/// FNV-1a over a sequence of u64 words.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(mhw_types::fnv::OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// Every counter of a metrics snapshot, folded in name order.
pub fn counters_fingerprint(snapshot: &MetricsSnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .fold(mhw_types::fnv::OFFSET, |h, c| {
            fnv1a(fnv1a(h, c.name.as_bytes()), &c.value.to_le_bytes())
        })
}

/// A counter's value, 0 when the snapshot lacks it.
pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Seconds elapsed since `t`, as milliseconds.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
