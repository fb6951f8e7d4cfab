//! The deterministic paper-fidelity scorecard.
//!
//! A [`FidelityReport`] is the validation counterpart of [`RunReport`]:
//! where the run report records *what the simulation did*, the fidelity
//! report records *how close its regenerated figures and tables are to
//! the paper's published numbers*. Each [`TargetScore`] reduces one
//! calibration component to a distance (KS statistic, total variation,
//! relative error — computed by `mhw_analysis::distance`) and a
//! [`Tolerance`] band classifies it:
//!
//! * **PASS** — distance within the calibrated band;
//! * **WARN** — outside the calibrated band but inside the failure
//!   band: drifting, worth a look, not yet wrong;
//! * **FAIL** — outside the failure band: the reproduction no longer
//!   supports the paper's claim.
//!
//! Like [`RunReport`], the serialized form is a pure function of
//! `(seed, scale)` — simulated time only, no wall clock, no worker
//! count — so `FIDELITY.json` is byte-identical however many threads
//! built the worlds. `tests/fidelity.rs` pins that property.
//!
//! [`RunReport`]: crate::RunReport

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Identifies the fidelity-report layout; bump when fields change
/// meaning.
pub const FIDELITY_SCHEMA: &str = "mhw-fidelity/v2";

/// Verdict for one calibration component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FidelityStatus {
    /// Distance within the calibrated tolerance band.
    Pass,
    /// Outside the calibrated band but inside the failure band.
    Warn,
    /// Outside the failure band — the claim is no longer reproduced.
    Fail,
}

impl FidelityStatus {
    /// The scorecard label (`PASS` / `WARN` / `FAIL`).
    pub fn label(self) -> &'static str {
        match self {
            FidelityStatus::Pass => "PASS",
            FidelityStatus::Warn => "WARN",
            FidelityStatus::Fail => "FAIL",
        }
    }
}

impl fmt::Display for FidelityStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for FidelityStatus {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for FidelityStatus {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Str(s) if s == "PASS" => Ok(FidelityStatus::Pass),
            Value::Str(s) if s == "WARN" => Ok(FidelityStatus::Warn),
            Value::Str(s) if s == "FAIL" => Ok(FidelityStatus::Fail),
            other => Err(serde::Error(format!("not a fidelity status: {other:?}"))),
        }
    }
}

/// A two-level tolerance band on a distance: distances at or below
/// `warn` PASS, at or below `fail` WARN, above it FAIL.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerance {
    /// The calibrated band: distances at or below this PASS.
    pub warn: f64,
    /// The failure band: distances above this FAIL.
    pub fail: f64,
}

impl Tolerance {
    /// Build a band; `fail` must be at least `warn`.
    ///
    /// # Panics
    /// Panics when `fail < warn` or either bound is negative/NaN — a
    /// malformed band in the calibration registry is a programming
    /// error, not a measurement outcome.
    pub fn new(warn: f64, fail: f64) -> Self {
        assert!(warn >= 0.0 && fail >= warn, "malformed tolerance band {warn}/{fail}");
        Tolerance { warn, fail }
    }

    /// Classify a distance against the band. Boundary values stay in
    /// the better class: `distance == warn` is a PASS and
    /// `distance == fail` is a WARN.
    pub fn classify(&self, distance: f64) -> FidelityStatus {
        if distance <= self.warn {
            FidelityStatus::Pass
        } else if distance <= self.fail {
            FidelityStatus::Warn
        } else {
            FidelityStatus::Fail
        }
    }
}

/// One scored calibration component: a paper number, the measured
/// value, their distance and the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetScore {
    /// Target group id from the calibration registry (`T2`, `F7`, …).
    pub target: String,
    /// Which component of the target this row scores (a target like
    /// Figure 8 has several published numbers).
    pub component: String,
    /// Distance metric used (`ks`, `l1`, `chi2`, `rel_err`, `abs_err`).
    pub metric: String,
    /// The paper's value, as printed there.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// The computed distance (units depend on `metric`).
    pub distance: f64,
    /// The tolerance band the distance was classified against.
    pub tolerance: Tolerance,
    /// The verdict.
    pub status: FidelityStatus,
    /// Free-form caveat (sampling notes, OCR caveats).
    pub note: String,
}

impl TargetScore {
    /// Score one component: computes the status from `distance` and
    /// `tolerance`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        target: impl Into<String>,
        component: impl Into<String>,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        distance: f64,
        tolerance: Tolerance,
        note: impl Into<String>,
    ) -> Self {
        TargetScore {
            target: target.into(),
            component: component.into(),
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            distance,
            tolerance,
            status: tolerance.classify(distance),
            note: note.into(),
        }
    }
}

/// The full scorecard: every scored component, plus the scenario
/// coordinates that produced the measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Report schema tag ([`FIDELITY_SCHEMA`]).
    pub schema: String,
    /// RNG seed the measured worlds were driven by.
    pub seed: u64,
    /// Run scale (`"full"` or `"quick"`) — tolerance bands depend on
    /// it, so it is part of the report's identity.
    pub scale: String,
    /// Every scored component, in registry order.
    pub targets: Vec<TargetScore>,
}

impl FidelityReport {
    /// An empty report for the given scenario coordinates.
    pub fn new(seed: u64, scale: impl Into<String>) -> Self {
        FidelityReport {
            schema: FIDELITY_SCHEMA.to_string(),
            seed,
            scale: scale.into(),
            targets: Vec::new(),
        }
    }

    /// Append a scored component.
    pub fn push(&mut self, score: TargetScore) {
        self.targets.push(score);
    }

    /// Distinct target-group ids, in first-appearance order.
    pub fn target_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = Vec::new();
        for t in &self.targets {
            if !ids.contains(&t.target.as_str()) {
                ids.push(&t.target);
            }
        }
        ids
    }

    /// The worst component status within one target group.
    pub fn status_of(&self, target_id: &str) -> Option<FidelityStatus> {
        self.targets
            .iter()
            .filter(|t| t.target == target_id)
            .map(|t| t.status)
            .max()
    }

    /// The worst status across the whole report (PASS when empty).
    pub fn overall(&self) -> FidelityStatus {
        self.targets.iter().map(|t| t.status).max().unwrap_or(FidelityStatus::Pass)
    }

    /// Number of components with the given status.
    pub fn count(&self, status: FidelityStatus) -> usize {
        self.targets.iter().filter(|t| t.status == status).count()
    }

    /// Components that FAILed, for error reporting.
    pub fn failures(&self) -> Vec<&TargetScore> {
        self.targets.iter().filter(|t| t.status == FidelityStatus::Fail).collect()
    }

    /// Serialize to the canonical JSON form (fields in declaration
    /// order; byte-identical for equal reports).
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used)] // every field is serializable by construction
        serde_json::to_string(self).expect("fidelity report serializes")
    }

    /// Parse a report back from [`FidelityReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Render the scorecard as GitHub-flavoured markdown: a per-target
    /// summary table followed by every scored component. Deterministic
    /// (the markdown is a pure function of the report).
    pub fn scorecard_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Fidelity scorecard\n\n");
        out.push_str(&format!(
            "Seed `{:#x}`, scale **{}** — {} targets, {} components: \
             **{} PASS, {} WARN, {} FAIL** (overall **{}**).\n\n",
            self.seed,
            self.scale,
            self.target_ids().len(),
            self.targets.len(),
            self.count(FidelityStatus::Pass),
            self.count(FidelityStatus::Warn),
            self.count(FidelityStatus::Fail),
            self.overall(),
        ));
        out.push_str("## Targets\n\n| Target | Components | Status |\n|---|---|---|\n");
        for id in self.target_ids() {
            let n = self.targets.iter().filter(|t| t.target == id).count();
            let status = self.status_of(id).unwrap_or(FidelityStatus::Pass);
            out.push_str(&format!("| {id} | {n} | {status} |\n"));
        }

        out.push_str(
            "\n## Components\n\n\
             | Target | Component | Paper | Measured | Distance | Band (warn/fail) | Status |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for t in &self.targets {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} {:.4} | {:.3}/{:.3} | {} |\n",
                escape(&t.target),
                escape(&t.component),
                escape(&t.paper),
                escape(&t.measured),
                escape(&t.metric),
                t.distance,
                t.tolerance.warn,
                t.tolerance.fail,
                t.status,
            ));
        }
        if self.targets.iter().any(|t| !t.note.is_empty()) {
            out.push_str("\n## Notes\n\n");
            for t in self.targets.iter().filter(|t| !t.note.is_empty()) {
                out.push_str(&format!(
                    "* **{} — {}**: {}\n",
                    escape(&t.target),
                    escape(&t.component),
                    t.note
                ));
            }
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('|', "\\|")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FidelityReport {
        let mut r = FidelityReport::new(0xBEEF, "quick");
        r.push(TargetScore::new(
            "F7",
            "access CDF at 30 min / 7 h",
            "ks",
            "20% / 50%",
            "21.3% / 48.9%",
            0.013,
            Tolerance::new(0.08, 0.20),
            "",
        ));
        r.push(TargetScore::new(
            "F5",
            "mean page conversion",
            "rel_err",
            "13.7%",
            "29.0%",
            1.12,
            Tolerance::new(0.25, 0.60),
            "cranked attack volume",
        ));
        r
    }

    #[test]
    fn classify_boundaries_stay_in_better_class() {
        let t = Tolerance::new(0.1, 0.2);
        assert_eq!(t.classify(0.0), FidelityStatus::Pass);
        assert_eq!(t.classify(0.1), FidelityStatus::Pass);
        assert_eq!(t.classify(0.10000001), FidelityStatus::Warn);
        assert_eq!(t.classify(0.2), FidelityStatus::Warn);
        assert_eq!(t.classify(0.20000001), FidelityStatus::Fail);
        assert_eq!(t.classify(f64::INFINITY), FidelityStatus::Fail);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn inverted_band_panics() {
        Tolerance::new(0.5, 0.1);
    }

    #[test]
    fn report_aggregation() {
        let r = sample();
        assert_eq!(r.target_ids(), vec!["F7", "F5"]);
        assert_eq!(r.status_of("F7"), Some(FidelityStatus::Pass));
        assert_eq!(r.status_of("F5"), Some(FidelityStatus::Fail));
        assert_eq!(r.status_of("F99"), None);
        assert_eq!(r.overall(), FidelityStatus::Fail);
        assert_eq!(r.count(FidelityStatus::Pass), 1);
        assert_eq!(r.failures().len(), 1);
        assert_eq!(r.failures()[0].target, "F5");
    }

    #[test]
    fn empty_report_passes() {
        let r = FidelityReport::new(1, "full");
        assert_eq!(r.overall(), FidelityStatus::Pass);
        assert!(r.target_ids().is_empty());
    }

    #[test]
    fn json_roundtrip_is_byte_stable() {
        let r = sample();
        let json = r.to_json();
        assert_eq!(json, sample().to_json());
        let back = FidelityReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert!(json.contains("\"schema\":\"mhw-fidelity/v2\""));
        assert!(json.contains("\"status\":\"FAIL\""));
    }

    #[test]
    fn scorecard_renders_groups_and_components() {
        let md = sample().scorecard_markdown();
        assert!(md.contains("# Fidelity scorecard"));
        assert!(md.contains("| F7 | 1 | PASS |"));
        assert!(md.contains("| F5 | 1 | FAIL |"));
        assert!(md.contains("rel_err 1.1200"));
        assert!(md.contains("0.250/0.600"));
        assert!(md.contains("**F5 — mean page conversion**: cranked attack volume"));
        // Deterministic rendering.
        assert_eq!(md, sample().scorecard_markdown());
    }
}
