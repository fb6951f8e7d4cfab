//! The posture-sweep benchmark report (`BENCH_sweep.json`).
//!
//! The `sweep` binary fans a defense × recovery posture grid over
//! forked continuations of one shared snapshot (see
//! `mhw_bench::sweep::fork_sweep`) and serializes the per-cell outcomes
//! here. Like `BENCH_serve.json`, a [`SweepReport`] holds no wall-clock
//! field: for a fixed scenario, seed and grid, the whole report is
//! byte-identical across reruns, hosts and pool widths — that is what
//! `sweep --smoke` double-runs and what `tests/recovery_sweep.rs`
//! pins. Cell timings are the benchmark's to measure.

use serde::{Deserialize, Serialize};

/// Identifies the sweep-report layout; bump when fields change meaning.
pub const SWEEP_SCHEMA: &str = "mhw-sweep/v2";

/// One grid cell's measured outcome: its coordinates on the two
/// posture axes plus the attack-success / legitimate-lockout numbers
/// the frontier table is built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellRow {
    /// Full cell label (`"defense/recovery"`).
    pub label: String,
    /// Defense-axis posture name (`"full"`, `"no-risk"`, `"none"`, …).
    pub defense: String,
    /// Recovery-axis posture name (`"legacy"`, `"paper"`, `"strict"`, …).
    pub recovery: String,
    /// The seed this cell ran with.
    pub seed: u64,
    /// Order-independent dataset digest of the cell's finished run —
    /// the determinism handle `--smoke` compares across double runs.
    pub digest: u64,
    /// Hijacking incidents in the cell's world.
    pub incidents: u64,
    /// Incidents the hijacker exploited before losing access.
    pub exploited: u64,
    /// Hijacker recovery-pivot claims filed (0 with the pivot off).
    pub pivot_attempts: u64,
    /// Pivot claims that took the account over.
    pub pivot_takeovers: u64,
    /// Owner recovery claims denied by claim risk scoring — the
    /// frontier's legitimate-lockout cost (0 with scoring off).
    pub recovery_lockouts: u64,
    /// Owner claims that hit a step-up challenge.
    pub recovery_step_ups: u64,
}

impl SweepCellRow {
    /// Total hijacker wins in this cell: incidents exploited through
    /// the front door plus accounts re-taken through the recovery
    /// pivot. The frontier's attack-success axis.
    pub fn attack_successes(&self) -> u64 {
        self.exploited + self.pivot_takeovers
    }
}

/// The full sweep artifact: scenario identity, grid shape, and one
/// [`SweepCellRow`] per cell in grid order (defense-major).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report schema tag ([`SWEEP_SCHEMA`]).
    pub schema: String,
    /// RNG seed of the shared snapshot prefix.
    pub seed: u64,
    /// Users in the scenario.
    pub users: u32,
    /// Total simulated days per cell.
    pub days: u32,
    /// Day the shared prefix was snapshotted at; cells diverge from
    /// here (the baseline cell re-runs the prefix's own config).
    pub snapshot_day: u64,
    /// One row per grid cell, defense-major.
    pub cells: Vec<SweepCellRow>,
}

impl SweepReport {
    /// Assemble a report around its scenario identity.
    pub fn new(seed: u64, users: u32, days: u32, snapshot_day: u64) -> Self {
        SweepReport {
            schema: SWEEP_SCHEMA.to_string(),
            seed,
            users,
            days,
            snapshot_day,
            cells: Vec::new(),
        }
    }

    /// Serialize to canonical JSON (fields in declaration order).
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used)] // every field is serializable by construction
        serde_json::to_string(self).expect("sweep report serializes")
    }

    /// Parse a report back from [`SweepReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The per-cell digests in grid order — the determinism fingerprint
    /// `sweep --smoke` compares between its double runs.
    pub fn digests(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.digest).collect()
    }

    /// Render the attack-success / legitimate-lockout frontier as a
    /// GitHub-flavoured markdown table, one row per grid cell.
    pub fn frontier_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Posture sweep frontier\n\n");
        out.push_str(&format!(
            "Seed `{:#x}`, {} users × {} days, snapshot at day {} — {} cells.\n\n",
            self.seed,
            self.users,
            self.days,
            self.snapshot_day,
            self.cells.len(),
        ));
        out.push_str(
            "| Defense | Recovery | Incidents | Attack successes | \
             Lockouts | Step-ups | Pivots (won) |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} ({}) |\n",
                c.defense,
                c.recovery,
                c.incidents,
                c.attack_successes(),
                c.recovery_lockouts,
                c.recovery_step_ups,
                c.pivot_attempts,
                c.pivot_takeovers,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(defense: &str, recovery: &str, lockouts: u64) -> SweepCellRow {
        SweepCellRow {
            label: format!("{defense}/{recovery}"),
            defense: defense.to_string(),
            recovery: recovery.to_string(),
            seed: 7,
            digest: 0xD16E57 ^ lockouts,
            incidents: 40,
            exploited: 12,
            pivot_attempts: 5,
            pivot_takeovers: 2,
            recovery_lockouts: lockouts,
            recovery_step_ups: lockouts * 3,
        }
    }

    fn sample() -> SweepReport {
        let mut r = SweepReport::new(7, 500, 30, 20);
        r.cells.push(row("full", "legacy", 0));
        r.cells.push(row("full", "strict", 9));
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"mhw-sweep/v2\""));
        assert!(json.contains("\"recovery_lockouts\":9"));
        let back = SweepReport::from_json(&json).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn frontier_renders_cells_without_host_or_timing() {
        let md = sample().frontier_markdown();
        assert!(md.contains("# Posture sweep frontier"));
        assert!(!md.contains("host"), "no host banner:\n{md}");
        // exploited 12 + pivot takeovers 2.
        assert!(md.contains("| full | strict | 40 | 14 | 9 | 27 | 5 (2) |\n"), "{md}");
        // Deterministic rendering.
        assert_eq!(md, sample().frontier_markdown());
    }
}
