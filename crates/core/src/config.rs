//! Scenario configuration.

use mhw_adversary::{CrewSpec, Era};
use mhw_population::PopulationConfig;
use mhw_recovery::RecoveryPosture;
use serde::{Deserialize, Serialize};

/// Defense toggles (the §8 ablation surface).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Login risk analysis + challenge (§8.2's primary defense).
    pub login_risk_analysis: bool,
    /// Post-login behavioral monitoring.
    pub activity_monitor: bool,
    /// Proactive notifications on critical events.
    pub notifications: bool,
    /// Inbound scam/phishing classification into the Spam folder.
    pub mail_classifier: bool,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            login_risk_analysis: true,
            activity_monitor: true,
            notifications: true,
            mail_classifier: true,
        }
    }
}

impl DefenseConfig {
    /// Everything off — the undefended baseline.
    pub fn none() -> Self {
        DefenseConfig {
            login_risk_analysis: false,
            activity_monitor: false,
            notifications: false,
            mail_classifier: false,
        }
    }
}

/// Recovery-side risk policy: whether claims are risk-scored, with what
/// posture, and whether crews pivot to the recovery flow when the login
/// challenge stops them.
///
/// The default is the **legacy** configuration — no claim scoring, no
/// adversary pivot — so worlds built before this knob existed reproduce
/// byte-for-byte (the same contract `market_share: 0.0` keeps for the
/// credential market).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Score each claim with the [`mhw_recovery::RecoveryRiskService`]
    /// before channel verification. Off reproduces the unscored §6
    /// pipeline exactly.
    pub claim_risk_scoring: bool,
    /// Thresholds used when `claim_risk_scoring` is on.
    pub posture: RecoveryPosture,
    /// Crews that phished a working password but were stopped by the
    /// login challenge may pivot to a recovery claim armed with
    /// harvested personal data.
    pub adversary_pivot: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::legacy()
    }
}

impl RecoveryConfig {
    /// The pre-scoring pipeline: claims verify on channel strength
    /// alone, crews never pivot. Byte-identical to worlds built before
    /// recovery risk existed.
    pub fn legacy() -> Self {
        RecoveryConfig {
            claim_risk_scoring: false,
            posture: RecoveryPosture::paper(),
            adversary_pivot: false,
        }
    }

    /// Scored claims at the paper-calibrated posture, with the
    /// recovery-pivot attack enabled.
    pub fn paper() -> Self {
        RecoveryConfig {
            claim_risk_scoring: true,
            posture: RecoveryPosture::paper(),
            adversary_pivot: true,
        }
    }

    /// Scored claims at the lenient posture, pivot enabled.
    pub fn lenient() -> Self {
        RecoveryConfig { posture: RecoveryPosture::lenient(), ..RecoveryConfig::paper() }
    }

    /// Scored claims at the strict posture, pivot enabled.
    pub fn strict() -> Self {
        RecoveryConfig { posture: RecoveryPosture::strict(), ..RecoveryConfig::paper() }
    }
}

/// One scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    /// Logical shard this scenario instance simulates. Shard identity is
    /// part of scenario semantics (like the seed): shard 0 with the
    /// default population reproduces the unsharded simulator exactly,
    /// while the sharded engine builds one `ScenarioConfig` per shard
    /// with distinct ids. Worker-thread counts are *not* recorded here —
    /// parallelism must never change outputs.
    pub shard: mhw_types::ShardId,
    /// Fraction of freshly phished credentials a crew offers to the
    /// cross-shard credential market instead of exploiting locally
    /// (§5's professional crews trade working credentials). 0 disables
    /// the market, which keeps single-shard runs identical to the
    /// pre-sharding simulator.
    pub market_share: f64,
    pub era: Era,
    /// Simulated days.
    pub days: u64,
    pub population: PopulationConfig,
    pub crews: Vec<CrewSpec>,
    pub defense: DefenseConfig,
    /// Recovery-side risk policy (claim scoring + adversary pivot).
    pub recovery: RecoveryConfig,
    /// Mean phishing lures delivered per user per day (pre-filtering).
    /// The main volume knob: more lures ⇒ more captured credentials ⇒
    /// more hijackings.
    pub lures_per_user_day: f64,
    /// Max credentials one crew processes per working hour.
    pub crew_creds_per_hour: u64,
    /// Probability per day that a crew's dropbox gets suspended by the
    /// provider hosting it (§5.1: decoys unaccessed when "the email
    /// account used by the hijacker to collect credentials" was
    /// suspended).
    pub dropbox_suspension_per_day: f64,
    /// Spam-filter leniency multiplier for mail arriving from one of the
    /// recipient's own contacts (§5.3: contact-origin mail receives
    /// "more lenient and trusting treatment"). 0 = no leniency.
    pub contact_leniency: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0xC0FFEE,
            shard: 0,
            market_share: 0.0,
            era: Era::Y2012,
            days: 30,
            population: PopulationConfig::default(),
            crews: CrewSpec::paper_roster(),
            defense: DefenseConfig::default(),
            recovery: RecoveryConfig::default(),
            lures_per_user_day: 0.2,
            crew_creds_per_hour: 6,
            dropbox_suspension_per_day: 0.08,
            contact_leniency: 0.75,
        }
    }
}

impl ScenarioConfig {
    /// A small, fast configuration for unit/integration tests.
    pub fn small_test(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            days: 14,
            population: PopulationConfig { n_users: 400, ..PopulationConfig::default() },
            lures_per_user_day: 1.2,
            ..ScenarioConfig::default()
        }
    }

    /// A measurement-scale configuration (the experiments' default).
    pub fn measurement(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            days: 45,
            population: PopulationConfig { n_users: 3000, ..PopulationConfig::default() },
            lures_per_user_day: 0.9,
            ..ScenarioConfig::default()
        }
    }

    /// A scale configuration: `n_users` with per-user activity turned
    /// down so wall-clock cost is dominated by per-user bookkeeping
    /// (state columns, log appends, merges), not by lure volume. Used
    /// by the benchmark's scale-world workload; the attack pipeline
    /// stays enabled so hot paths are exercised end to end.
    pub fn scale_world(seed: u64, n_users: usize, days: u64) -> Self {
        ScenarioConfig {
            seed,
            days,
            population: PopulationConfig {
                n_users,
                seed_mailboxes: false,
                activity_scale: 0.02,
                ..PopulationConfig::default()
            },
            lures_per_user_day: 0.02,
            ..ScenarioConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_defenses() {
        let d = DefenseConfig::default();
        assert!(d.login_risk_analysis && d.activity_monitor && d.notifications && d.mail_classifier);
        let n = DefenseConfig::none();
        assert!(!n.login_risk_analysis && !n.activity_monitor && !n.notifications && !n.mail_classifier);
    }

    #[test]
    fn recovery_default_is_the_legacy_no_op() {
        let r = RecoveryConfig::default();
        assert!(!r.claim_risk_scoring && !r.adversary_pivot, "default must not perturb old worlds");
        assert_eq!(r, RecoveryConfig::legacy());
        let p = RecoveryConfig::paper();
        assert!(p.claim_risk_scoring && p.adversary_pivot);
        // Posture presets carry through the shorthand constructors.
        assert_eq!(RecoveryConfig::strict().posture, RecoveryPosture::strict());
        assert_eq!(RecoveryConfig::lenient().posture, RecoveryPosture::lenient());
    }

    #[test]
    fn scenario_presets_differ_in_scale() {
        let small = ScenarioConfig::small_test(1);
        let big = ScenarioConfig::measurement(1);
        assert!(small.population.n_users < big.population.n_users);
        assert!(small.days < big.days);
    }
}
