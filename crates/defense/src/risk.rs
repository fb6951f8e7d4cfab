//! The login risk engine.
//!
//! Combines the [`LoginSignals`] noisy-OR
//! style into a risk score in `[0, 1)` and maps it to a decision. §8.1's
//! "striking the right balance" is the threshold choice: lower challenge
//! thresholds stop more hijacks but challenge more legitimate users —
//! the trade-off the ROC experiment (`exp_defense_roc`) sweeps.

use crate::signals::LoginSignals;

/// Per-signal weights. Each weight is the maximum probability mass the
/// signal can contribute; `0` disables a signal (ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskWeights {
    pub new_country: f64,
    pub impossible_travel: f64,
    pub new_device: f64,
    pub ip_fanout: f64,
    pub odd_hour: f64,
    pub failure_burst: f64,
}

impl Default for RiskWeights {
    fn default() -> Self {
        // Calibrated so that: home logins score ~0; crew logins (new
        // country + new device, impossible travel when racing the owner)
        // score well above the challenge threshold; travelling owners
        // usually land in the challenge band, not the block band.
        RiskWeights {
            new_country: 0.30,
            impossible_travel: 0.65,
            new_device: 0.25,
            ip_fanout: 0.50,
            odd_hour: 0.10,
            failure_burst: 0.25,
        }
    }
}

impl RiskWeights {
    /// Disable one signal by name (ablation benches). Unknown names are
    /// rejected loudly so bench configs cannot silently no-op.
    pub fn without(mut self, signal: &str) -> Self {
        match signal {
            "new_country" => self.new_country = 0.0,
            "impossible_travel" => self.impossible_travel = 0.0,
            "new_device" => self.new_device = 0.0,
            "ip_fanout" => self.ip_fanout = 0.0,
            "odd_hour" => self.odd_hour = 0.0,
            "failure_burst" => self.failure_burst = 0.0,
            other => panic!("unknown signal {other:?}"),
        }
        self
    }

    fn as_array(&self) -> [f64; 6] {
        [
            self.new_country,
            self.impossible_travel,
            self.new_device,
            self.ip_fanout,
            self.odd_hour,
            self.failure_burst,
        ]
    }
}

/// The decision for one login attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiskDecision {
    /// Let the login proceed.
    Allow,
    /// Redirect to the login challenge (§8.2).
    Challenge,
    /// Refuse outright (reserved for extreme scores).
    Block,
}

/// The risk engine: weights + thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskEngine {
    pub weights: RiskWeights,
    /// Scores ≥ this are challenged.
    pub challenge_threshold: f64,
    /// Scores ≥ this are blocked outright.
    pub block_threshold: f64,
}

impl Default for RiskEngine {
    fn default() -> Self {
        RiskEngine {
            weights: RiskWeights::default(),
            challenge_threshold: 0.28,
            block_threshold: 0.93,
        }
    }
}

impl RiskEngine {
    /// Noisy-OR combination: `1 - Π(1 - wᵢ·sᵢ)`. Monotone in every
    /// signal, never reaches 1, and a single strong signal dominates —
    /// the behaviour we want from anomaly evidence.
    pub fn score(&self, signals: &LoginSignals) -> f64 {
        let mut keep = 1.0;
        for (w, s) in self.weights.as_array().iter().zip(signals.as_array()) {
            keep *= 1.0 - (w * s).clamp(0.0, 1.0);
        }
        1.0 - keep
    }

    /// Map a score to a decision.
    pub fn decide(&self, score: f64) -> RiskDecision {
        if score >= self.block_threshold {
            RiskDecision::Block
        } else if score >= self.challenge_threshold {
            RiskDecision::Challenge
        } else {
            RiskDecision::Allow
        }
    }

    /// Score-and-decide in one call.
    pub fn evaluate(&self, signals: &LoginSignals) -> (f64, RiskDecision) {
        let s = self.score(signals);
        (s, self.decide(s))
    }

    /// An engine with the challenge step disabled (everything allowed) —
    /// the "no login defense" ablation baseline.
    pub fn disabled() -> Self {
        RiskEngine {
            weights: RiskWeights::default(),
            challenge_threshold: 1.1,
            block_threshold: 1.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> LoginSignals {
        LoginSignals::default()
    }

    fn crew_typical() -> LoginSignals {
        LoginSignals {
            new_country: 1.0,
            impossible_travel: 0.0,
            new_device: 1.0,
            ip_fanout: 0.4,
            odd_hour: 0.0,
            failure_burst: 0.0,
        }
    }

    fn crew_racing_owner() -> LoginSignals {
        LoginSignals { impossible_travel: 1.0, ..crew_typical() }
    }

    fn travelling_owner() -> LoginSignals {
        // Known device, new country, plausible travel time.
        LoginSignals { new_country: 1.0, ..LoginSignals::default() }
    }

    #[test]
    fn clean_login_allowed() {
        let e = RiskEngine::default();
        let (score, d) = e.evaluate(&clean());
        assert_eq!(score, 0.0);
        assert_eq!(d, RiskDecision::Allow);
    }

    #[test]
    fn crew_login_is_challenged() {
        let e = RiskEngine::default();
        let (score, d) = e.evaluate(&crew_typical());
        assert!(score > e.challenge_threshold, "score {score}");
        assert_ne!(d, RiskDecision::Allow);
    }

    #[test]
    fn racing_crew_scores_higher() {
        let e = RiskEngine::default();
        assert!(e.score(&crew_racing_owner()) > e.score(&crew_typical()));
    }

    #[test]
    fn travelling_owner_in_challenge_band_not_block() {
        let e = RiskEngine::default();
        let (score, d) = e.evaluate(&travelling_owner());
        assert_eq!(d, RiskDecision::Challenge, "score {score}");
        assert!(score < e.block_threshold);
    }

    #[test]
    fn score_is_monotone_in_each_signal() {
        let e = RiskEngine::default();
        let base = crew_typical();
        let mut arr = base.as_array();
        for i in 0..6 {
            let orig = arr[i];
            arr[i] = (orig - 0.3).max(0.0);
            let lower = LoginSignals {
                new_country: arr[0],
                impossible_travel: arr[1],
                new_device: arr[2],
                ip_fanout: arr[3],
                odd_hour: arr[4],
                failure_burst: arr[5],
            };
            let hi = e.score(&base);
            let lo = e.score(&lower);
            assert!(hi >= lo, "signal {i} not monotone: {lo} > {hi}");
            arr[i] = orig;
        }
    }

    #[test]
    fn score_stays_below_one() {
        let e = RiskEngine::default();
        let maxed = LoginSignals {
            new_country: 1.0,
            impossible_travel: 1.0,
            new_device: 1.0,
            ip_fanout: 1.0,
            odd_hour: 1.0,
            failure_burst: 1.0,
        };
        let s = e.score(&maxed);
        assert!(s < 1.0 && s > 0.9, "score {s}");
    }

    #[test]
    fn ablation_removes_signal_influence() {
        let e = RiskEngine {
            weights: RiskWeights::default().without("new_country"),
            ..RiskEngine::default()
        };
        let with = LoginSignals { new_country: 1.0, ..LoginSignals::default() };
        assert_eq!(e.score(&with), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown signal")]
    fn unknown_ablation_name_panics() {
        let _ = RiskWeights::default().without("nonexistent");
    }

    #[test]
    fn disabled_engine_allows_everything() {
        let e = RiskEngine::disabled();
        assert_eq!(e.decide(e.score(&crew_racing_owner())), RiskDecision::Allow);
    }
}
