//! Arrival processes.
//!
//! Two arrival shapes recur throughout the paper's traffic:
//!
//! * Phishing-page click streams (Figure 6) decay from an initial burst
//!   ("consistent with a mass mailed email, with clicks centered around
//!   the initial delivery time"), while the one large outlier campaign
//!   shows a *diurnal* plateau over several days.
//! * Organic user activity follows day/night cycles.
//!
//! [`PoissonProcess`] generates inter-arrival times for a (possibly
//! time-varying) rate via thinning; [`DiurnalProfile`] provides the
//! day-shaped modulation.

use crate::rng::SimRng;
use mhw_types::{SimDuration, SimTime, HOUR};

/// A 24-hour rate-modulation profile: a multiplicative factor per UTC
/// hour, normalized so the daily mean factor is 1.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    factors: [f64; 24],
}

impl DiurnalProfile {
    /// Flat profile (no modulation).
    pub fn flat() -> Self {
        DiurnalProfile { factors: [1.0; 24] }
    }

    /// A gentle human diurnal curve peaking mid-day in the given
    /// timezone: factor ~0.3 at night, ~1.6 at the 14:00 local peak.
    pub fn human(utc_offset_hours: i32) -> Self {
        let mut factors = [0.0f64; 24];
        for (utc_h, f) in factors.iter_mut().enumerate() {
            let local = (utc_h as i32 + utc_offset_hours).rem_euclid(24) as f64;
            // Cosine bump centred at 14:00 local.
            let phase = (local - 14.0) / 24.0 * std::f64::consts::TAU;
            *f = 1.0 + 0.65 * phase.cos();
        }
        let mean: f64 = factors.iter().sum::<f64>() / 24.0;
        for f in &mut factors {
            *f /= mean;
        }
        DiurnalProfile { factors }
    }

    /// Modulation factor at instant `t`.
    pub fn factor_at(&self, t: SimTime) -> f64 {
        self.factors[t.hour_of_day() as usize]
    }

    /// Maximum factor (needed for thinning).
    pub fn max_factor(&self) -> f64 {
        self.factors.iter().copied().fold(0.0, f64::max)
    }
}

/// A (possibly inhomogeneous) Poisson arrival process.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    /// Base rate in events per second.
    rate_per_sec: f64,
    profile: DiurnalProfile,
    /// Optional exponential decay half-life for the base rate, measured
    /// from `origin` — models Figure 6's post-blast click decay.
    decay_half_life: Option<SimDuration>,
    origin: SimTime,
}

impl PoissonProcess {
    /// Homogeneous process at `rate_per_hour`.
    pub fn homogeneous(rate_per_hour: f64) -> Self {
        PoissonProcess {
            rate_per_sec: rate_per_hour / HOUR as f64,
            profile: DiurnalProfile::flat(),
            decay_half_life: None,
            origin: SimTime::EPOCH,
        }
    }

    /// Add a diurnal modulation profile.
    pub fn with_profile(mut self, profile: DiurnalProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Add exponential decay of the base rate with the given half-life
    /// from `origin`.
    pub fn with_decay(mut self, half_life: SimDuration, origin: SimTime) -> Self {
        self.decay_half_life = Some(half_life);
        self.origin = origin;
        self
    }

    /// Instantaneous rate (events/second) at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mut r = self.rate_per_sec * self.profile.factor_at(t);
        if let Some(hl) = self.decay_half_life {
            let elapsed = t.since(self.origin).as_secs() as f64;
            r *= 0.5f64.powf(elapsed / hl.as_secs() as f64);
        }
        r
    }

    /// Draw the next arrival strictly after `t` using Lewis–Shedler
    /// thinning. Returns `None` if the rate has decayed so far that no
    /// arrival is expected within `horizon`.
    pub fn next_after(
        &self,
        t: SimTime,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        // Upper bound on the rate over [t, horizon].
        let mut rate_max = self.rate_per_sec * self.profile.max_factor();
        if let Some(hl) = self.decay_half_life {
            let elapsed = t.since(self.origin).as_secs() as f64;
            rate_max *= 0.5f64.powf(elapsed / hl.as_secs() as f64);
        }
        if rate_max <= 0.0 {
            return None;
        }
        let mut cursor = t;
        // Bounded iterations: expected thinning acceptance is
        // rate/rate_max; 100k candidate draws is far beyond any workload
        // here and guards against pathological parameters.
        for _ in 0..100_000 {
            let step = rng.exponential(1.0 / rate_max).ceil().max(1.0) as u64;
            cursor = cursor.plus(SimDuration::from_secs(step));
            if cursor > horizon {
                return None;
            }
            if rng.f64() * rate_max <= self.rate_at(cursor) {
                return Some(cursor);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::DAY;

    #[test]
    fn flat_profile_is_unit() {
        let p = DiurnalProfile::flat();
        for h in 0..24 {
            assert_eq!(p.factor_at(SimTime::from_secs(h * HOUR)), 1.0);
        }
        assert_eq!(p.max_factor(), 1.0);
    }

    #[test]
    fn human_profile_peaks_afternoon() {
        let p = DiurnalProfile::human(0);
        let peak = p.factor_at(SimTime::from_secs(14 * HOUR));
        let trough = p.factor_at(SimTime::from_secs(2 * HOUR));
        assert!(peak > 1.3, "peak {peak}");
        assert!(trough < 0.7, "trough {trough}");
        // Normalized to mean 1.
        let mean: f64 = (0..24)
            .map(|h| p.factor_at(SimTime::from_secs(h * HOUR)))
            .sum::<f64>()
            / 24.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn human_profile_respects_timezone() {
        // UTC+8: local 14:00 peak is at 06:00 UTC.
        let p = DiurnalProfile::human(8);
        let at_6 = p.factor_at(SimTime::from_secs(6 * HOUR));
        let at_14 = p.factor_at(SimTime::from_secs(14 * HOUR));
        assert!(at_6 > at_14);
    }

    #[test]
    fn sampled_arrivals_match_expected_rate() {
        let p = PoissonProcess::homogeneous(30.0);
        let mut rng = SimRng::from_seed(101);
        let horizon = SimTime::from_secs(2 * DAY);
        let mut t = SimTime::EPOCH;
        let mut n = 0;
        while let Some(next) = p.next_after(t, horizon, &mut rng) {
            n += 1;
            t = next;
        }
        let expected: f64 = 30.0 * 48.0;
        let sd = expected.sqrt();
        assert!(
            (n as f64 - expected).abs() < 5.0 * sd,
            "got {n}, expected ~{expected}"
        );
    }

    #[test]
    fn decay_halves_rate_each_half_life() {
        let origin = SimTime::EPOCH;
        let p = PoissonProcess::homogeneous(100.0)
            .with_decay(SimDuration::from_hours(5), origin);
        let r0 = p.rate_at(origin);
        let r5 = p.rate_at(SimTime::from_secs(5 * HOUR));
        let r10 = p.rate_at(SimTime::from_secs(10 * HOUR));
        assert!((r5 / r0 - 0.5).abs() < 1e-9);
        assert!((r10 / r0 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn decayed_process_eventually_stops() {
        let p = PoissonProcess::homogeneous(50.0)
            .with_decay(SimDuration::from_hours(2), SimTime::EPOCH);
        let mut rng = SimRng::from_seed(7);
        let horizon = SimTime::from_secs(30 * DAY);
        let mut t = SimTime::EPOCH;
        let mut count = 0u32;
        while let Some(next) = p.next_after(t, horizon, &mut rng) {
            t = next;
            count += 1;
            assert!(count < 10_000, "decay failed to damp the process");
        }
        // Total expected count for rate 50/h with 2h half-life is
        // 50 * 2/ln2 ≈ 144.
        assert!(count > 60 && count < 400, "count {count}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let p = PoissonProcess::homogeneous(600.0);
        let mut rng = SimRng::from_seed(3);
        let horizon = SimTime::from_secs(DAY);
        let mut t = SimTime::EPOCH;
        while let Some(next) = p.next_after(t, horizon, &mut rng) {
            assert!(next > t);
            t = next;
        }
    }
}
