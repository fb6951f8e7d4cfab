//! Simulated time.
//!
//! The whole workspace runs on a single notion of time: [`SimTime`], an
//! absolute number of seconds since the *simulation epoch*, which is
//! defined as **Monday, 2012-01-02 00:00:00 UTC**. Using a Monday epoch
//! makes weekday arithmetic a simple modulo, which matters because the
//! paper's hijacker crews keep office hours and are "largely inactive over
//! the weekends" (§5.5).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One minute, in seconds.
pub const MINUTE: u64 = 60;
/// One hour, in seconds.
pub const HOUR: u64 = 60 * MINUTE;
/// One day, in seconds.
pub const DAY: u64 = 24 * HOUR;

/// A span of simulated time, in whole seconds.
///
/// Sub-second precision is never needed by the paper's measurements (the
/// finest-grained figure is minutes), so seconds keep every computation in
/// exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }
    /// A duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MINUTE)
    }
    /// A duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * HOUR)
    }
    /// A duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * DAY)
    }

    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
    /// Fractional hours (for reporting, e.g. recovery-latency ECDFs).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Saturating multiplication by a scalar.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < MINUTE {
            write!(f, "{s}s")
        } else if s < HOUR {
            write!(f, "{}m{:02}s", s / MINUTE, s % MINUTE)
        } else if s < DAY {
            write!(f, "{}h{:02}m", s / HOUR, (s % HOUR) / MINUTE)
        } else {
            write!(f, "{}d{:02}h", s / DAY, (s % DAY) / HOUR)
        }
    }
}

/// Days of the week. The simulation epoch is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays in order, starting from Monday (the epoch weekday).
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Whether this is a Saturday or Sunday. Hijacker crews in the paper
    /// were "largely inactive over the weekends".
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// An absolute instant of simulated time: seconds since the epoch
/// (Monday 2012-01-02 00:00:00 UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (Monday 00:00 UTC).
    pub const EPOCH: SimTime = SimTime(0);

    /// The instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }
    /// Seconds elapsed since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`; saturates to zero if `earlier` is in
    /// the future (callers comparing log records should never rely on
    /// negative spans).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Day index since the epoch (day 0 is the epoch Monday).
    pub const fn day_index(self) -> u64 {
        self.0 / DAY
    }

    /// Seconds into the current UTC day.
    pub const fn seconds_into_day(self) -> u64 {
        self.0 % DAY
    }

    /// UTC hour of day, 0..24.
    pub const fn hour_of_day(self) -> u32 {
        (self.seconds_into_day() / HOUR) as u32
    }

    /// Local hour of day for a timezone expressed as a whole-hour UTC
    /// offset (may be negative, e.g. Venezuela at −4).
    pub fn local_hour(self, utc_offset_hours: i32) -> u32 {
        let h = self.hour_of_day() as i32 + utc_offset_hours;
        h.rem_euclid(24) as u32
    }

    /// Local weekday for a whole-hour UTC offset.
    pub fn local_weekday(self, utc_offset_hours: i32) -> Weekday {
        let total_hours = self.0 as i64 / HOUR as i64 + utc_offset_hours as i64;
        let day = (total_hours.div_euclid(24)).rem_euclid(7) as usize;
        Weekday::ALL[day]
    }

    /// The instant `d` later.
    pub const fn plus(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day_index(),
            self.hour_of_day(),
            (self.0 % HOUR) / MINUTE,
            self.0 % MINUTE
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monday() {
        assert_eq!(SimTime::EPOCH.local_weekday(0), Weekday::Monday);
        assert!(!SimTime::EPOCH.local_weekday(0).is_weekend());
    }

    #[test]
    fn weekday_cycles() {
        for (i, wd) in Weekday::ALL.iter().enumerate() {
            let t = SimTime::from_secs(i as u64 * DAY + 5 * HOUR);
            assert_eq!(t.local_weekday(0), *wd);
        }
        // Day 7 wraps back to Monday.
        assert_eq!(SimTime::from_secs(7 * DAY).local_weekday(0), Weekday::Monday);
    }

    #[test]
    fn weekend_detection() {
        assert!(SimTime::from_secs(5 * DAY).local_weekday(0).is_weekend()); // Saturday
        assert!(SimTime::from_secs(6 * DAY).local_weekday(0).is_weekend()); // Sunday
        assert!(!SimTime::from_secs(4 * DAY).local_weekday(0).is_weekend()); // Friday
    }

    #[test]
    fn local_hour_positive_offset() {
        // 23:00 UTC at UTC+8 (China) is 07:00 next day.
        let t = SimTime::from_secs(23 * HOUR);
        assert_eq!(t.local_hour(8), 7);
    }

    #[test]
    fn local_hour_negative_offset() {
        // 02:00 UTC at UTC-4 (Venezuela) is 22:00 the previous day.
        let t = SimTime::from_secs(2 * HOUR);
        assert_eq!(t.local_hour(-4), 22);
    }

    #[test]
    fn local_weekday_crosses_midnight() {
        // Epoch Monday 23:00 UTC at UTC+8 is already Tuesday locally.
        let t = SimTime::from_secs(23 * HOUR);
        assert_eq!(t.local_weekday(8), Weekday::Tuesday);
        // Epoch Monday 02:00 UTC at UTC-4 is still Sunday locally.
        let t2 = SimTime::from_secs(2 * HOUR);
        assert_eq!(t2.local_weekday(-4), Weekday::Sunday);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(200);
        assert_eq!(b.since(a), SimDuration::from_secs(100));
        assert_eq!(a.since(b), SimDuration(0));
    }

    #[test]
    fn duration_display_forms() {
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
        assert_eq!(SimDuration::from_secs(62).to_string(), "1m02s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h00m");
        assert_eq!(SimDuration::from_days(2).to_string(), "2d00h");
    }

    #[test]
    fn duration_unit_conversions() {
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert!((SimDuration::from_secs(HOUR / 2).as_hours_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn day_index_floors() {
        let t = SimTime::from_secs(3 * DAY + 7 * HOUR + 123);
        assert_eq!(t.day_index(), 3);
    }

    #[test]
    fn time_display() {
        let t = SimTime::from_secs(DAY + 2 * HOUR + 3 * MINUTE + 4);
        assert_eq!(t.to_string(), "d1+02:03:04");
    }
}
