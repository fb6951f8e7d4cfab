//! Office-hours and availability schedules.
//!
//! §5.5 of the paper ("Manual Hijacking — an Ordinary Office Job?")
//! observed that hijacker crews start around the same time every day,
//! take a synchronized one-hour lunch break, and are largely inactive on
//! weekends. [`Schedule`] encodes exactly that availability pattern in
//! the crew's local timezone.

use mhw_types::SimTime;

/// Daily working window in local hours, with an optional lunch break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfficeHours {
    /// First working hour (local), inclusive, e.g. 9.
    pub start_hour: u32,
    /// Last working hour (local), exclusive, e.g. 18.
    pub end_hour: u32,
    /// Lunch break start (local hour), if the schedule has one.
    pub lunch_hour: Option<u32>,
}

impl OfficeHours {
    /// The paper's crew pattern: 9:00–18:00 with a 13:00 lunch hour.
    pub fn crew_default() -> Self {
        OfficeHours { start_hour: 9, end_hour: 18, lunch_hour: Some(13) }
    }

    /// Whether `local_hour` falls inside the working window.
    pub fn is_working_hour(&self, local_hour: u32) -> bool {
        if let Some(lunch) = self.lunch_hour {
            if local_hour == lunch {
                return false;
            }
        }
        if self.start_hour <= self.end_hour {
            (self.start_hour..self.end_hour).contains(&local_hour)
        } else {
            // Overnight window (e.g. 22–06) — not used by crews but
            // supported for night-shift user models.
            local_hour >= self.start_hour || local_hour < self.end_hour
        }
    }
}

/// A full weekly availability schedule in a fixed timezone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub hours: OfficeHours,
    /// Whole-hour UTC offset of the schedule's local timezone.
    pub utc_offset_hours: i32,
    /// Whether weekends are worked. Paper crews: no.
    pub works_weekends: bool,
}

impl Schedule {
    /// A crew schedule in the given timezone (9–18 local, lunch at 13,
    /// weekends off).
    pub fn crew(utc_offset_hours: i32) -> Self {
        Schedule {
            hours: OfficeHours::crew_default(),
            utc_offset_hours,
            works_weekends: false,
        }
    }

    /// Is the schedule active at instant `t`?
    pub fn is_active(&self, t: SimTime) -> bool {
        if !self.works_weekends && t.local_weekday(self.utc_offset_hours).is_weekend() {
            return false;
        }
        self.hours.is_working_hour(t.local_hour(self.utc_offset_hours))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::{DAY, HOUR};

    fn at(day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(day * DAY + hour * HOUR)
    }

    #[test]
    fn crew_hours_window() {
        let h = OfficeHours::crew_default();
        assert!(!h.is_working_hour(8));
        assert!(h.is_working_hour(9));
        assert!(h.is_working_hour(12));
        assert!(!h.is_working_hour(13)); // lunch
        assert!(h.is_working_hour(14));
        assert!(h.is_working_hour(17));
        assert!(!h.is_working_hour(18));
    }

    #[test]
    fn overnight_window() {
        let h = OfficeHours { start_hour: 22, end_hour: 6, lunch_hour: None };
        assert!(h.is_working_hour(23));
        assert!(h.is_working_hour(3));
        assert!(!h.is_working_hour(12));
    }

    #[test]
    fn crew_inactive_on_weekend() {
        let s = Schedule::crew(0);
        // Day 5 from Monday epoch is Saturday.
        assert!(!s.is_active(at(5, 10)));
        assert!(!s.is_active(at(6, 10)));
        assert!(s.is_active(at(4, 10))); // Friday 10:00
    }

    #[test]
    fn crew_lunch_break_observed() {
        let s = Schedule::crew(0);
        assert!(s.is_active(at(0, 12)));
        assert!(!s.is_active(at(0, 13)));
        assert!(s.is_active(at(0, 14)));
    }

    #[test]
    fn timezone_shifts_window() {
        // A UTC+8 crew (China) working 9–18 local is active 01:00–10:00 UTC.
        let s = Schedule::crew(8);
        assert!(s.is_active(at(0, 2))); // 10:00 local
        assert!(!s.is_active(at(0, 12))); // 20:00 local
    }
}
