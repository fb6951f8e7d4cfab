//! Phone number issuance.
//!
//! Users register recovery phone numbers; crews buy burner numbers in
//! their home countries (which is what makes Figure 12's country-code
//! attribution work — "the volume of phone numbers involved … is small
//! enough to corroborate our hypothesis that it is manual work and large
//! enough to point to organized groups").

use mhw_simclock::SimRng;
use mhw_types::{CountryCode, PhoneNumber};
use std::collections::HashSet;

/// A numbering plan that issues unique numbers per country.
#[derive(Debug, Clone, Default)]
pub struct PhonePlan {
    issued: HashSet<PhoneNumber>,
    counter: u64,
}

impl PhonePlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue a fresh number in `country`. National numbers are 8-digit
    /// and unique across the plan's lifetime.
    pub fn issue(&mut self, country: CountryCode, rng: &mut SimRng) -> PhoneNumber {
        loop {
            // Random 8-digit subscriber number, salted with a counter to
            // guarantee termination even under pathological RNG streaks.
            let national = 10_000_000 + (rng.below(89_999_999) + self.counter) % 90_000_000;
            self.counter += 1;
            let n = PhoneNumber::new(country, national);
            if self.issued.insert(n) {
                return n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issued_numbers_are_unique() {
        let mut plan = PhonePlan::new();
        let mut rng = SimRng::from_seed(6);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let n = plan.issue(CountryCode::NG, &mut rng);
            assert!(seen.insert(n), "duplicate number {n}");
        }
    }

    #[test]
    fn numbers_carry_country() {
        let mut plan = PhonePlan::new();
        let mut rng = SimRng::from_seed(7);
        let n = plan.issue(CountryCode::CI, &mut rng);
        assert_eq!(n.country(), Some(CountryCode::CI));
    }

    #[test]
    fn national_numbers_are_eight_digits() {
        let mut plan = PhonePlan::new();
        let mut rng = SimRng::from_seed(8);
        for _ in 0..100 {
            let n = plan.issue(CountryCode::ZA, &mut rng);
            assert!((10_000_000..100_000_000).contains(&n.national()));
        }
    }
}
