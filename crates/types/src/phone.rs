//! Phone numbers.
//!
//! Figure 12 attributes hijackers by the country code of phone numbers
//! they registered while enabling 2-step verification on victim accounts
//! (a short-lived 2012 lockout tactic). A phone number here is an
//! international prefix plus a national subscriber number.

use crate::geo::CountryCode;
use std::fmt;

/// An E.164-style phone number: `+<prefix> <national>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhoneNumber {
    prefix: u16,
    national: u64,
}

impl PhoneNumber {
    /// Construct a number in `country`'s dialling plan.
    pub fn new(country: CountryCode, national: u64) -> Self {
        PhoneNumber { prefix: country.phone_prefix(), national }
    }

    /// International dialling prefix.
    pub fn prefix(&self) -> u16 {
        self.prefix
    }

    /// National subscriber number.
    pub fn national(&self) -> u64 {
        self.national
    }

    /// Attribute the number to a country by its dialling prefix — exactly
    /// the mapping used to produce Figure 12.
    pub fn country(&self) -> Option<CountryCode> {
        CountryCode::from_phone_prefix(self.prefix)
    }
}

impl fmt::Display for PhoneNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}{:08}", self.prefix, self.national)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_carries_country_prefix() {
        let p = PhoneNumber::new(CountryCode::NG, 80312345);
        assert_eq!(p.prefix(), 234);
        assert_eq!(p.country(), Some(CountryCode::NG));
    }

    #[test]
    fn unknown_prefix_has_no_country() {
        let p = PhoneNumber { prefix: 999, national: 1234 };
        assert_eq!(p.country(), None);
    }

    #[test]
    fn display_is_e164_like() {
        let p = PhoneNumber::new(CountryCode::CI, 7654321);
        assert_eq!(p.to_string(), "+22507654321");
    }

    #[test]
    fn nanp_numbers_attribute_to_us() {
        // US and Canada share +1; coarse prefix attribution yields US.
        let p = PhoneNumber::new(CountryCode::CA, 5551234);
        assert_eq!(p.country(), Some(CountryCode::US));
    }
}
