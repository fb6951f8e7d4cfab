//! Actor ground truth.
//!
//! Every mutating operation across the ecosystem — mail actions, logins,
//! settings changes — records *who* performed it. This ground truth is
//! used by the measurement pipeline (to label datasets) and by remission
//! (to revert hijacker changes); detection code in `mhw-defense` never
//! reads it, since real defenders do not have it.

use crate::ids::CrewId;

/// Who performed an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Actor {
    /// The legitimate account owner.
    Owner,
    /// A manual-hijacking crew operator.
    Hijacker(CrewId),
    /// An automated (botnet) hijacker — the taxonomy baseline.
    Bot,
    /// The provider itself (notifications, anti-abuse actions).
    System,
}

impl Actor {
    /// Whether the actor is any kind of hijacker (manual or automated).
    pub fn is_hijacker(self) -> bool {
        matches!(self, Actor::Hijacker(_) | Actor::Bot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hijacker_classification() {
        assert!(Actor::Hijacker(CrewId(0)).is_hijacker());
        assert!(Actor::Bot.is_hijacker());
        assert!(!Actor::Owner.is_hijacker());
        assert!(!Actor::System.is_hijacker());
    }
}
