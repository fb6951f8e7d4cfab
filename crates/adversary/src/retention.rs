//! Account-retention tactics and their evolution.
//!
//! §5.4's longitudinal comparison (600 Oct-2011 cases vs 575 Nov-2012
//! cases) shows tactics responding to defender counter-moves:
//!
//! * mass email deletion after a password change: **46% → 1.6%** (the
//!   provider added content restore to recovery, so deletion stopped
//!   paying);
//! * hijacker-initiated recovery-option changes: **60% → 21%**;
//! * in the 2012 sample, **15%** of accounts had hijacker forwarding
//!   rules/filters and **26%** a hijacker Reply-To;
//! * the 2FA-lockout tactic (enrolling the crew's own burner phone)
//!   appears *only* in the 2012 era, briefly, and only among the
//!   African crews (§7: China/Malaysia "didn't try to use second factor
//!   enabling").


/// Which behavioural era a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Era {
    /// October 2011: aggressive lockout, mass deletion pays off.
    Y2011,
    /// November 2012: deletion abandoned, stealth tactics and the brief
    /// 2FA-lockout experiment.
    Y2012,
}

/// Per-era tactic probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionTactics {
    /// P(change the password) — the basic lockout.
    pub p_password_change: f64,
    /// P(change recovery options) given the crew exploits the account.
    pub p_recovery_change: f64,
    /// P(mass-delete mail and contacts | password changed).
    pub p_mass_delete_given_lockout: f64,
    /// P(install a forwarding/hiding filter).
    pub p_filter: f64,
    /// P(set a doppelganger Reply-To).
    pub p_reply_to: f64,
    /// P(attempt the 2FA lockout with a burner phone) — 2012-only, and
    /// only for crews whose `uses_2fa_lockout` flag is set.
    pub p_twofactor_lockout: f64,
}

impl RetentionTactics {
    /// Tactics for an era, calibrated to §5.4.
    pub fn for_era(era: Era) -> Self {
        match era {
            Era::Y2011 => RetentionTactics {
                p_password_change: 0.60,
                p_recovery_change: 0.60,
                p_mass_delete_given_lockout: 0.46,
                p_filter: 0.05,
                p_reply_to: 0.10,
                p_twofactor_lockout: 0.0,
            },
            Era::Y2012 => RetentionTactics {
                p_password_change: 0.50,
                p_recovery_change: 0.21,
                p_mass_delete_given_lockout: 0.016,
                p_filter: 0.15,
                p_reply_to: 0.26,
                p_twofactor_lockout: 0.08,
            },
        }
    }
}

/// What a crew actually did to one account (per-incident ground truth
/// for the §5.4 measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// The crew changed the password (the §5.4 lockout).
    pub password_changed: bool,
    /// The crew changed recovery phone/email.
    pub recovery_options_changed: bool,
    /// The crew mass-deleted the mailbox.
    pub mass_deleted: bool,
    /// The crew installed a forwarding/hiding filter.
    pub filter_created: bool,
    /// The crew set a doppelganger Reply-To.
    pub reply_to_set: bool,
    /// The crew enrolled 2FA on a burner phone (2012 tactic).
    pub twofactor_locked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_2011_deletes_era_2012_does_not() {
        let t11 = RetentionTactics::for_era(Era::Y2011);
        let t12 = RetentionTactics::for_era(Era::Y2012);
        assert!((t11.p_mass_delete_given_lockout - 0.46).abs() < 1e-9);
        assert!((t12.p_mass_delete_given_lockout - 0.016).abs() < 1e-9);
        assert!(t11.p_mass_delete_given_lockout > 20.0 * t12.p_mass_delete_given_lockout);
    }

    #[test]
    fn recovery_change_drops_60_to_21() {
        assert!((RetentionTactics::for_era(Era::Y2011).p_recovery_change - 0.60).abs() < 1e-9);
        assert!((RetentionTactics::for_era(Era::Y2012).p_recovery_change - 0.21).abs() < 1e-9);
    }

    #[test]
    fn stealth_tactics_rise_in_2012() {
        let t11 = RetentionTactics::for_era(Era::Y2011);
        let t12 = RetentionTactics::for_era(Era::Y2012);
        assert!(t12.p_filter > t11.p_filter);
        assert!(t12.p_reply_to > t11.p_reply_to);
        assert!((t12.p_filter - 0.15).abs() < 1e-9);
        assert!((t12.p_reply_to - 0.26).abs() < 1e-9);
    }

    #[test]
    fn twofactor_lockout_is_2012_only() {
        assert_eq!(RetentionTactics::for_era(Era::Y2011).p_twofactor_lockout, 0.0);
        assert!(RetentionTactics::for_era(Era::Y2012).p_twofactor_lockout > 0.0);
    }
}
