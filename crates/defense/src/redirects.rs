//! Doppelganger-redirect detection.
//!
//! §5.4: hijackers divert a victim's future mail to a "doppelganger"
//! account — "victim@yahoo is a doppelganger account for
//! victim@gmail" — via a Reply-To or a forward-all filter, and
//! "to efficiently counter those doppelganger tactics it is essential
//! during the account recovery process to have these settings reviewed
//! by the legitimate account owner or automatically cleared."
//!
//! This module is that review: given the owner's address and a redirect
//! target (filter forward destination or Reply-To), classify how
//! suspicious the redirect is. It is used by the recovery review
//! surface and exercised by the defense evaluation; the redirect
//! heuristics deliberately mirror what the crews' doppelganger
//! generator produces, the same adversarial pairing as the scam
//! generator/classifier.

use mhw_mailsys::{FilterAction, MailFilter};
use mhw_types::EmailAddress;

/// Verdict for one redirect target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedirectVerdict {
    /// Looks like an ordinary secondary address.
    Benign,
    /// Same local part at a different provider, or a near-typo local at
    /// the same provider — the §5.4 doppelganger patterns.
    Doppelganger,
    /// Lookalike domain (small edit distance to the owner's provider).
    LookalikeDomain,
}

impl RedirectVerdict {
    /// Whether the recovery flow should surface this redirect for
    /// review / auto-clearing.
    pub fn needs_review(self) -> bool {
        self != RedirectVerdict::Benign
    }
}

/// Levenshtein distance capped at `cap` (small strings only).
fn edit_distance_capped(a: &str, b: &str, cap: usize) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > cap {
        return cap + 1;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        let mut row_min = cur[0];
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            row_min = row_min.min(cur[j]);
        }
        if row_min > cap {
            return cap + 1;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Classify a redirect target against the owner's address.
pub fn classify_redirect(owner: &EmailAddress, target: &EmailAddress) -> RedirectVerdict {
    if owner == target {
        return RedirectVerdict::Benign; // self-redirects are no-ops
    }
    // Same or near-same local part at a *different* provider.
    if owner.domain() != target.domain() {
        let local_distance = edit_distance_capped(owner.local(), target.local(), 1);
        // Crews also append a character ("pat.doe" → "pat.doe1").
        let is_prefix_pad = target.local().starts_with(owner.local())
            && target.local().len() <= owner.local().len() + 2;
        if local_distance <= 1 || is_prefix_pad {
            return RedirectVerdict::Doppelganger;
        }
        // Lookalike provider domain (e.g. hornemail.com vs homemail.com).
        if edit_distance_capped(owner.domain(), target.domain(), 2) <= 2 {
            return RedirectVerdict::LookalikeDomain;
        }
        return RedirectVerdict::Benign;
    }
    // Same provider: a near-typo of the owner's local part.
    if edit_distance_capped(owner.local(), target.local(), 1) <= 1 {
        RedirectVerdict::Doppelganger
    } else {
        RedirectVerdict::Benign
    }
}

/// Review an account's filters: the external-forward targets that need
/// owner review, with verdicts. This is the §5.4 recovery checklist.
pub fn review_filters<'a>(
    owner: &EmailAddress,
    filters: impl IntoIterator<Item = &'a MailFilter>,
) -> Vec<(mhw_types::FilterId, RedirectVerdict)> {
    filters
        .into_iter()
        .filter_map(|f| {
            let target = match &f.action {
                FilterAction::ForwardTo(t) | FilterAction::ForwardAndTrash(t) => t,
                FilterAction::MoveTo(_) => return None,
            };
            Some((f.id, classify_redirect(owner, target)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::FilterId;

    fn addr(local: &str, domain: &str) -> EmailAddress {
        EmailAddress::new(local, domain)
    }

    #[test]
    fn paper_example_is_a_doppelganger() {
        // The paper's own example: same username, different provider.
        let owner = addr("victim.name", "gmail.example");
        let dopp = addr("victim.name", "yahoo.example");
        assert_eq!(classify_redirect(&owner, &dopp), RedirectVerdict::Doppelganger);
        assert!(classify_redirect(&owner, &dopp).needs_review());
    }

    #[test]
    fn crew_generated_doppelgangers_are_caught() {
        use mhw_adversary_doppelganger::doppelganger_for;
        use mhw_simclock::SimRng;
        let mut rng = SimRng::from_seed(7);
        let owner = addr("pat.doe", "homemail.com");
        for _ in 0..100 {
            let d = doppelganger_for(&owner, &mut rng);
            let verdict = classify_redirect(&owner, &d);
            assert!(
                verdict.needs_review(),
                "crew doppelganger {d} slipped review ({verdict:?})"
            );
        }
    }

    // Adversarial pairing: pull the crews' actual generator.
    mod mhw_adversary_doppelganger {
        pub use mhw_adversary::playbook::doppelganger_for;
    }

    #[test]
    fn typo_local_same_provider() {
        let owner = addr("patdoe", "homemail.com");
        assert_eq!(
            classify_redirect(&owner, &addr("patd0e", "homemail.com")),
            RedirectVerdict::Doppelganger
        );
    }

    #[test]
    fn lookalike_domain_detected() {
        let owner = addr("pat.doe", "homemail.com");
        assert_eq!(
            classify_redirect(&owner, &addr("totally.other", "hornemail.com")),
            RedirectVerdict::LookalikeDomain
        );
    }

    #[test]
    fn ordinary_secondary_addresses_are_benign() {
        let owner = addr("pat.doe", "homemail.com");
        for (l, d) in [
            ("pat.doe.backup2", "backup-mail.net"), // too different
            ("completely.different", "elsewhere.org"),
            ("workaccount", "corp.example.com"),
        ] {
            assert_eq!(
                classify_redirect(&owner, &addr(l, d)),
                RedirectVerdict::Benign,
                "{l}@{d}"
            );
        }
    }

    #[test]
    fn self_redirect_is_benign() {
        let owner = addr("pat", "homemail.com");
        assert_eq!(classify_redirect(&owner, &owner.clone()), RedirectVerdict::Benign);
    }

    #[test]
    fn filter_review_surfaces_forwards_only() {
        use mhw_mailsys::Folder;
        let owner = addr("pat.doe", "homemail.com");
        let filters = vec![
            MailFilter {
                id: FilterId(1),
                match_from: None,
                match_subject_contains: Some("news".into()),
                match_all: false,
                action: FilterAction::MoveTo(Folder::Trash),
            },
            MailFilter {
                id: FilterId(2),
                match_from: None,
                match_subject_contains: None,
                match_all: true,
                action: FilterAction::ForwardTo(addr("pat.doe", "freemail-intl.net")),
            },
        ];
        let review = review_filters(&owner, &filters);
        assert_eq!(review.len(), 1);
        assert_eq!(review[0].0, FilterId(2));
        assert!(review[0].1.needs_review());
    }

    #[test]
    fn edit_distance_cap_behaviour() {
        assert_eq!(edit_distance_capped("abc", "abc", 1), 0);
        assert_eq!(edit_distance_capped("abc", "abd", 1), 1);
        assert!(edit_distance_capped("abc", "xyz", 1) > 1);
        assert!(edit_distance_capped("short", "muchlongerstring", 2) > 2);
    }
}
