//! Credential dropboxes.
//!
//! Phishing pages deliver captured credentials to a *dropbox* (in the
//! wild, typically a free webmail account — Moore & Clayton's phishing
//! dropboxes, cited as \[19\] in the paper). Crews drain their dropbox
//! during working hours. Two properties matter for the measurements:
//!
//! * queueing: credentials submitted outside crew hours wait, producing
//!   the long tail of the Figure 7 access-delay CDF;
//! * suspension: dropboxes get suspended (the paper cites this as a
//!   reason "not all of the decoy accounts were accessed"), losing the
//!   credentials still queued in them.

use mhw_types::{CountryCode, CrewId, EmailAddress, PageId, SimTime};
use std::collections::VecDeque;

/// How faithfully the victim typed their real password into the form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CredentialExactness {
    /// Exactly the real password.
    Exact,
    /// A trivial variant (typo, case slip, dropped trailing digit) —
    /// crews recover these by retrying (§5.1's 75%-correct figure).
    TrivialVariant,
    /// Garbage (victim typed a wrong/fake password).
    Wrong,
}

/// One captured credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedCredential {
    pub address: EmailAddress,
    /// The literal string the victim typed.
    pub password_typed: String,
    pub exactness: CredentialExactness,
    pub page: PageId,
    pub captured_at: SimTime,
    /// The country the victim submitted from — phishing pages see the
    /// victim's IP, and crews use it to pick a plausible login proxy
    /// (the "IP cloaking services" of §8.1).
    pub victim_country: Option<CountryCode>,
    /// Decoy credentials are honeypots injected by the defender
    /// (Dataset 4); ground truth for the Figure 7 experiment.
    pub is_decoy: bool,
}

/// A crew's credential dropbox (FIFO queue with suspension).
#[derive(Debug, Clone)]
pub struct Dropbox {
    pub crew: CrewId,
    queue: VecDeque<CapturedCredential>,
    suspended_at: Option<SimTime>,
    /// Count of credentials lost to suspension.
    lost: usize,
    total_received: usize,
}

impl Dropbox {
    pub fn new(crew: CrewId) -> Self {
        Dropbox {
            crew,
            queue: VecDeque::new(),
            suspended_at: None,
            lost: 0,
            total_received: 0,
        }
    }

    /// Whether the dropbox still receives mail at `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        self.suspended_at.map(|s| t < s).unwrap_or(true)
    }

    /// Deliver a captured credential. Returns `false` (and drops it) if
    /// the dropbox is suspended.
    pub fn deliver(&mut self, credential: CapturedCredential) -> bool {
        if !self.is_active(credential.captured_at) {
            self.lost += 1;
            return false;
        }
        self.total_received += 1;
        self.queue.push_back(credential);
        true
    }

    /// Suspend the dropbox at `t`; credentials still queued are lost
    /// (the provider hosting the dropbox wiped the account).
    pub fn suspend(&mut self, t: SimTime) {
        if self.suspended_at.is_none() {
            self.suspended_at = Some(t);
            self.lost += self.queue.len();
            self.queue.clear();
        }
    }

    /// Pop the oldest credential (crew work loop).
    pub fn pop(&mut self) -> Option<CapturedCredential> {
        self.queue.pop_front()
    }

    /// Peek without consuming.
    pub fn peek(&self) -> Option<&CapturedCredential> {
        self.queue.front()
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    pub fn lost(&self) -> usize {
        self.lost
    }

    pub fn total_received(&self) -> usize {
        self.total_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred(at: u64, local: &str) -> CapturedCredential {
        CapturedCredential {
            address: EmailAddress::new(local, "homemail.com"),
            password_typed: "hunter2".into(),
            exactness: CredentialExactness::Exact,
            page: PageId(0),
            captured_at: SimTime::from_secs(at),
            victim_country: None,
            is_decoy: false,
        }
    }

    #[test]
    fn fifo_order() {
        let mut d = Dropbox::new(CrewId(0));
        assert!(d.deliver(cred(1, "a")));
        assert!(d.deliver(cred(2, "b")));
        assert_eq!(d.pop().unwrap().address.local(), "a");
        assert_eq!(d.pop().unwrap().address.local(), "b");
        assert!(d.pop().is_none());
    }

    #[test]
    fn suspension_drops_queued_and_future() {
        let mut d = Dropbox::new(CrewId(0));
        d.deliver(cred(1, "a"));
        d.deliver(cred(2, "b"));
        d.suspend(SimTime::from_secs(10));
        assert_eq!(d.pending(), 0);
        assert_eq!(d.lost(), 2);
        // Later deliveries bounce.
        assert!(!d.deliver(cred(20, "c")));
        assert_eq!(d.lost(), 3);
        // Deliveries timestamped before suspension still land (mail in
        // flight), matching is_active semantics.
        assert!(d.deliver(cred(5, "d")));
    }

    #[test]
    fn suspend_is_idempotent() {
        let mut d = Dropbox::new(CrewId(0));
        d.deliver(cred(1, "a"));
        d.suspend(SimTime::from_secs(10));
        let lost = d.lost();
        d.suspend(SimTime::from_secs(20));
        assert_eq!(d.lost(), lost);
        assert!(!d.is_active(SimTime::from_secs(15)));
    }

    #[test]
    fn counters_track() {
        let mut d = Dropbox::new(CrewId(0));
        d.deliver(cred(1, "a"));
        d.deliver(cred(2, "b"));
        assert_eq!(d.total_received(), 2);
        assert_eq!(d.pending(), 2);
        assert_eq!(d.peek().unwrap().address.local(), "a");
        d.pop();
        assert_eq!(d.total_received(), 2);
        assert_eq!(d.pending(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Deliveries pop in FIFO order regardless of interleaved pops,
        /// and the conservation law received = popped + pending + lost
        /// always holds.
        #[test]
        fn fifo_and_conservation(ops in proptest::collection::vec(0u8..3, 1..100)) {
            let mut d = Dropbox::new(CrewId(0));
            let mut delivered_order = Vec::new();
            let mut popped = Vec::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    0 | 1 => {
                        let c = CapturedCredential {
                            address: EmailAddress::new(format!("v{seq}"), "homemail.com"),
                            password_typed: "pw".into(),
                            exactness: CredentialExactness::Exact,
                            page: PageId(0),
                            captured_at: SimTime::from_secs(seq),
                            victim_country: None,
                            is_decoy: false,
                        };
                        seq += 1;
                        if d.deliver(c.clone()) {
                            delivered_order.push(c.address);
                        }
                    }
                    _ => {
                        if let Some(c) = d.pop() {
                            popped.push(c.address);
                        }
                    }
                }
            }
            // FIFO: popped is a prefix of delivered_order.
            prop_assert_eq!(&popped[..], &delivered_order[..popped.len()]);
            // Conservation.
            prop_assert_eq!(
                d.total_received(),
                popped.len() + d.pending()
            );
        }

        /// After suspension, nothing is ever delivered again and pending
        /// drops to zero.
        #[test]
        fn suspension_is_final(n_before in 0u64..20, n_after in 1u64..20) {
            let mut d = Dropbox::new(CrewId(1));
            let mk = |i: u64| CapturedCredential {
                address: EmailAddress::new(format!("c{i}"), "homemail.com"),
                password_typed: "pw".into(),
                exactness: CredentialExactness::Exact,
                page: PageId(0),
                captured_at: SimTime::from_secs(1000 + i),
                victim_country: None,
                is_decoy: false,
            };
            for i in 0..n_before {
                d.deliver(mk(i));
            }
            d.suspend(SimTime::from_secs(500));
            prop_assert_eq!(d.pending(), 0);
            for i in 0..n_after {
                prop_assert!(!d.deliver(mk(100 + i)));
            }
            prop_assert_eq!(d.lost() as u64, n_before + n_after);
        }
    }
}
