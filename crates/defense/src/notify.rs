//! User notifications.
//!
//! §8.2: "Triggering notifications on critical events is very effective
//! to thwart hijacking attempts and speed up the recovery process …
//! We notify our users upon account settings changes, blocked suspicious
//! logins, and unusual in-product activity for which we have high
//! confidence." Notifications go out over *independent* channels (SMS or
//! the secondary email) so a hijacker in control of the mailbox cannot
//! intercept them; their delivery success therefore depends on the
//! victim's recovery-option hygiene, which is what couples notification
//! quality to the Figure 9 recovery-latency distribution.

use mhw_identity::RecoveryOptions;
use mhw_obs::{MetricId, Registry};
use mhw_simclock::SimRng;
use mhw_types::{AccountId, Entry, LogStore, ShardId, SimTime};

/// Notification attempts fired (any channel, including none-on-file).
pub const M_NOTIFICATIONS_SENT: MetricId = MetricId("defense.notifications_sent");
/// Notifications that actually reached the user.
pub const M_NOTIFICATIONS_DELIVERED: MetricId = MetricId("defense.notifications_delivered");

/// The critical events that trigger a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotificationEvent {
    PasswordChanged,
    RecoveryOptionsChanged,
    SuspiciousLoginBlocked,
    UnusualActivity,
}

/// The independent channel used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotificationChannel {
    Sms,
    SecondaryEmail,
    /// No independent channel on file — the user will only find out by
    /// noticing the account broke.
    None,
}

/// One notification attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotificationRecord {
    pub at: SimTime,
    pub account: AccountId,
    pub event: NotificationEvent,
    pub channel: NotificationChannel,
    /// Whether it actually reached the user.
    pub delivered: bool,
}

/// The notification engine.
#[derive(Debug, Clone)]
pub struct NotificationEngine {
    log: LogStore<NotificationRecord>,
    metrics: Registry,
}

impl Default for NotificationEngine {
    fn default() -> Self {
        NotificationEngine {
            log: LogStore::default(),
            metrics: Registry::new()
                .with_counter(M_NOTIFICATIONS_SENT)
                .with_counter(M_NOTIFICATIONS_DELIVERED),
        }
    }
}

impl NotificationEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine owned by logical shard `shard`; its activity log
    /// entries carry the shard id for cross-shard merging.
    pub fn for_shard(shard: ShardId) -> Self {
        NotificationEngine {
            log: LogStore::for_shard(shard),
            ..Self::default()
        }
    }

    /// The engine's metrics registry (sent/delivered counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Fire a notification for `event`, choosing the best independent
    /// channel the account has. Returns the record (also appended to the
    /// engine's log).
    pub fn notify(
        &mut self,
        account: AccountId,
        event: NotificationEvent,
        options: &RecoveryOptions,
        at: SimTime,
        rng: &mut SimRng,
    ) -> NotificationRecord {
        let opts = options.get(account);
        let (channel, delivered) = if let Some(phone) = &opts.phone {
            (
                NotificationChannel::Sms,
                phone.up_to_date && rng.chance(phone.gateway_reliability),
            )
        } else if let Some(email) = &opts.email {
            // Mistyped or recycled secondary addresses never reach the
            // real user.
            (
                NotificationChannel::SecondaryEmail,
                !email.mistyped && !email.recycled && rng.chance(0.9),
            )
        } else {
            (NotificationChannel::None, false)
        };
        let record = NotificationRecord { at, account, event, channel, delivered };
        self.metrics.inc(M_NOTIFICATIONS_SENT);
        if delivered {
            self.metrics.inc(M_NOTIFICATIONS_DELIVERED);
        }
        self.log.append(at, record);
        record
    }

    /// The engine's notification log.
    pub fn log(&self) -> &LogStore<NotificationRecord> {
        &self.log
    }

    /// First delivered notification for an account at/after `since`
    /// (drives how fast the victim notices a hijack).
    pub fn first_delivered_after(
        &self,
        account: AccountId,
        since: SimTime,
    ) -> Option<Entry<'_, NotificationRecord>> {
        self.log
            .iter()
            .find(|r| r.account == account && r.at >= since && r.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_identity::{RecoveryEmail, RecoveryPhone};
    use mhw_types::{Actor, CountryCode, EmailAddress, PhoneNumber};

    fn options(phone: bool, up_to_date: bool, email: bool, broken_email: bool) -> RecoveryOptions {
        let mut o = RecoveryOptions::new();
        o.register(AccountId(0));
        o.init(
            AccountId(0),
            phone.then(|| RecoveryPhone {
                number: PhoneNumber::new(CountryCode::US, 55500077),
                up_to_date,
                gateway_reliability: 1.0,
            }),
            email.then(|| RecoveryEmail {
                address: EmailAddress::new("me", "backup.net"),
                verified: true,
                mistyped: broken_email,
                recycled: false,
            }),
            None,
        );
        let _ = Actor::Owner;
        o
    }

    #[test]
    fn sms_preferred_and_delivered() {
        let o = options(true, true, true, false);
        let mut e = NotificationEngine::new();
        let mut rng = SimRng::from_seed(1);
        let r = e.notify(AccountId(0), NotificationEvent::PasswordChanged, &o, SimTime::from_secs(5), &mut rng);
        assert_eq!(r.channel, NotificationChannel::Sms);
        assert!(r.delivered);
    }

    #[test]
    fn stale_phone_fails_delivery() {
        let o = options(true, false, false, false);
        let mut e = NotificationEngine::new();
        let mut rng = SimRng::from_seed(2);
        let r = e.notify(AccountId(0), NotificationEvent::UnusualActivity, &o, SimTime::from_secs(5), &mut rng);
        assert_eq!(r.channel, NotificationChannel::Sms);
        assert!(!r.delivered);
    }

    #[test]
    fn email_fallback_respects_hygiene() {
        let good = options(false, false, true, false);
        let bad = options(false, false, true, true);
        let mut e = NotificationEngine::new();
        let mut rng = SimRng::from_seed(3);
        let mut good_delivered = 0;
        for _ in 0..200 {
            if e.notify(AccountId(0), NotificationEvent::RecoveryOptionsChanged, &good, SimTime::from_secs(1), &mut rng).delivered {
                good_delivered += 1;
            }
            let r = e.notify(AccountId(0), NotificationEvent::RecoveryOptionsChanged, &bad, SimTime::from_secs(1), &mut rng);
            assert!(!r.delivered, "mistyped email must never deliver");
        }
        assert!(good_delivered > 150, "good email should mostly deliver: {good_delivered}");
    }

    #[test]
    fn no_channel_no_delivery() {
        let o = options(false, false, false, false);
        let mut e = NotificationEngine::new();
        let mut rng = SimRng::from_seed(4);
        let r = e.notify(AccountId(0), NotificationEvent::SuspiciousLoginBlocked, &o, SimTime::from_secs(1), &mut rng);
        assert_eq!(r.channel, NotificationChannel::None);
        assert!(!r.delivered);
    }

    #[test]
    fn first_delivered_lookup() {
        let o = options(true, true, false, false);
        let mut e = NotificationEngine::new();
        let mut rng = SimRng::from_seed(5);
        e.notify(AccountId(0), NotificationEvent::PasswordChanged, &o, SimTime::from_secs(10), &mut rng);
        e.notify(AccountId(0), NotificationEvent::UnusualActivity, &o, SimTime::from_secs(20), &mut rng);
        let hit = e.first_delivered_after(AccountId(0), SimTime::from_secs(15)).unwrap();
        assert_eq!(hit.at, SimTime::from_secs(20));
        assert!(e.first_delivered_after(AccountId(1), SimTime::from_secs(0)).is_none());
    }
}
