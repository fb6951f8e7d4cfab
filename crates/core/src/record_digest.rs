//! The dataset digest's record encoder.
//!
//! [`ShardedRun::dataset_digest`](crate::ShardedRun::dataset_digest)
//! hashes every event-log entry as the text of
//! `format!("{:?}|{:?}", key, record)`. Formatting that text costs more
//! than hashing it, so [`RecordDigest`] feeds FNV-1a the same bytes
//! without building them: field names and punctuation are
//! [`Folded`] literals, integers are hashed digit by digit, and only
//! non-zero floats and strings that need escaping still go through
//! `fmt`, into one reused buffer.
//!
//! The encoder spells out the derived `Debug` output of [`LogKey`],
//! [`LoginRecord`], [`MailEvent`], [`NotificationRecord`] and every type
//! they contain. Records are destructured field by field and enums
//! matched without wildcards, so adding a field or a variant fails to
//! compile here; renaming or reordering one fails the tests below and
//! the reference-digest tests in `tests/sharding.rs`, which compare the
//! encoder against the formatted text.

use mhw_defense::{NotificationChannel, NotificationEvent, NotificationRecord};
use mhw_identity::{ChallengeKind, ChallengeResult, LoginOutcome, LoginRecord};
use mhw_mailsys::{Folder, MailEvent, MailEventKind};
use mhw_types::fnv::{fnv1a, Folded};
use mhw_types::{Actor, EmailAddress, LogKey};
use std::fmt::{self, Write as _};

/// A `&'static` [`Folded`] for a string literal, folded at compile time.
macro_rules! lit {
    ($s:literal) => {{
        static FOLDED: Folded = Folded::new($s.as_bytes());
        &FOLDED
    }};
}

/// An FNV-1a state that absorbs log entries as their `{:?}` text.
pub(crate) struct RecordDigest {
    hash: u64,
    /// Scratch text for the values that still go through `fmt`.
    buf: String,
}

impl RecordDigest {
    /// An encoder continuing from FNV-1a state `hash`.
    pub(crate) fn new(hash: u64) -> Self {
        RecordDigest { hash, buf: String::new() }
    }

    /// The FNV-1a state after everything absorbed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.hash
    }

    /// Absorb formatted text, for the rows the encoder does not spell out.
    pub(crate) fn formatted(&mut self, args: fmt::Arguments<'_>) {
        self.buf.clear();
        let _ = self.buf.write_fmt(args);
        self.hash = fnv1a(self.hash, self.buf.as_bytes());
    }

    /// Absorb `format!("{:?}|{:?}", key, record)`.
    pub(crate) fn login(&mut self, key: LogKey, record: &LoginRecord) {
        let LoginRecord {
            at,
            account,
            ip,
            device,
            actor,
            password_correct,
            risk_score,
            challenge,
            outcome,
            session,
        } = record;
        self.key(key);
        self.lit(lit!("LoginRecord { at: SimTime("));
        self.int(at.0);
        self.lit(lit!("), account: AccountId("));
        self.int(account.0.into());
        self.lit(lit!("), ip: IpAddr("));
        self.int(ip.0.into());
        self.lit(lit!("), device: DeviceId("));
        self.int(device.0.into());
        self.lit(lit!("), actor: "));
        self.actor(*actor);
        self.lit(lit!(", password_correct: "));
        self.bool(*password_correct);
        self.lit(lit!(", risk_score: "));
        self.float(*risk_score);
        self.lit(lit!(", challenge: "));
        match challenge {
            None => self.lit(lit!("None")),
            Some(ChallengeResult { kind, passed }) => {
                self.lit(lit!("Some(ChallengeResult { kind: "));
                self.lit(match kind {
                    ChallengeKind::SmsCode => lit!("SmsCode"),
                    ChallengeKind::Knowledge => lit!("Knowledge"),
                });
                self.lit(lit!(", passed: "));
                self.bool(*passed);
                self.lit(lit!(" })"));
            }
        }
        self.lit(lit!(", outcome: "));
        self.lit(match outcome {
            LoginOutcome::Success => lit!("Success"),
            LoginOutcome::WrongPassword => lit!("WrongPassword"),
            LoginOutcome::Blocked => lit!("Blocked"),
            LoginOutcome::ChallengeFailed => lit!("ChallengeFailed"),
            LoginOutcome::SecondFactorFailed => lit!("SecondFactorFailed"),
        });
        self.lit(lit!(", session: "));
        match session {
            None => self.lit(lit!("None")),
            Some(session) => {
                self.lit(lit!("Some(SessionId("));
                self.int(session.0.into());
                self.lit(lit!("))"));
            }
        }
        self.lit(lit!(" }"));
    }

    /// Absorb `format!("{:?}|{:?}", key, record)`.
    pub(crate) fn mail(&mut self, key: LogKey, record: &MailEvent) {
        let MailEvent { at, account, actor, kind } = record;
        self.key(key);
        self.lit(lit!("MailEvent { at: SimTime("));
        self.int(at.0);
        self.lit(lit!("), account: AccountId("));
        self.int(account.0.into());
        self.lit(lit!("), actor: "));
        self.actor(*actor);
        self.lit(lit!(", kind: "));
        match kind {
            MailEventKind::Sent { message, recipients } => {
                self.lit(lit!("Sent { message: MessageId("));
                self.int(message.0.into());
                self.lit(lit!("), recipients: "));
                self.int(*recipients as u64);
                self.lit(lit!(" }"));
            }
            MailEventKind::Delivered { message, spam_foldered } => {
                self.lit(lit!("Delivered { message: MessageId("));
                self.int(message.0.into());
                self.lit(lit!("), spam_foldered: "));
                self.bool(*spam_foldered);
                self.lit(lit!(" }"));
            }
            MailEventKind::Read { message } => {
                self.lit(lit!("Read { message: MessageId("));
                self.int(message.0.into());
                self.lit(lit!(") }"));
            }
            MailEventKind::Searched { query } => {
                self.lit(lit!("Searched { query: "));
                self.str(query);
                self.lit(lit!(" }"));
            }
            MailEventKind::FolderOpened { folder } => {
                self.lit(lit!("FolderOpened { folder: "));
                self.folder(*folder);
                self.lit(lit!(" }"));
            }
            MailEventKind::ContactsViewed { count } => {
                self.lit(lit!("ContactsViewed { count: "));
                self.int(*count as u64);
                self.lit(lit!(" }"));
            }
            MailEventKind::Purged { message } => {
                self.lit(lit!("Purged { message: MessageId("));
                self.int(message.0.into());
                self.lit(lit!(") }"));
            }
            MailEventKind::FilterCreated { filter } => {
                self.lit(lit!("FilterCreated { filter: FilterId("));
                self.int(filter.0.into());
                self.lit(lit!(") }"));
            }
            MailEventKind::FilterRemoved { filter } => {
                self.lit(lit!("FilterRemoved { filter: FilterId("));
                self.int(filter.0.into());
                self.lit(lit!(") }"));
            }
            MailEventKind::ReplyToChanged { to } => {
                self.lit(lit!("ReplyToChanged { to: "));
                match to {
                    None => self.lit(lit!("None")),
                    Some(address) => {
                        self.lit(lit!("Some("));
                        self.address(address);
                        self.lit(lit!(")"));
                    }
                }
                self.lit(lit!(" }"));
            }
            MailEventKind::ContactDeleted { address } => {
                self.lit(lit!("ContactDeleted { address: "));
                self.address(address);
                self.lit(lit!(" }"));
            }
            MailEventKind::ReportedSpam { message } => {
                self.lit(lit!("ReportedSpam { message: MessageId("));
                self.int(message.0.into());
                self.lit(lit!(") }"));
            }
        }
        self.lit(lit!(" }"));
    }

    /// Absorb `format!("{:?}|{:?}", key, record)`.
    pub(crate) fn notification(&mut self, key: LogKey, record: &NotificationRecord) {
        let NotificationRecord { at, account, event, channel, delivered } = record;
        self.key(key);
        self.lit(lit!("NotificationRecord { at: SimTime("));
        self.int(at.0);
        self.lit(lit!("), account: AccountId("));
        self.int(account.0.into());
        self.lit(lit!("), event: "));
        self.lit(match event {
            NotificationEvent::PasswordChanged => lit!("PasswordChanged"),
            NotificationEvent::RecoveryOptionsChanged => lit!("RecoveryOptionsChanged"),
            NotificationEvent::SuspiciousLoginBlocked => lit!("SuspiciousLoginBlocked"),
            NotificationEvent::UnusualActivity => lit!("UnusualActivity"),
        });
        self.lit(lit!(", channel: "));
        self.lit(match channel {
            NotificationChannel::Sms => lit!("Sms"),
            NotificationChannel::SecondaryEmail => lit!("SecondaryEmail"),
            NotificationChannel::None => lit!("None"),
        });
        self.lit(lit!(", delivered: "));
        self.bool(*delivered);
        self.lit(lit!(" }"));
    }

    /// `{:?}|` of a log key.
    fn key(&mut self, key: LogKey) {
        let LogKey { at, shard, seq } = key;
        self.lit(lit!("LogKey { at: SimTime("));
        self.int(at.0);
        self.lit(lit!("), shard: "));
        self.int(shard.into());
        self.lit(lit!(", seq: "));
        self.int(seq);
        self.lit(lit!(" }|"));
    }

    fn actor(&mut self, actor: Actor) {
        match actor {
            Actor::Owner => self.lit(lit!("Owner")),
            Actor::Hijacker(crew) => {
                self.lit(lit!("Hijacker(CrewId("));
                self.int(crew.0.into());
                self.lit(lit!("))"));
            }
            Actor::Bot => self.lit(lit!("Bot")),
            Actor::System => self.lit(lit!("System")),
        }
    }

    fn folder(&mut self, folder: Folder) {
        self.lit(match folder {
            Folder::Inbox => lit!("Inbox"),
            Folder::Starred => lit!("Starred"),
            Folder::Drafts => lit!("Drafts"),
            Folder::Sent => lit!("Sent"),
            Folder::Trash => lit!("Trash"),
            Folder::Spam => lit!("Spam"),
        });
    }

    fn address(&mut self, address: &EmailAddress) {
        self.lit(lit!("EmailAddress { local: "));
        self.str(address.local());
        self.lit(lit!(", domain: "));
        self.str(address.domain());
        self.lit(lit!(" }"));
    }

    fn lit(&mut self, folded: &Folded) {
        self.hash = folded.apply(self.hash);
    }

    fn bool(&mut self, b: bool) {
        self.lit(if b { lit!("true") } else { lit!("false") });
    }

    /// An unsigned integer's decimal digits, as `{:?}` writes them.
    fn int(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.hash = fnv1a(self.hash, &digits[start..]);
    }

    fn float(&mut self, x: f64) {
        if x == 0.0 {
            self.lit(if x.is_sign_negative() { lit!("-0.0") } else { lit!("0.0") });
        } else {
            self.formatted(format_args!("{x:?}"));
        }
    }

    /// `{:?}` of a string: quoted as is when every byte is printable
    /// ASCII other than `"` and `\`, escaped by `fmt` otherwise.
    fn str(&mut self, s: &str) {
        if s.bytes().all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') {
            self.hash = fnv1a(fnv1a(fnv1a(self.hash, b"\""), s.as_bytes()), b"\"");
        } else {
            self.formatted(format_args!("{s:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_simclock::SimRng;
    use mhw_types::{AccountId, CrewId, DeviceId, FilterId, IpAddr, MessageId, SessionId, SimTime};

    const STRINGS: [&str; 10] = [
        "",
        "wire transfer",
        "say \"hi\"",
        "back\\slash",
        "line\nbreak\ttab\r",
        "résumé",
        "e\u{301}",
        "\u{301}lead",
        "del\u{7f}",
        "nul\0 'quote'",
    ];

    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1e-7,
        0.1 + 0.2,
        1e16,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.5,
        1e15,
        -2.5e-300,
        f64::MAX,
    ];

    /// Random values for the record fields, with the extremes weighted in.
    struct Gen(SimRng);

    impl Gen {
        fn int(&mut self, max: u64) -> u64 {
            match self.0.below(4) {
                0 => 0,
                1 => max,
                _ => self.0.range_inclusive(0, max),
            }
        }
        fn u32(&mut self) -> u32 {
            self.int(u32::MAX.into()) as u32
        }
        fn flag(&mut self) -> bool {
            self.0.chance(0.5)
        }
        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            *self.0.choose(items).expect("non-empty")
        }
        fn float(&mut self) -> f64 {
            if self.flag() {
                self.pick(&FLOATS)
            } else {
                self.0.f64()
            }
        }
        fn string(&mut self) -> String {
            let n = self.0.below(3);
            (0..n).map(|_| self.pick(&STRINGS)).collect()
        }
        fn key(&mut self) -> LogKey {
            LogKey {
                at: SimTime(self.int(u64::MAX)),
                shard: self.int(u16::MAX.into()) as u16,
                seq: self.int(u64::MAX),
            }
        }
        /// The `i`-th record's actor: every variant in turn.
        fn actor(&mut self, i: usize) -> Actor {
            let crew = Actor::Hijacker(CrewId(self.u32()));
            [Actor::Owner, crew, Actor::Bot, Actor::System][i % 4]
        }
        fn address(&mut self) -> EmailAddress {
            // Parts are lower-cased by the constructor, never escaped away.
            EmailAddress::new(self.string(), self.string())
        }
    }

    fn logins(g: &mut Gen) -> Vec<LoginRecord> {
        let mut out = Vec::new();
        for outcome in [
            LoginOutcome::Success,
            LoginOutcome::WrongPassword,
            LoginOutcome::Blocked,
            LoginOutcome::ChallengeFailed,
            LoginOutcome::SecondFactorFailed,
        ] {
            for challenge in [
                None,
                Some(ChallengeResult { kind: ChallengeKind::SmsCode, passed: g.flag() }),
                Some(ChallengeResult { kind: ChallengeKind::Knowledge, passed: g.flag() }),
            ] {
                let session = Some(SessionId(g.u32())).filter(|_| out.len() % 2 == 0);
                out.push(LoginRecord {
                    at: SimTime(g.int(u64::MAX)),
                    account: AccountId(g.u32()),
                    ip: IpAddr(g.u32()),
                    device: DeviceId(g.u32()),
                    actor: g.actor(out.len()),
                    password_correct: g.flag(),
                    risk_score: g.float(),
                    challenge,
                    outcome,
                    session,
                });
            }
        }
        for (i, risk_score) in FLOATS.into_iter().enumerate() {
            out.push(LoginRecord { risk_score, ..out[i].clone() });
        }
        out
    }

    fn mail_events(g: &mut Gen) -> Vec<MailEvent> {
        let folders = Folder::ALL;
        let kinds = vec![
            MailEventKind::Sent { message: MessageId(g.u32()), recipients: g.int(u64::MAX) as usize },
            MailEventKind::Delivered { message: MessageId(g.u32()), spam_foldered: g.flag() },
            MailEventKind::Read { message: MessageId(g.u32()) },
            MailEventKind::Searched { query: g.string() },
            MailEventKind::FolderOpened { folder: g.pick(&folders) },
            MailEventKind::ContactsViewed { count: g.int(u64::MAX) as usize },
            MailEventKind::Purged { message: MessageId(g.u32()) },
            MailEventKind::FilterCreated { filter: FilterId(g.u32()) },
            MailEventKind::FilterRemoved { filter: FilterId(g.u32()) },
            MailEventKind::ReplyToChanged { to: None },
            MailEventKind::ReplyToChanged { to: Some(g.address()) },
            MailEventKind::ContactDeleted { address: g.address() },
            MailEventKind::ReportedSpam { message: MessageId(g.u32()) },
        ];
        let mut out: Vec<MailEvent> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| MailEvent {
                at: SimTime(g.int(u64::MAX)),
                account: AccountId(g.u32()),
                actor: g.actor(i),
                kind,
            })
            .collect();
        let extra = folders
            .into_iter()
            .map(|folder| MailEventKind::FolderOpened { folder })
            .chain(STRINGS.map(|query| MailEventKind::Searched { query: query.to_owned() }));
        for kind in extra {
            let actor = g.actor(out.len());
            out.push(MailEvent { at: SimTime(0), account: AccountId(0), actor, kind });
        }
        out
    }

    fn notifications(g: &mut Gen) -> Vec<NotificationRecord> {
        let mut out = Vec::new();
        for event in [
            NotificationEvent::PasswordChanged,
            NotificationEvent::RecoveryOptionsChanged,
            NotificationEvent::SuspiciousLoginBlocked,
            NotificationEvent::UnusualActivity,
        ] {
            for channel in [
                NotificationChannel::Sms,
                NotificationChannel::SecondaryEmail,
                NotificationChannel::None,
            ] {
                out.push(NotificationRecord {
                    at: SimTime(g.int(u64::MAX)),
                    account: AccountId(g.u32()),
                    event,
                    channel,
                    delivered: g.flag(),
                });
            }
        }
        out
    }

    fn reference(h: u64, key: LogKey, record: &impl fmt::Debug) -> u64 {
        fnv1a(h, format!("{key:?}|{record:?}").as_bytes())
    }

    proptest::proptest! {
        /// Every variant of every hashed record, with extreme, escaped
        /// and awkward field values, encodes to the bytes of its
        /// `{:?}` text from any starting state.
        #[test]
        fn encoder_matches_the_formatted_text(seed in 0u64..=u64::MAX, h in 0u64..=u64::MAX) {
            let mut g = Gen(SimRng::from_seed(seed));
            for record in logins(&mut g) {
                let key = g.key();
                let mut enc = RecordDigest::new(h);
                enc.login(key, &record);
                assert_eq!(enc.finish(), reference(h, key, &record), "{record:?}");
            }
            for record in mail_events(&mut g) {
                let key = g.key();
                let mut enc = RecordDigest::new(h);
                enc.mail(key, &record);
                assert_eq!(enc.finish(), reference(h, key, &record), "{record:?}");
            }
            for record in notifications(&mut g) {
                let key = g.key();
                let mut enc = RecordDigest::new(h);
                enc.notification(key, &record);
                assert_eq!(enc.finish(), reference(h, key, &record), "{record:?}");
            }
        }
    }
}
