//! The hijack-session playbook.
//!
//! §5's observed workflow, as a state machine executed per captured
//! credential: **log in** (retrying trivial password variants, §5.1) →
//! **assess value** for ~3 minutes via searches, special folders and the
//! contact list (§5.2) → **exploit or abandon** (scam blasts, customized
//! scams, phishing blasts to contacts — §5.3, 15–20 minutes) → **retain**
//! (era-dependent lockout/stealth tactics, §5.4) → log out. The paper
//! stresses that hijackers "will not attempt to exploit accounts that
//! they deem not valuable enough"; the value threshold reproduces that
//! abandonment behaviour.

use crate::crew::Crew;
use crate::retention::RetentionReport;
use crate::scamgen::{generate_scam, ScamStyle};
use crate::terms::{SearchTermModel, TermCategory};
use crate::world::{Folder, HijackerWorld, LoginAttemptOutcome};
use mhw_netmodel::PhonePlan;
use mhw_obs::{buckets, MetricId, Registry};
use mhw_phishkit::{CapturedCredential, CredentialExactness};
use mhw_simclock::SimRng;
use mhw_types::{AccountId, EmailAddress, SimDuration, SimTime};

/// Hijack sessions run (one per credential picked off a dropbox).
pub const M_SESSIONS_RUN: MetricId = MetricId("adversary.sessions_run");
/// Sessions that reached the exploitation stage.
pub const M_SESSIONS_EXPLOITED: MetricId = MetricId("adversary.sessions_exploited");
/// Sessions cut short by anti-abuse action.
pub const M_SESSIONS_INTERRUPTED: MetricId = MetricId("adversary.sessions_interrupted");
/// Sessions run against defender decoy credentials.
pub const M_DECOY_SESSIONS: MetricId = MetricId("adversary.decoy_sessions");
/// Capture → session-start latency, simulated seconds (the Figure 7
/// "time to first access" reaction distribution).
pub const M_PICKUP_LATENCY_SECS: MetricId = MetricId("adversary.pickup_latency_secs");

/// How an exploited account was monetized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploitKind {
    /// Few messages, many recipients each (the 65% case).
    ScamBlast,
    /// Customized scams to fewer than 10 recipients (the 6% case).
    CustomScam,
    /// Phishing lures to the victim's contacts.
    PhishingBlast,
}

/// Everything that happened in one session (measurement ground truth).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The crew that ran the session.
    pub crew: mhw_types::CrewId,
    /// The address on the credential, as typed on the phishing page.
    pub address: EmailAddress,
    /// The provider account that address resolved to, if any.
    pub account: Option<AccountId>,
    /// When the operator picked the credential up.
    pub started_at: SimTime,
    /// When the session ended (logout, abandon, or interruption).
    pub ended_at: SimTime,
    /// Login attempts made, including trivial-variant retries.
    pub login_attempts: u32,
    /// Whether any attempt produced an authenticated session.
    pub logged_in: bool,
    /// Whether the crew (eventually) presented a correct password —
    /// §5.1's "75% of the time (including retries with trivial
    /// variants)".
    pub password_eventually_correct: bool,
    /// Seconds spent on the ~3-minute value assessment (§5.2).
    pub profiling_seconds: u64,
    /// Search terms issued during profiling (Table 3 categories).
    pub searches: Vec<String>,
    /// Folders opened during profiling.
    pub folders_opened: Vec<Folder>,
    /// Contacts enumerated for scam/phishing targeting.
    pub contacts_seen: usize,
    /// The assessed account value driving exploit-or-abandon.
    pub value_score: f64,
    /// Whether the crew went past profiling into exploitation.
    pub exploited: bool,
    /// Which exploitation mode ran, when one did.
    pub exploit_kind: Option<ExploitKind>,
    /// Total messages sent from the account.
    pub messages_sent: u32,
    /// Scam messages among those sent.
    pub scam_messages: u32,
    /// Phishing lures among those sent.
    pub phishing_messages: u32,
    /// Largest single-message recipient list.
    pub max_recipients: usize,
    /// What retention tactics the crew applied (§5.4).
    pub retention: RetentionReport,
    /// The session was cut short by anti-abuse action.
    pub interrupted: bool,
    /// Whether the credential was a defender decoy (Figure 7 probe).
    pub was_decoy: bool,
}

/// The playbook configuration shared by all crews (§5.5: "the tools and
/// utilities they used were the same").
#[derive(Debug, Clone)]
pub struct HijackPlaybook {
    /// The Table 3 search-term distribution used during profiling.
    pub terms: SearchTermModel,
    /// Accounts scoring below this are abandoned after profiling.
    pub value_threshold: f64,
    /// Mean profiling duration in seconds (paper: 3 minutes).
    pub mean_profiling_secs: f64,
    /// Mean exploitation duration in seconds (paper: 15–20 minutes).
    pub mean_exploit_secs: f64,
    metrics: Registry,
}

impl Default for HijackPlaybook {
    fn default() -> Self {
        HijackPlaybook {
            terms: SearchTermModel::new(),
            value_threshold: 0.22,
            mean_profiling_secs: 180.0,
            mean_exploit_secs: 17.0 * 60.0,
            metrics: Registry::new()
                .with_counter(M_SESSIONS_RUN)
                .with_counter(M_SESSIONS_EXPLOITED)
                .with_counter(M_SESSIONS_INTERRUPTED)
                .with_counter(M_DECOY_SESSIONS)
                .with_histogram(M_PICKUP_LATENCY_SECS, buckets::LATENCY_SECS),
        }
    }
}

/// Build a doppelganger address for a victim (§5.4): same local part at
/// a lookalike provider, or a typo'd local at a generic provider.
pub fn doppelganger_for(victim: &EmailAddress, rng: &mut SimRng) -> EmailAddress {
    if rng.chance(0.6) {
        EmailAddress::new(victim.local(), "hornemail.com") // lookalike domain
    } else {
        let mut local = victim.local().to_string();
        local.push('1'); // trailing-character typo variant
        EmailAddress::new(local, "freemail-intl.net")
    }
}

impl HijackPlaybook {
    /// The playbook's metrics registry (session counts and the
    /// dropbox-pickup latency distribution).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Run one full session for a captured credential, starting at
    /// `start` (the moment the operator picks the credential off the
    /// dropbox queue). All world interaction flows through `world`.
    pub fn run_session(
        &self,
        crew: &mut Crew,
        cred: &CapturedCredential,
        world: &mut dyn HijackerWorld,
        phones: &mut PhonePlan,
        start: SimTime,
        rng: &mut SimRng,
    ) -> SessionReport {
        self.metrics.inc(M_SESSIONS_RUN);
        if cred.is_decoy {
            self.metrics.inc(M_DECOY_SESSIONS);
        }
        self.metrics
            .observe(M_PICKUP_LATENCY_SECS, start.since(cred.captured_at).as_secs());
        let report = self.session_inner(crew, cred, world, phones, start, rng);
        if report.exploited {
            self.metrics.inc(M_SESSIONS_EXPLOITED);
        }
        if report.interrupted {
            self.metrics.inc(M_SESSIONS_INTERRUPTED);
        }
        report
    }

    fn session_inner(
        &self,
        crew: &mut Crew,
        cred: &CapturedCredential,
        world: &mut dyn HijackerWorld,
        phones: &mut PhonePlan,
        start: SimTime,
        rng: &mut SimRng,
    ) -> SessionReport {
        let mut now = start;
        let mut report = SessionReport {
            crew: crew.id,
            address: cred.address.clone(),
            account: None,
            started_at: start,
            ended_at: start,
            login_attempts: 0,
            logged_in: false,
            password_eventually_correct: false,
            profiling_seconds: 0,
            searches: Vec::new(),
            folders_opened: Vec::new(),
            contacts_seen: 0,
            value_score: 0.0,
            exploited: false,
            exploit_kind: None,
            messages_sent: 0,
            scam_messages: 0,
            phishing_messages: 0,
            max_recipients: 0,
            retention: RetentionReport::default(),
            interrupted: false,
            was_decoy: cred.is_decoy,
        };

        // ---- Stage 1: login, with trivial-variant retries (§5.1) ----
        // Crews prefer a cloaking proxy in the victim's own country
        // when the phishing page recorded one — it blends with organic
        // traffic. Otherwise they use the crew exit pool under per-IP
        // discipline.
        let ip = match cred.victim_country {
            Some(country) if rng.chance(crew.spec.geo_match_propensity) => {
                world.proxy_exit_in(country)
            }
            _ => crew.exit_for_new_account(now.day_index(), rng),
        };
        let account = loop {
            report.login_attempts += 1;
            let outcome = world.try_login(crew.id, &cred.address, &cred.password_typed, ip, crew.device, now);
            now += SimDuration::from_secs(20 + rng.below(40));
            match outcome {
                LoginAttemptOutcome::Success(a) => {
                    report.password_eventually_correct = true;
                    break Some(a);
                }
                LoginAttemptOutcome::WrongPassword => {
                    // The operator tries a couple of obvious mutations.
                    if report.login_attempts <= 3
                        && cred.exactness == CredentialExactness::TrivialVariant
                        && world.variant_retry_would_succeed(&cred.address, &cred.password_typed)
                    {
                        // A later retry lands on the right variant. The
                        // simulator adjudicates which retry succeeds.
                        if rng.chance(0.6) || report.login_attempts == 3 {
                            report.password_eventually_correct = true;
                            report.login_attempts += 1;
                            // A correct-variant login still goes through
                            // the risk engine.
                            match world.try_login(crew.id, &cred.address, "<variant-correct>", ip, crew.device, now) {
                                LoginAttemptOutcome::Success(a) => break Some(a),
                                _ => break None,
                            }
                        }
                        continue;
                    }
                    break None;
                }
                LoginAttemptOutcome::ChallengeFailed => {
                    report.password_eventually_correct = true;
                    break None;
                }
                LoginAttemptOutcome::Blocked | LoginAttemptOutcome::NoSuchAccount => break None,
            }
        };
        report.account = account;
        let Some(account) = account else {
            report.ended_at = now;
            return report;
        };
        report.logged_in = true;

        // ---- Stage 2: value assessment (~3 min, §5.2) ----
        let budget = rng
            .lognormal(self.mean_profiling_secs.ln(), 0.5)
            .clamp(40.0, 900.0) as u64;
        let profile_end = now.plus(SimDuration::from_secs(budget));
        let mut finance_hits = 0usize;
        let mut account_hits = 0usize;
        let mut content_hits = 0usize;

        // Searches: 1–5 draws from the Table 3 distribution.
        let n_searches = 1 + rng.below(5);
        for _ in 0..n_searches {
            if now >= profile_end || world.account_disabled(account) {
                break;
            }
            let term = self.terms.sample(crew.language, rng);
            let hits = world.search(crew.id, account, term, now);
            match self.terms.category_of(term) {
                Some(TermCategory::Finance) => finance_hits += hits,
                Some(TermCategory::Account) => account_hits += hits,
                Some(TermCategory::Content) => content_hits += hits,
                None => {}
            }
            report.searches.push(term.to_string());
            now += SimDuration::from_secs(15 + rng.below(45));
        }

        // Special folders with the §5.2 probabilities.
        for (folder, p) in [
            (Folder::Starred, 0.16),
            (Folder::Drafts, 0.11),
            (Folder::Sent, 0.05),
            (Folder::Trash, 0.01),
        ] {
            if now < profile_end && !world.account_disabled(account) && rng.chance(p) {
                world.open_folder(crew.id, account, folder, now);
                report.folders_opened.push(folder);
                now += SimDuration::from_secs(10 + rng.below(30));
            }
        }

        // Contacts — the scam/phishing target inventory.
        let profile = world.view_profile(crew.id, account, now);
        report.contacts_seen = profile.contacts.len();
        now += SimDuration::from_secs(10 + rng.below(20));
        report.profiling_seconds = now.since(report.started_at).as_secs();

        if world.account_disabled(account) {
            report.interrupted = true;
            report.ended_at = now;
            return report;
        }

        // Value score: finance material dominates, contacts matter, the
        // rest is gravy (§5.2: "searches are overwhelmingly for
        // financial data").
        let value = ((finance_hits as f64 / 4.0).min(1.0)) * 0.55
            + ((report.contacts_seen as f64 / 25.0).min(1.0)) * 0.30
            + ((account_hits as f64 / 3.0).min(1.0)) * 0.10
            + ((content_hits as f64 / 5.0).min(1.0)) * 0.05;
        report.value_score = value;

        if value < self.value_threshold || profile.contacts.is_empty() {
            // Not worth it: log out and move on (the paper's abandoned
            // accounts).
            report.ended_at = now;
            return report;
        }

        // ---- Stage 3: exploitation (15–20 min, §5.3) ----
        report.exploited = true;
        let customized = rng.chance(crew.spec.customization_propensity);
        let kind = if customized {
            ExploitKind::CustomScam
        } else if rng.chance(0.28) {
            ExploitKind::PhishingBlast
        } else {
            ExploitKind::ScamBlast
        };
        report.exploit_kind = Some(kind);

        let doppelganger = doppelganger_for(&cred.address, rng);
        let n_messages: u64 = match kind {
            ExploitKind::CustomScam => 1 + rng.below(3),
            // 65% of victims see ≤5 messages.
            _ => {
                if rng.chance(0.65) {
                    1 + rng.below(5)
                } else {
                    6 + rng.below(6)
                }
            }
        };
        // Crews take the time their plan needs: the budget is drawn
        // around the §5.3 15–20 minute norm but never starves the
        // planned message count.
        let exploit_budget = rng
            .lognormal(self.mean_exploit_secs.ln(), 0.35)
            .clamp(300.0, 3600.0) as u64;
        let exploit_budget = exploit_budget.max(n_messages * 160 + 120);
        let exploit_end = now.plus(SimDuration::from_secs(exploit_budget));
        let first_name = if profile.owner_first_name.is_empty() {
            "friend".to_string()
        } else {
            profile.owner_first_name.clone()
        };

        for _ in 0..n_messages {
            if now >= exploit_end || world.account_disabled(account) {
                report.interrupted = world.account_disabled(account);
                break;
            }
            let recipients: Vec<EmailAddress> = match kind {
                ExploitKind::CustomScam => {
                    let k = 2 + rng.below(8) as usize; // < 10
                    pick(&profile.contacts, k, rng)
                }
                _ => {
                    let k = 15 + rng.below(26) as usize; // 15–40
                    pick(&profile.contacts, k, rng)
                }
            };
            if recipients.is_empty() {
                break;
            }
            report.max_recipients = report.max_recipients.max(recipients.len());
            let is_phishing = match kind {
                ExploitKind::PhishingBlast => true,
                ExploitKind::CustomScam => false,
                // Blast sessions mix in some phishing; together with the
                // dedicated phishing blasts this lands the §5.3 mix
                // (35% of hijack-sent messages are phishing).
                ExploitKind::ScamBlast => rng.chance(0.10),
            };
            let (subject, body) = if is_phishing {
                let (s, b) = mhw_phishkit::targets::lure_text(
                    mhw_types::AccountCategory::Mail,
                    mhw_phishkit::targets::LureStructure::ReplyWithCredentials,
                );
                (s, b)
            } else {
                generate_scam(
                    ScamStyle::sample(rng),
                    crew.language,
                    &first_name,
                    kind == ExploitKind::CustomScam,
                    rng,
                )
            };
            let reply_to = rng.chance(0.30).then(|| doppelganger.clone());
            world.send_mail(
                crew.id,
                account,
                recipients,
                subject,
                body,
                is_phishing,
                reply_to,
                now,
            );
            report.messages_sent += 1;
            if is_phishing {
                report.phishing_messages += 1;
            } else {
                report.scam_messages += 1;
            }
            // Blast messages are pasted from templates; customized ones
            // take real writing time.
            now += match kind {
                ExploitKind::CustomScam => SimDuration::from_secs(180 + rng.below(300)),
                _ => SimDuration::from_secs(40 + rng.below(120)),
            };
        }

        // ---- Stage 4: retention (§5.4) ----
        let t = crew.tactics;
        if !world.account_disabled(account) {
            if rng.chance(t.p_filter) {
                world.create_forward_filter(crew.id, account, doppelganger.clone(), now);
                report.retention.filter_created = true;
                now += SimDuration::from_secs(30);
            }
            if rng.chance(t.p_reply_to) {
                world.set_reply_to(crew.id, account, doppelganger.clone(), now);
                report.retention.reply_to_set = true;
                now += SimDuration::from_secs(20);
            }
            if rng.chance(t.p_password_change) {
                world.change_password(crew.id, account, now);
                report.retention.password_changed = true;
                now += SimDuration::from_secs(30);
                if rng.chance(t.p_mass_delete_given_lockout) {
                    world.mass_delete(crew.id, account, now);
                    report.retention.mass_deleted = true;
                    now += SimDuration::from_secs(120);
                }
            }
            if rng.chance(t.p_recovery_change) {
                world.change_recovery_options(crew.id, account, now);
                report.retention.recovery_options_changed = true;
                now += SimDuration::from_secs(30);
            }
            if crew.spec.uses_2fa_lockout && rng.chance(t.p_twofactor_lockout) {
                let phone = crew.burner_phone(phones, rng);
                world.enable_two_factor(crew.id, account, phone, now);
                report.retention.twofactor_locked = true;
                now += SimDuration::from_secs(60);
            }
        } else {
            report.interrupted = true;
        }

        report.ended_at = now;
        report
    }
}

/// Sample up to `k` distinct addresses.
fn pick(contacts: &[EmailAddress], k: usize, rng: &mut SimRng) -> Vec<EmailAddress> {
    let idx = rng.sample_indices(contacts.len(), k);
    idx.into_iter().map(|i| contacts[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crew::{CrewRoster, CrewSpec};
    use crate::retention::Era;
    use crate::world::ProfileView;
    use mhw_netmodel::GeoDb;
    use mhw_types::{CrewId, DeviceId, IpAddr, PageId, PhoneNumber};

    /// A mock world: one rich account, everything succeeds.
    struct MockWorld {
        contacts: usize,
        search_hits: usize,
        disabled: bool,
        wrong_password: bool,
        variant_ok: bool,
        sent: Vec<(usize, bool)>, // (recipients, is_phishing)
        password_changed: bool,
        mass_deleted: bool,
        twofactor: Option<PhoneNumber>,
        filters: usize,
        reply_to: Option<EmailAddress>,
        recovery_changed: bool,
        logins: u32,
    }

    impl MockWorld {
        fn rich() -> Self {
            MockWorld {
                contacts: 40,
                search_hits: 5,
                disabled: false,
                wrong_password: false,
                variant_ok: false,
                sent: vec![],
                password_changed: false,
                mass_deleted: false,
                twofactor: None,
                filters: 0,
                reply_to: None,
                recovery_changed: false,
                logins: 0,
            }
        }
        fn poor() -> Self {
            MockWorld { contacts: 0, search_hits: 0, ..Self::rich() }
        }
    }

    impl HijackerWorld for MockWorld {
        fn try_login(
            &mut self,
            _crew: CrewId,
            _address: &EmailAddress,
            _password: &str,
            _ip: IpAddr,
            _device: DeviceId,
            _at: SimTime,
        ) -> LoginAttemptOutcome {
            self.logins += 1;
            if self.wrong_password && _password != "<variant-correct>" {
                LoginAttemptOutcome::WrongPassword
            } else {
                LoginAttemptOutcome::Success(AccountId(0))
            }
        }
        fn variant_retry_would_succeed(&self, _a: &EmailAddress, _c: &str) -> bool {
            self.variant_ok
        }
        fn search(&mut self, _c: CrewId, _a: AccountId, _q: &str, _t: SimTime) -> usize {
            self.search_hits
        }
        fn open_folder(&mut self, _c: CrewId, _a: AccountId, _f: Folder, _t: SimTime) -> usize {
            3
        }
        fn view_profile(&mut self, _c: CrewId, _a: AccountId, _t: SimTime) -> ProfileView {
            ProfileView {
                contacts: (0..self.contacts)
                    .map(|i| EmailAddress::new(format!("c{i}"), "homemail.com"))
                    .collect(),
                owner_first_name: "casey".into(),
            }
        }
        #[allow(clippy::too_many_arguments)]
        fn send_mail(
            &mut self,
            _c: CrewId,
            _a: AccountId,
            to: Vec<EmailAddress>,
            _s: String,
            _b: String,
            is_phishing: bool,
            _r: Option<EmailAddress>,
            _t: SimTime,
        ) {
            self.sent.push((to.len(), is_phishing));
        }
        fn create_forward_filter(&mut self, _c: CrewId, _a: AccountId, _to: EmailAddress, _t: SimTime) {
            self.filters += 1;
        }
        fn set_reply_to(&mut self, _c: CrewId, _a: AccountId, to: EmailAddress, _t: SimTime) {
            self.reply_to = Some(to);
        }
        fn change_password(&mut self, _c: CrewId, _a: AccountId, _t: SimTime) {
            self.password_changed = true;
        }
        fn change_recovery_options(&mut self, _c: CrewId, _a: AccountId, _t: SimTime) {
            self.recovery_changed = true;
        }
        fn enable_two_factor(&mut self, _c: CrewId, _a: AccountId, phone: PhoneNumber, _t: SimTime) {
            self.twofactor = Some(phone);
        }
        fn mass_delete(&mut self, _c: CrewId, _a: AccountId, _t: SimTime) {
            self.mass_deleted = true;
        }
        fn proxy_exit_in(&mut self, _country: mhw_types::CountryCode) -> IpAddr {
            IpAddr::new(99, 0, 0, 1)
        }
        fn account_disabled(&self, _a: AccountId) -> bool {
            self.disabled
        }
    }

    fn crew(seed: u64) -> (CrewRoster, PhonePlan) {
        let geo = GeoDb::new();
        let mut rng = SimRng::from_seed(seed);
        (
            CrewRoster::build(CrewSpec::paper_roster(), Era::Y2012, &geo, &mut rng),
            PhonePlan::new(),
        )
    }

    fn cred(exact: CredentialExactness) -> CapturedCredential {
        CapturedCredential {
            address: EmailAddress::new("victim", "homemail.com"),
            password_typed: "hunter2".into(),
            exactness: exact,
            page: PageId(0),
            captured_at: SimTime::from_secs(100),
            victim_country: None,
            is_decoy: false,
        }
    }

    #[test]
    fn rich_account_gets_exploited() {
        let (mut roster, mut phones) = crew(1);
        let mut world = MockWorld::rich();
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(2);
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Exact),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert!(r.logged_in && r.exploited);
        assert!(r.messages_sent >= 1);
        assert!(!world.sent.is_empty());
        assert!(r.value_score > pb.value_threshold);
        assert!(r.ended_at > r.started_at);
    }

    #[test]
    fn poor_account_is_abandoned_after_profiling() {
        let (mut roster, mut phones) = crew(3);
        let mut world = MockWorld::poor();
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(4);
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Exact),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert!(r.logged_in);
        assert!(!r.exploited, "value {}", r.value_score);
        assert_eq!(r.messages_sent, 0);
        assert!(r.profiling_seconds > 0);
        assert!(!r.searches.is_empty());
    }

    #[test]
    fn profiling_time_averages_three_minutes() {
        let (mut roster, mut phones) = crew(5);
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(6);
        let mut total = 0u64;
        let n = 400;
        for i in 0..n {
            let mut world = MockWorld::rich();
            let r = pb.run_session(
                &mut roster.crews[0],
                &cred(CredentialExactness::Exact),
                &mut world,
                &mut phones,
                SimTime::from_secs(1000 + i * 10_000),
                &mut rng,
            );
            total += r.profiling_seconds;
        }
        let mean_minutes = total as f64 / n as f64 / 60.0;
        assert!((2.0..5.0).contains(&mean_minutes), "mean profiling {mean_minutes} min");
    }

    #[test]
    fn wrong_garbage_password_gives_up() {
        let (mut roster, mut phones) = crew(7);
        let mut world = MockWorld { wrong_password: true, variant_ok: false, ..MockWorld::rich() };
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(8);
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Wrong),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert!(!r.logged_in);
        assert!(!r.password_eventually_correct);
        assert_eq!(r.login_attempts, 1);
    }

    #[test]
    fn trivial_variant_is_recovered_by_retries() {
        let (mut roster, mut phones) = crew(9);
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(10);
        let mut successes = 0;
        for _ in 0..50 {
            let mut world =
                MockWorld { wrong_password: true, variant_ok: true, ..MockWorld::rich() };
            let r = pb.run_session(
                &mut roster.crews[0],
                &cred(CredentialExactness::TrivialVariant),
                &mut world,
                &mut phones,
                SimTime::from_secs(1000),
                &mut rng,
            );
            if r.logged_in {
                successes += 1;
                assert!(r.login_attempts >= 2);
            }
        }
        assert!(successes >= 45, "variant retries should almost always recover: {successes}");
    }

    #[test]
    fn custom_scams_stay_under_ten_recipients() {
        let (mut roster, mut phones) = crew(11);
        // Force customization.
        roster.crews[0].spec.customization_propensity = 1.0;
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(12);
        let mut world = MockWorld::rich();
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Exact),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert_eq!(r.exploit_kind, Some(ExploitKind::CustomScam));
        for (recipients, _) in &world.sent {
            assert!(*recipients < 10, "custom scam to {recipients} recipients");
        }
    }

    #[test]
    fn disabled_account_interrupts_session() {
        let (mut roster, mut phones) = crew(13);
        let mut world = MockWorld { disabled: true, ..MockWorld::rich() };
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(14);
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Exact),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        // Logged in (mock allows) but interrupted before exploitation.
        assert!(r.interrupted);
        assert_eq!(r.messages_sent, 0);
    }

    #[test]
    fn era_2011_mass_deletes_era_2012_rarely() {
        let geo = GeoDb::new();
        let pb = HijackPlaybook::default();
        let mut deleted = [0usize; 2];
        for (ei, era) in [Era::Y2011, Era::Y2012].into_iter().enumerate() {
            let mut rng = SimRng::from_seed(20 + ei as u64);
            let mut roster =
                CrewRoster::build(CrewSpec::paper_roster(), era, &geo, &mut rng);
            let mut phones = PhonePlan::new();
            for i in 0..300 {
                let mut world = MockWorld::rich();
                let r = pb.run_session(
                    &mut roster.crews[0],
                    &cred(CredentialExactness::Exact),
                    &mut world,
                    &mut phones,
                    SimTime::from_secs(1000 + i * 10_000),
                    &mut rng,
                );
                if r.retention.mass_deleted {
                    deleted[ei] += 1;
                }
            }
        }
        assert!(deleted[0] > 40, "2011 deletions {deleted:?}"); // ~.6*.46*300 ≈ 83
        assert!(deleted[1] <= 6, "2012 deletions {deleted:?}"); // ~.5*.016*300 ≈ 2.4
    }

    #[test]
    fn doppelganger_addresses_are_plausible() {
        let mut rng = SimRng::from_seed(30);
        let victim = EmailAddress::new("pat.doe", "homemail.com");
        for _ in 0..50 {
            let d = doppelganger_for(&victim, &mut rng);
            assert_ne!(d, victim);
            assert!(
                d.local() == victim.local() || d.local().starts_with(victim.local()),
                "{d}"
            );
        }
    }

    #[test]
    fn session_metrics_cover_run_and_pickup_latency() {
        let (mut roster, mut phones) = crew(41);
        let mut world = MockWorld::rich();
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(42);
        // cred captured at t=100, session starts at t=1000 → 900 s pickup.
        let r = pb.run_session(
            &mut roster.crews[0],
            &cred(CredentialExactness::Exact),
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert!(r.exploited);
        let m = pb.metrics();
        assert_eq!(m.counter_value(M_SESSIONS_RUN), Some(1));
        assert_eq!(m.counter_value(M_SESSIONS_EXPLOITED), Some(1));
        assert_eq!(m.counter_value(M_DECOY_SESSIONS), Some(0));
        let snap = m.snapshot();
        let pickup = snap.histogram(M_PICKUP_LATENCY_SECS.name()).unwrap();
        assert_eq!(pickup.total, 1);
        assert_eq!(pickup.sum, 900);
    }

    #[test]
    fn decoy_flag_propagates() {
        let (mut roster, mut phones) = crew(31);
        let mut world = MockWorld::rich();
        let pb = HijackPlaybook::default();
        let mut rng = SimRng::from_seed(32);
        let mut c = cred(CredentialExactness::Exact);
        c.is_decoy = true;
        let r = pb.run_session(
            &mut roster.crews[0],
            &c,
            &mut world,
            &mut phones,
            SimTime::from_secs(1000),
            &mut rng,
        );
        assert!(r.was_decoy);
    }
}
