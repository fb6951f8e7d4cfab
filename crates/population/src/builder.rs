//! Population construction.
//!
//! Builds the whole user base and registers it with every substrate:
//! mail accounts, credentials, recovery options (coverage calibrated to
//! §6.3's channel availability), 2FA enrolment, the contact graph, and
//! seeded mailbox content.

use crate::graph::ContactGraph;
use crate::seed::seed_mailbox;
use crate::user::{sample_activity, UserProfile};
use mhw_identity::{
    CredentialStore, RecoveryEmail, RecoveryOptions, RecoveryPhone, SecretQuestion, TwoFactorState,
};
use mhw_mailsys::{ContactEntry, MailProvider};
use mhw_netmodel::{DomainModel, GeoDb, PhonePlan};
use mhw_simclock::SimRng;
use mhw_types::{CountryCode, DeviceId, EmailAddress, SimTime};

/// Tunable knobs of the population generator.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    pub n_users: usize,
    /// Fraction of users with a recovery phone on file.
    pub phone_coverage: f64,
    /// Fraction of phone-holders whose number is stale.
    pub stale_phone_rate: f64,
    /// Fraction of users with a secondary recovery email.
    pub email_coverage: f64,
    /// Fraction of recovery emails that were mistyped at registration
    /// (§6.3: ≈5% of recovery mail bounces).
    pub mistyped_email_rate: f64,
    /// Fraction of recovery emails recycled by their provider
    /// (§6.3: ≈7% by 2014).
    pub recycled_email_rate: f64,
    /// Fraction of users with a secret question.
    pub question_coverage: f64,
    /// Fraction of users with phone-based 2FA enrolled.
    pub twofactor_rate: f64,
    /// Fraction of users with an unphishable hardware security key
    /// (§8.2's future-work alternative; 0 for the paper's 2012 world).
    pub security_key_rate: f64,
    /// Contact-graph community size.
    pub community_size: usize,
    /// Within-community edge probability.
    pub p_within: f64,
    /// Long-range links per user.
    pub long_links: usize,
    /// Whether to seed mailbox content (slow for very large populations;
    /// measurement scenarios need it, micro-benchmarks may not).
    pub seed_mailboxes: bool,
    /// Multiplier applied to every user's sampled per-day activity
    /// rates (logins, sends, searches). 1.0 is the paper-calibrated
    /// default; the scale-ladder benchmarks turn it down so wall-clock
    /// cost tracks population size rather than event volume.
    pub activity_scale: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_users: 2000,
            phone_coverage: 0.55,
            stale_phone_rate: 0.10,
            email_coverage: 0.70,
            mistyped_email_rate: 0.05,
            recycled_email_rate: 0.07,
            question_coverage: 0.55,
            twofactor_rate: 0.05,
            security_key_rate: 0.0,
            community_size: 30,
            p_within: 0.45,
            long_links: 3,
            seed_mailboxes: true,
            activity_scale: 1.0,
        }
    }
}

/// Each user also knows up to this many addresses off the home
/// provider.
const MAX_EXTERNAL_CONTACTS: usize = 3;

/// Country mix of the user base (victims are worldwide; weights roughly
/// track large mail providers' user distribution, with enough
/// French/Spanish speakers for the crews' language-targeting to matter).
const USER_COUNTRIES: [(CountryCode, f64); 12] = [
    (CountryCode::US, 30.0),
    (CountryCode::GB, 9.0),
    (CountryCode::FR, 10.0),
    (CountryCode::ES, 6.0),
    (CountryCode::DE, 6.0),
    (CountryCode::IN, 9.0),
    (CountryCode::BR, 7.0),
    (CountryCode::CA, 5.0),
    (CountryCode::AU, 4.0),
    (CountryCode::MX, 6.0),
    (CountryCode::CN, 5.0),
    (CountryCode::VN, 3.0),
];

/// The constructed population plus the substrate handles it registered
/// itself into.
#[derive(Clone)]
pub struct Population {
    pub users: Vec<UserProfile>,
    pub graph: ContactGraph,
}

impl Population {
    pub fn len(&self) -> usize {
        self.users.len()
    }

    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    pub fn user(&self, account: mhw_types::AccountId) -> &UserProfile {
        &self.users[account.index()]
    }
}

/// Builder that populates all identity/mail substrates.
pub struct PopulationBuilder<'a> {
    pub provider: &'a mut MailProvider,
    pub credentials: &'a mut CredentialStore,
    pub options: &'a mut RecoveryOptions,
    pub twofactor: &'a mut TwoFactorState,
    pub phones: &'a mut PhonePlan,
    pub geo: &'a GeoDb,
    pub domains: &'a DomainModel,
}

impl<'a> PopulationBuilder<'a> {
    /// Build `config.n_users` users at time `now` (mailbox content is
    /// backdated before `now`).
    pub fn build(self, config: &PopulationConfig, now: SimTime, rng: &mut SimRng) -> Population {
        let weights: Vec<f64> = USER_COUNTRIES.iter().map(|(_, w)| *w).collect();
        let mut users = Vec::with_capacity(config.n_users);

        for i in 0..config.n_users {
            let country = USER_COUNTRIES[rng.weighted_index(&weights).unwrap()].0;
            let address = EmailAddress::new(format!("user{i}"), self.domains.home.name.clone());
            let account = self.provider.create_account(address.clone());
            debug_assert_eq!(account.index(), i);

            // Credentials: unique synthetic token.
            let password = format!("pw-{i}-{:06}", rng.below(1_000_000));
            self.credentials.register(account, &password);

            // Recovery options per coverage knobs.
            self.options.register(account);
            let phone = if rng.chance(config.phone_coverage) {
                Some(RecoveryPhone {
                    number: self.phones.issue(country, rng),
                    up_to_date: !rng.chance(config.stale_phone_rate),
                    gateway_reliability: sms_gateway_reliability(country),
                })
            } else {
                None
            };
            let email = if rng.chance(config.email_coverage) {
                Some(RecoveryEmail {
                    address: self.domains.random_external_address(
                        rng,
                        i as u64,
                        0.7,
                        0.05,
                        0.25,
                    ),
                    verified: rng.chance(0.5),
                    mistyped: rng.chance(config.mistyped_email_rate),
                    recycled: rng.chance(config.recycled_email_rate),
                })
            } else {
                None
            };
            let question = if rng.chance(config.question_coverage) {
                Some(SecretQuestion {
                    owner_recall: 0.3 + rng.f64() * 0.5,   // 0.3..0.8 (§6.3: poor recall)
                    guessability: 0.05 + rng.f64() * 0.30, // researched answers
                })
            } else {
                None
            };
            self.options.init(account, phone.clone(), email, question);

            // 2FA enrolment: security keys take precedence, then phones.
            self.twofactor.register(account);
            if rng.chance(config.security_key_rate) {
                self.twofactor.enroll_security_key(account, mhw_types::Actor::Owner, now);
            } else if rng.chance(config.twofactor_rate) {
                if let Some(p) = &phone {
                    self.twofactor.enable(account, mhw_types::Actor::Owner, p.number, now);
                }
            }

            let (logins_per_day, sends_per_day, searches_per_day) = sample_activity(rng);
            users.push(UserProfile {
                account,
                address,
                country,
                language: country.language(),
                logins_per_day: logins_per_day * config.activity_scale,
                sends_per_day: sends_per_day * config.activity_scale,
                searches_per_day: searches_per_day * config.activity_scale,
                gullibility: 0.12 + 0.8 * rng.f64() * rng.f64(), // skewed low, floor 0.12
                report_propensity: 0.1 + rng.f64() * 0.5,
                travel_propensity: 0.005 + rng.f64() * 0.03,
                mailbox_value: rng.f64(),
                home_ip: self.geo.random_ip(country, rng),
                device: DeviceId(i as u32),
            });
        }

        // Contact graph + mailbox contact lists.
        let graph = ContactGraph::clustered(
            config.n_users,
            config.community_size.max(2),
            config.p_within,
            config.long_links,
            rng,
        );
        for u in &users {
            let contacts = graph.contacts_of(u.account);
            self.provider
                .mailbox_mut(u.account)
                .reserve_contacts(contacts.len() + MAX_EXTERNAL_CONTACTS);
            for contact in contacts {
                let entry = ContactEntry {
                    address: self.provider.address_of(*contact).clone(),
                    internal: Some(*contact),
                };
                self.provider.add_contact(u.account, entry);
            }
            // A few external contacts too.
            let n_ext = rng.below(MAX_EXTERNAL_CONTACTS as u64 + 1);
            for j in 0..n_ext {
                let addr = self.domains.random_external_address(
                    rng,
                    (u.account.index() as u64) << 8 | j,
                    0.6,
                    0.1,
                    0.3,
                );
                self.provider
                    .add_contact(u.account, ContactEntry { address: addr, internal: None });
            }
        }

        if config.seed_mailboxes {
            for u in &users {
                seed_mailbox(self.provider, u, now, rng);
            }
        }

        Population { users, graph }
    }
}

/// SMS gateway reliability per country (§6.3: failures "traced back to
/// the unreliability of SMS gateways in certain countries").
fn sms_gateway_reliability(country: CountryCode) -> f64 {
    match country {
        CountryCode::US | CountryCode::CA | CountryCode::GB | CountryCode::DE
        | CountryCode::FR | CountryCode::AU => 0.97,
        CountryCode::ES | CountryCode::MX | CountryCode::BR | CountryCode::CN => 0.93,
        CountryCode::IN | CountryCode::VN | CountryCode::MY => 0.88,
        _ => 0.82,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        provider: MailProvider,
        credentials: CredentialStore,
        options: RecoveryOptions,
        twofactor: TwoFactorState,
        phones: PhonePlan,
        geo: GeoDb,
        domains: DomainModel,
    }

    impl World {
        fn new() -> Self {
            World {
                provider: MailProvider::new(),
                credentials: CredentialStore::new(),
                options: RecoveryOptions::new(),
                twofactor: TwoFactorState::new(),
                phones: PhonePlan::new(),
                geo: GeoDb::new(),
                domains: DomainModel::standard(),
            }
        }

        fn build(&mut self, config: &PopulationConfig, seed: u64) -> Population {
            let mut rng = SimRng::from_seed(seed);
            PopulationBuilder {
                provider: &mut self.provider,
                credentials: &mut self.credentials,
                options: &mut self.options,
                twofactor: &mut self.twofactor,
                phones: &mut self.phones,
                geo: &self.geo,
                domains: &self.domains,
            }
            .build(config, SimTime::from_secs(400 * mhw_types::DAY), &mut rng)
        }
    }

    #[test]
    fn builds_requested_users_with_accounts() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 300, ..Default::default() };
        let pop = w.build(&config, 1);
        assert_eq!(pop.len(), 300);
        assert_eq!(w.provider.account_count(), 300);
        // Account ids are dense and addresses resolve.
        for u in &pop.users {
            assert_eq!(w.provider.resolve(&u.address), Some(u.account));
            assert!(w.credentials.verify(
                u.account,
                w.credentials.password_for_capture(u.account).to_string().as_str()
            ));
        }
    }

    #[test]
    fn recovery_coverage_tracks_config() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 2000, seed_mailboxes: false, ..Default::default() };
        let pop = w.build(&config, 2);
        let with_phone = pop
            .users
            .iter()
            .filter(|u| w.options.get(u.account).phone.is_some())
            .count() as f64
            / 2000.0;
        let with_email = pop
            .users
            .iter()
            .filter(|u| w.options.get(u.account).email.is_some())
            .count() as f64
            / 2000.0;
        assert!((with_phone - 0.55).abs() < 0.04, "phone coverage {with_phone}");
        assert!((with_email - 0.70).abs() < 0.04, "email coverage {with_email}");
    }

    #[test]
    fn recycled_email_rate_near_seven_percent() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 4000, seed_mailboxes: false, ..Default::default() };
        let pop = w.build(&config, 3);
        let (recycled, total) = pop.users.iter().fold((0usize, 0usize), |(r, t), u| {
            match &w.options.get(u.account).email {
                Some(e) => (r + e.recycled as usize, t + 1),
                None => (r, t),
            }
        });
        let rate = recycled as f64 / total as f64;
        assert!((rate - 0.07).abs() < 0.02, "recycled rate {rate}");
    }

    #[test]
    fn contacts_are_mutual_and_in_mailboxes() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 200, seed_mailboxes: false, ..Default::default() };
        let pop = w.build(&config, 4);
        let u0 = &pop.users[0];
        let internal: Vec<_> = w
            .provider
            .mailbox(u0.account)
            .contacts()
            .iter()
            .filter_map(|c| c.internal)
            .collect();
        assert_eq!(internal.len(), pop.graph.contacts_of(u0.account).len());
        for c in &internal {
            assert!(pop.graph.contacts_of(*c).contains(&u0.account));
        }
    }

    #[test]
    fn mailboxes_seeded_when_enabled() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 30, ..Default::default() };
        let pop = w.build(&config, 5);
        let nonempty = pop
            .users
            .iter()
            .filter(|u| !w.provider.mailbox(u.account).is_empty())
            .count();
        assert_eq!(nonempty, 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut w1 = World::new();
        let mut w2 = World::new();
        let config = PopulationConfig { n_users: 100, seed_mailboxes: false, ..Default::default() };
        let p1 = w1.build(&config, 42);
        let p2 = w2.build(&config, 42);
        for (a, b) in p1.users.iter().zip(&p2.users) {
            assert_eq!(a.home_ip, b.home_ip);
            assert_eq!(a.country, b.country);
            assert!((a.gullibility - b.gullibility).abs() < 1e-12);
        }
    }

    #[test]
    fn twofactor_enrolment_is_sparse_but_present() {
        let mut w = World::new();
        let config = PopulationConfig { n_users: 3000, seed_mailboxes: false, ..Default::default() };
        let pop = w.build(&config, 6);
        let enrolled = pop
            .users
            .iter()
            .filter(|u| w.twofactor.enabled(u.account))
            .count() as f64
            / 3000.0;
        // 5% of users × 55% phone coverage ≈ 2.75%.
        assert!(enrolled > 0.005 && enrolled < 0.06, "2FA rate {enrolled}");
    }
}
