//! The ecosystem: one closed world, simulated day by day.
//!
//! Each simulated day interleaves, in time order:
//!
//! 1. **phishing lures** delivered to users (through the mail
//!    classifier — most land in Spam, §4.2's delivery asymmetry);
//! 2. **organic user activity** — logins through the risk engine,
//!    personal mail, mailbox searches, spam reporting, and the
//!    occasional fatal click on a lure;
//! 3. **crew shifts** — during office hours, crews drain their
//!    credential dropboxes and run the §5 playbook against each one;
//! 4. **victim awareness and recovery** — notifications, dead
//!    passwords and disabled accounts lead to claims, verification,
//!    password resets and §6.4 remission.
//!
//! Everything measurable by the paper falls out of the logs this loop
//! produces.

use crate::config::ScenarioConfig;
use crate::world::{spam_decision, WorldAdapter};
use mhw_adversary::{CrewRoster, HijackPlaybook, SessionReport};
use mhw_defense::{
    ActivityMonitor, AnswererCapabilities, LoginContext, LoginPipeline, LoginRequest,
    MailClassifier,
    NotificationEngine, RiskEngine,
};
use mhw_identity::{
    CredentialStore, LoginLog, LoginOutcome, RecoveryOptions, TwoFactorState,
};
use mhw_mailsys::{Folder, MailProvider, MessageDraft, MessageKind};
use mhw_netmodel::{DomainModel, GeoDb, PhonePlan, ReferrerModel};
use mhw_obs::{MetricId, MetricsSnapshot, Registry, RunReport};
use mhw_phishkit::{
    CapturedCredential, CredentialExactness, DetectionPipeline, Dropbox, PageQuality,
    PhishingPage, TakedownRecord,
};
use mhw_population::{Population, PopulationBuilder};
use mhw_recovery::{
    hijacker_takeover_probability, run_remission, ClaimAssessment, ClaimTrigger,
    RecoveryRiskService, RecoveryService, RecoveryVerdict, RemissionReport,
};
use mhw_simclock::SimRng;
use mhw_types::{
    AccountId, Actor, CampaignId, CrewId, DenseMap, EmailAddress, IncidentId, MessageId, PageId,
    SimDuration, SimTime, Span, StrArena, DAY, HOUR,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Credentials sitting unclaimed in crew dropboxes at end of run (the
/// queue-depth gauge; per-shard values sum on merge).
pub const M_DROPBOX_PENDING: MetricId = MetricId("ecosystem.dropbox_pending");
/// Credentials lost to dropbox takedowns/rotation over the whole run.
pub const M_DROPBOX_LOST: MetricId = MetricId("ecosystem.dropbox_lost");
/// Confirmed manual-hijacking incidents opened.
pub const M_INCIDENTS: MetricId = MetricId("ecosystem.incidents");

/// Where a delivered lure leads, for credential-capture mechanics.
#[derive(Debug, Clone, Copy)]
enum LureSource {
    /// Link lure to a crew's phishing page (index into `pages`).
    Page(usize, CrewId),
    /// Reply-with-credentials lure straight to the crew dropbox.
    Direct(CrewId),
}

/// Sentinel for "no active incident" in the dense incident column.
const NO_INCIDENT: u32 = u32::MAX;

/// Per-user dynamic state, stored struct-of-arrays and indexed by the
/// dense account index.
///
/// The daily loop touches every user several times (travel flag at
/// scheduling, password + incident checks per login), so each field
/// lives in its own column: a scan reads only the bytes it needs, and a
/// million users cost a handful of flat allocations instead of a
/// million scattered structs. Claim sweeps read the awareness and claim
/// timers of the users in `open_incidents` only. Known passwords are
/// spans into one shared [`StrArena`]; the rare cold field (failed
/// recovery methods for an open incident) lives in a side table keyed
/// by account index.
#[derive(Debug, Clone, Default)]
struct UserStates {
    /// The password each user believes is theirs (span into `arena`).
    known_password: Vec<Span>,
    arena: StrArena,
    travelling_today: Vec<bool>,
    /// When the user (will) realize the account is hijacked.
    aware_at: Vec<Option<SimTime>>,
    /// Next recovery-claim attempt.
    next_claim_at: Vec<Option<SimTime>>,
    claim_attempts: Vec<u32>,
    /// Index into [`Ecosystem::incidents`], or [`NO_INCIDENT`]. Written
    /// only through `open_incident` and `close_incident`.
    active_incident: Vec<u32>,
    /// The users whose `active_incident` is set, ascending: the only
    /// users a claim sweep can file for, and few of them on any day.
    open_incidents: BTreeSet<u32>,
    /// Cold side table: methods that already failed for the active
    /// incident (empty for almost every user on almost every day).
    failed_methods: HashMap<u32, Vec<mhw_recovery::RecoveryMethod>>,
}

impl UserStates {
    fn len(&self) -> usize {
        self.known_password.len()
    }

    /// Append the next user's state (users are registered densely in
    /// account order).
    fn push(&mut self, password: &str) {
        let span = self.arena.push(password);
        self.known_password.push(span);
        self.travelling_today.push(false);
        self.aware_at.push(None);
        self.next_claim_at.push(None);
        self.claim_attempts.push(0);
        self.active_incident.push(NO_INCIDENT);
    }

    fn password(&self, i: usize) -> &str {
        self.arena.get(self.known_password[i])
    }

    fn set_password(&mut self, i: usize, password: &str) {
        self.known_password[i] = self.arena.push(password);
    }

    /// The user's active incident, if any (in-range and set).
    fn active_incident(&self, i: usize) -> Option<usize> {
        match self.active_incident.get(i) {
            Some(&idx) if idx != NO_INCIDENT => Some(idx as usize),
            _ => None,
        }
    }

    fn failed_methods(&self, i: usize) -> &[mhw_recovery::RecoveryMethod] {
        self.failed_methods.get(&(i as u32)).map_or(&[], Vec::as_slice)
    }

    fn note_failed_method(&mut self, i: usize, method: mhw_recovery::RecoveryMethod) {
        let methods = self.failed_methods.entry(i as u32).or_default();
        if !methods.contains(&method) {
            methods.push(method);
        }
    }

    /// Make `incident` user `i`'s active incident.
    fn open_incident(&mut self, i: usize, incident: usize) {
        self.active_incident[i] = incident as u32;
        self.open_incidents.insert(i as u32);
    }

    /// Detach user `i` from its incident, keeping the claim state.
    fn close_incident(&mut self, i: usize) {
        self.active_incident[i] = NO_INCIDENT;
        self.open_incidents.remove(&(i as u32));
    }

    /// Whether `open_incidents` lists exactly the users whose
    /// `active_incident` is set.
    fn open_incidents_match_column(&self) -> bool {
        let column = (0..self.len()).filter(|&i| self.active_incident[i] != NO_INCIDENT);
        self.open_incidents.iter().map(|&i| i as usize).eq(column)
    }

    /// Whether user `i` files a recovery claim at `at`: an open
    /// incident, attempts left, aware of the hijack, and past the next
    /// claim time.
    fn claim_due(&self, i: usize, at: SimTime) -> bool {
        if self.active_incident(i).is_none() || self.claim_attempts[i] >= 8 {
            return false;
        }
        match (self.aware_at[i], self.next_claim_at[i]) {
            (Some(aw), Some(next)) => aw <= at && next <= at,
            (Some(aw), None) => aw <= at,
            _ => false,
        }
    }

    /// Reset all per-incident state after a successful recovery.
    fn clear_incident(&mut self, i: usize) {
        self.close_incident(i);
        self.aware_at[i] = None;
        self.next_claim_at[i] = None;
        self.claim_attempts[i] = 0;
        self.failed_methods.remove(&(i as u32));
    }
}

/// The `Copy` slice of a profile an organic session needs, extracted up
/// front so the hot path never clones a full `UserProfile` (address and
/// other heap fields) once per login.
#[derive(Debug, Clone, Copy)]
struct UserVitals {
    device: mhw_types::DeviceId,
    report_propensity: f64,
    gullibility: f64,
    sends_per_day: f64,
    logins_per_day: f64,
    searches_per_day: f64,
}

impl UserVitals {
    fn of(u: &mhw_population::UserProfile) -> Self {
        UserVitals {
            device: u.device,
            report_propensity: u.report_propensity,
            gullibility: u.gullibility,
            sends_per_day: u.sends_per_day,
            logins_per_day: u.logins_per_day,
            searches_per_day: u.searches_per_day,
        }
    }
}

/// One confirmed manual-hijacking incident.
#[derive(Debug, Clone)]
pub struct Incident {
    pub id: IncidentId,
    pub account: AccountId,
    pub crew: CrewId,
    /// First successful hijacker login.
    pub hijack_start: SimTime,
    /// Index into [`Ecosystem::sessions`].
    pub session: usize,
    /// When anti-abuse disabled the account mid-exploitation, if it did.
    pub disabled_at: Option<SimTime>,
    /// When the provider's systems flagged the account as hijacked
    /// (monitor disable, or first claim filing) — the Figure 9 anchor.
    pub flagged_at: Option<SimTime>,
    pub recovered_at: Option<SimTime>,
    pub remission: Option<RemissionReport>,
    pub is_decoy: bool,
}

/// Aggregate counters for a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub organic_logins: u64,
    pub organic_challenges: u64,
    pub organic_challenge_failures: u64,
    pub lures_delivered: u64,
    pub lures_spam_foldered: u64,
    pub credentials_captured: u64,
    /// Captures attributable to lures sent from a hijacked contact.
    pub contact_lure_captures: u64,
    /// Lures from hijacked contacts that reached an inbox and were read.
    pub contact_lures_read: u64,
    pub sessions_run: u64,
    pub incidents: u64,
    pub exploited: u64,
    pub recovered: u64,
    /// Owner claims denied outright by recovery risk scoring — the
    /// frontier's false-positive cost. Always 0 when
    /// `RecoveryConfig::claim_risk_scoring` is off.
    pub recovery_lockouts: u64,
    /// Owner claims that hit a step-up challenge.
    pub recovery_step_ups: u64,
    /// Recovery-pivot claims filed by crews stopped at the login
    /// challenge. Always 0 when `RecoveryConfig::adversary_pivot` is
    /// off.
    pub pivot_attempts: u64,
    /// Pivot claims that took the account over.
    pub pivot_takeovers: u64,
}

/// The assembled world.
///
/// `Clone` is the copy-on-write fork primitive: the `Arc`-shared
/// structural fields below (geo plan, domain model, population +
/// contact graph) are shared by pointer, while all mutable simulation
/// state (logs, stores, RNG streams, per-user columns) is deep-copied,
/// so a forked world costs O(dynamic state), not O(world).
#[derive(Clone)]
pub struct Ecosystem {
    pub config: ScenarioConfig,
    /// Immutable after build; shared across forks.
    pub geo: Arc<GeoDb>,
    /// Immutable after build; shared across forks.
    pub domains: Arc<DomainModel>,
    pub phones: PhonePlan,
    pub provider: MailProvider,
    pub credentials: CredentialStore,
    pub options: RecoveryOptions,
    pub twofactor: TwoFactorState,
    /// Immutable after build (profiles + contact graph); shared across
    /// forks.
    pub population: Arc<Population>,
    pub crews: CrewRoster,
    pub playbook: HijackPlaybook,
    pub login: LoginPipeline,
    pub login_log: LoginLog,
    pub classifier: MailClassifier,
    pub monitor: ActivityMonitor,
    pub notifications: NotificationEngine,
    pub recovery: RecoveryService,
    pub detection: DetectionPipeline,
    pub referrers: ReferrerModel,
    /// Report stores are crate-private: external readers go through the
    /// [`Ecosystem::pages`]/[`Ecosystem::takedowns`]/[`Ecosystem::incidents`]/
    /// [`Ecosystem::sessions`] accessors so only the simulation loop can
    /// mutate them.
    pub(crate) pages: Vec<PhishingPage>,
    pub(crate) takedowns: Vec<TakedownRecord>,
    pub(crate) incidents: Vec<Incident>,
    pub(crate) sessions: Vec<SessionReport>,
    pub disabled: HashSet<AccountId>,
    pub stats: RunStats,
    /// Ecosystem-level metrics not owned by any subsystem (queue depth,
    /// incident counts); merged into [`Ecosystem::metrics_snapshot`].
    pub obs: Registry,
    /// Decoy accounts injected by the Figure 7 experiment.
    pub decoy_accounts: HashSet<AccountId>,
    users: UserStates,
    /// Decoy submissions scheduled by the Figure 7 experiment.
    pending_decoys: Vec<(SimTime, AccountId, CrewId)>,
    /// Lures queued from outside this shard (cross-shard contact-graph
    /// mail routed by the sharded engine at day barriers).
    pending_external_lures: Vec<(SimTime, AccountId, CrewId)>,
    /// Captured credentials diverted to the cross-shard market instead
    /// of the local dropbox; drained by the engine at day barriers.
    market_outbox: Vec<(CrewId, CapturedCredential)>,
    /// Prompt dropbox pickups queued by capture_credential, run between
    /// events (never re-entrantly).
    pending_pickups: Vec<(usize, CapturedCredential, SimTime)>,
    /// Which crew a delivered lure feeds, keyed by dense message index.
    /// Shard-0 message ids fill the dense region; ids carrying a shard
    /// tag in the high byte land in the map's overflow region.
    lure_index: DenseMap<LureSource>,
    /// Per-crew current link-lure page (index into `pages`).
    crew_pages: Vec<Option<usize>>,
    /// Per-crew (hour index, sessions run that hour) budget tracker.
    crew_hour_used: Vec<(u64, u64)>,
    log_cursor: usize,
    now: SimTime,
    next_campaign: u32,
    rng_world: SimRng,
    rng_organic: SimRng,
    rng_crew: SimRng,
    rng_campaign: SimRng,
    rng_recovery: SimRng,
    rng_market: SimRng,
}

/// A day's worth of scheduled happenings, processed in time order.
enum Event {
    Lure { at: SimTime, target: AccountId, crew: CrewId },
    OrganicLogin { at: SimTime, user: AccountId },
    CrewShift { at: SimTime, crew_index: usize },
    ClaimSweep { at: SimTime },
    DecoySubmission { at: SimTime, account: AccountId, crew: CrewId },
}

impl Event {
    fn at(&self) -> SimTime {
        match self {
            Event::Lure { at, .. }
            | Event::OrganicLogin { at, .. }
            | Event::CrewShift { at, .. }
            | Event::ClaimSweep { at }
            | Event::DecoySubmission { at, .. } => *at,
        }
    }
}

impl Ecosystem {
    /// Build the world (population day 0 content is backdated).
    pub fn build(config: ScenarioConfig) -> Self {
        let geo = GeoDb::new();
        let domains = DomainModel::standard();
        let mut phones = PhonePlan::new();
        let mut provider = MailProvider::for_shard(config.shard);
        let mut credentials = CredentialStore::new();
        let mut options = RecoveryOptions::new();
        let mut twofactor = TwoFactorState::new();
        let mut rng_pop = SimRng::shard_stream(config.seed, config.shard, "population");
        let population = PopulationBuilder {
            provider: &mut provider,
            credentials: &mut credentials,
            options: &mut options,
            twofactor: &mut twofactor,
            phones: &mut phones,
            geo: &geo,
            domains: &domains,
        }
        .build(&config.population, SimTime::EPOCH, &mut rng_pop);

        let engine = if config.defense.login_risk_analysis {
            RiskEngine::default()
        } else {
            RiskEngine::disabled()
        };
        let mut login = LoginPipeline::new(engine);
        for u in &population.users {
            login.register(u.account);
        }
        // Seed login histories so day-0 organic logins are not all
        // cold-start: replay 10 synthetic home logins per user.
        let mut login_log = LoginLog::for_shard(config.shard);
        for u in &population.users {
            // Invariant: the population generator only assigns home IPs
            // drawn from the geo plan.
            #[allow(clippy::expect_used)]
            let country = geo.locate(u.home_ip).expect("home IP is in plan");
            login.warm_up_standard(u.account, country, u.device);
            let _ = &mut login_log; // appended during the run only
        }

        let mut rng_crews = SimRng::shard_stream(config.seed, config.shard, "crews");
        let crews = CrewRoster::build(config.crews.clone(), config.era, &geo, &mut rng_crews);
        let crew_pages = vec![None; crews.crews.len()];
        let crew_hour_used = vec![(u64::MAX, 0); crews.crews.len()];

        let mut users = UserStates::default();
        for u in &population.users {
            users.push(credentials.password_for_capture(u.account));
        }

        Ecosystem {
            geo: Arc::new(geo),
            domains: Arc::new(domains),
            phones,
            provider,
            credentials,
            options,
            twofactor,
            population: Arc::new(population),
            crews,
            playbook: HijackPlaybook::default(),
            login,
            login_log,
            classifier: MailClassifier::default(),
            monitor: ActivityMonitor::default(),
            notifications: NotificationEngine::for_shard(config.shard),
            recovery: RecoveryService::new(),
            detection: DetectionPipeline::paper_calibrated(),
            referrers: ReferrerModel::paper_calibrated(),
            pages: Vec::new(),
            takedowns: Vec::new(),
            incidents: Vec::new(),
            sessions: Vec::new(),
            disabled: HashSet::new(),
            stats: RunStats::default(),
            obs: Registry::new()
                .with_gauge(M_DROPBOX_PENDING)
                .with_counter(M_DROPBOX_LOST)
                .with_counter(M_INCIDENTS),
            decoy_accounts: HashSet::new(),
            users,
            pending_decoys: Vec::new(),
            pending_external_lures: Vec::new(),
            market_outbox: Vec::new(),
            pending_pickups: Vec::new(),
            lure_index: DenseMap::new(),
            crew_pages,
            crew_hour_used,
            log_cursor: 0,
            now: SimTime::EPOCH,
            next_campaign: 0,
            rng_world: SimRng::shard_stream(config.seed, config.shard, "world"),
            rng_organic: SimRng::shard_stream(config.seed, config.shard, "organic"),
            rng_crew: SimRng::shard_stream(config.seed, config.shard, "crew"),
            rng_campaign: SimRng::shard_stream(config.seed, config.shard, "campaign"),
            rng_recovery: SimRng::shard_stream(config.seed, config.shard, "recovery"),
            rng_market: SimRng::shard_stream(config.seed, config.shard, "market"),
            config,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Phishing pages stood up by crews so far (Dataset 2's raw feed).
    pub fn pages(&self) -> &[PhishingPage] {
        &self.pages
    }

    /// Takedown records for detected phishing pages.
    pub fn takedowns(&self) -> &[TakedownRecord] {
        &self.takedowns
    }

    /// All hijacking incidents, including decoy-account incidents.
    /// [`Ecosystem::real_incidents`] filters to the organic population.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Hijack-session reports, indexed by [`Incident::session`].
    pub fn sessions(&self) -> &[SessionReport] {
        &self.sessions
    }

    /// Register an extra (decoy) account that is not part of the organic
    /// population. Returns its id.
    pub fn add_decoy_account(&mut self, local: &str) -> AccountId {
        let address = EmailAddress::new(local, self.domains.home.name.clone());
        let account = self.provider.create_account(address);
        self.credentials
            .register(account, &format!("decoy-pw-{}", account.index()));
        self.options.register(account);
        self.twofactor.register(account);
        self.login.register(account);
        self.decoy_accounts.insert(account);
        account
    }

    /// Deliver a captured credential into a crew's dropbox (used by the
    /// lure-click path and the decoy experiment). If the crew is at its
    /// desks with hourly budget left, an operator picks the head of the
    /// queue up within minutes — the fast quantile of Figure 7.
    pub fn capture_credential(&mut self, crew: CrewId, credential: CapturedCredential) -> bool {
        // Professional crews trade a share of their fresh captures on
        // the credential market (§5's specialized underground roles).
        // `market_share` defaults to 0, so unsharded runs never draw
        // from `rng_market` and stay bit-identical to earlier builds.
        if self.rng_market.chance(self.config.market_share) {
            self.market_outbox.push((crew, credential));
            return true;
        }
        let at = credential.captured_at;
        let delivered = self.crews.crews[crew.index()].dropbox.deliver(credential);
        if !delivered {
            return false;
        }
        self.stats.credentials_captured += 1;
        let idx = crew.index();
        if self.crews.crews[idx].is_working(at) && self.hour_budget_left(idx, at) {
            if let Some(next) = self.crews.crews[idx].dropbox.pop() {
                self.note_hour_use(idx, at);
                // Operator reaction time: minutes, occasionally longer
                // when busy (log-normal, median ≈ 35 min). The session
                // itself runs after the current event finishes (no
                // re-entrancy into in-flight organic activity).
                let delay = self
                    .rng_crew
                    .lognormal((25.0 * 60.0f64).ln(), 1.0)
                    .clamp(120.0, 3.0 * 3600.0) as u64;
                let start = at.plus(SimDuration::from_secs(delay));
                self.pending_pickups.push((idx, next, start));
            }
        }
        true
    }

    fn hour_budget_left(&self, crew_index: usize, at: SimTime) -> bool {
        let hour = at.as_secs() / HOUR;
        let (h, used) = self.crew_hour_used[crew_index];
        h != hour || used < self.config.crew_creds_per_hour
    }

    fn note_hour_use(&mut self, crew_index: usize, at: SimTime) {
        let hour = at.as_secs() / HOUR;
        let entry = &mut self.crew_hour_used[crew_index];
        if entry.0 != hour {
            *entry = (hour, 1);
        } else {
            entry.1 += 1;
        }
    }

    /// Run the full scenario.
    pub fn run(&mut self) {
        for day in 0..self.config.days {
            self.run_day(day);
        }
    }

    /// Run one day.
    pub fn run_day(&mut self, day: u64) {
        let day_start = SimTime::from_secs(day * DAY);
        self.now = self.now.max(day_start);
        self.rotate_dropboxes(day_start);
        let mut events = self.schedule_day(day);
        events.sort_by_key(|e| e.at());
        for event in events {
            self.now = self.now.max(event.at());
            match event {
                Event::Lure { at, target, crew } => self.deliver_lure(at, target, crew),
                Event::OrganicLogin { at, user } => self.organic_session(at, user),
                Event::CrewShift { at, crew_index } => self.crew_shift(at, crew_index),
                Event::ClaimSweep { at } => self.claim_sweep(at),
                Event::DecoySubmission { at, account, crew } => {
                    self.submit_credential(account, crew, PageId(u32::MAX), at)
                }
            }
            // Prompt pickups triggered by this event (operators grabbing
            // freshly captured credentials off the dropbox).
            while let Some((idx, credential, start)) = self.pending_pickups.pop() {
                self.run_hijack_session(idx, &credential, start, true);
            }
        }
        // End-of-day queue depth: credentials captured but not yet picked
        // up by any operator (a simulated-time quantity, so it belongs in
        // the deterministic report).
        let depth: usize = self.crews.crews.iter().map(|c| c.dropbox.pending()).sum();
        self.obs.gauge_set(M_DROPBOX_PENDING, depth as u64);
    }

    /// Merge every subsystem registry (login log, mail provider, risk
    /// pipeline, behavioral monitor, notifications, detection, playbook,
    /// recovery, plus [`Ecosystem::obs`]) into one name-sorted snapshot.
    ///
    /// Every value is a pure function of the simulated events, so for a
    /// fixed `(seed, config)` the snapshot is identical no matter how
    /// the run was scheduled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::merge_all([
            self.login_log.metrics().snapshot(),
            self.provider.metrics().snapshot(),
            self.login.metrics().snapshot(),
            self.monitor.metrics().snapshot(),
            self.notifications.metrics().snapshot(),
            self.detection.metrics().snapshot(),
            self.playbook.metrics().snapshot(),
            self.recovery.metrics().snapshot(),
            self.obs.snapshot(),
        ])
    }

    /// The deterministic end-of-run report for this (unsharded) world.
    /// Sharded runs build theirs via `ShardedRun::run_report`, which
    /// merges the per-shard snapshots instead.
    pub fn run_report(&self) -> RunReport {
        RunReport::new(
            self.config.seed,
            1,
            self.config.days as u32,
            self.config.population.n_users as u32,
            self.metrics_snapshot(),
        )
    }

    // ---- fork support ----

    /// Swap the active defense configuration mid-world. Most defenses
    /// (mail classifier, activity monitor, notifications) are read from
    /// `config.defense` per event, but the login risk engine is baked
    /// into the pipeline at build time, so flipping
    /// `login_risk_analysis` swaps the engine in place. Used by forked
    /// continuations diverging on defense config.
    pub fn set_defense(&mut self, defense: crate::config::DefenseConfig) {
        if defense.login_risk_analysis != self.config.defense.login_risk_analysis {
            *self.login.engine_mut() = if defense.login_risk_analysis {
                RiskEngine::default()
            } else {
                RiskEngine::disabled()
            };
        }
        self.config.defense = defense;
    }

    /// Swap the active recovery risk policy mid-world. Unlike the login
    /// risk engine, nothing recovery-side is baked at build time —
    /// claims are scored per filing against `config.recovery` — so the
    /// swap is a plain config write. Used by forked continuations
    /// diverging on recovery posture (the `sweep` grid's second axis).
    pub fn set_recovery(&mut self, recovery: crate::config::RecoveryConfig) {
        self.config.recovery = recovery;
    }

    /// Deterministically perturb every shard RNG stream from its
    /// current position mixed with `salt`. Used by forked continuations
    /// diverging on seed: the same `(snapshot, salt)` pair always
    /// produces the same divergent world, while distinct salts (or
    /// distinct fork points) produce unrelated draw sequences.
    pub(crate) fn perturb_rngs(&mut self, salt: u64) {
        let streams = [
            &mut self.rng_world,
            &mut self.rng_organic,
            &mut self.rng_crew,
            &mut self.rng_campaign,
            &mut self.rng_recovery,
            &mut self.rng_market,
        ];
        for (i, rng) in streams.into_iter().enumerate() {
            rng.perturb(salt ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }

    // ---- checkpoint support ----

    /// Raw positions of every shard RNG stream, in canonical order
    /// (world, organic, crew, campaign, recovery, market). The
    /// engine's checkpoint layer records these at day barriers and, on
    /// resume, proves the replayed streams sit at exactly the recorded
    /// positions.
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        vec![
            self.rng_world.state(),
            self.rng_organic.state(),
            self.rng_crew.state(),
            self.rng_campaign.state(),
            self.rng_recovery.state(),
            self.rng_market.state(),
        ]
    }

    /// Lengths of the three event-log segments (logins, mail events,
    /// notifications) — the checkpointed "how far has this shard
    /// logged" coordinates.
    pub fn log_lens(&self) -> [u64; 3] {
        [
            self.login_log.len() as u64,
            self.provider.log().len() as u64,
            self.notifications.log().len() as u64,
        ]
    }

    /// FNV-1a digest over this shard's barrier state: the event-log
    /// extents and boundary keys, the aggregate counters, every report
    /// store's extent and latest entry, the pending cross-shard queues,
    /// the clock and the RNG stream positions.
    ///
    /// This is a verification digest, not a serialization: any
    /// behavioral divergence during a resume replay moves at least one
    /// RNG stream (and almost always several logs), so comparing this
    /// digest against the checkpointed one catches a changed binary,
    /// config drift or bit rot before the engine continues the run.
    pub fn state_digest(&self) -> u64 {
        use mhw_types::fnv::{fnv1a, OFFSET as FNV_OFFSET};
        let mut h = FNV_OFFSET;
        let mut line = String::new();
        macro_rules! mix {
            ($($arg:tt)*) => {{
                line.clear();
                let _ = write!(line, $($arg)*);
                h = fnv1a(h, line.as_bytes());
            }};
        }
        mix!("lens{:?}", self.log_lens());
        mix!("login-edge{:?}{:?}",
            self.login_log.store().first().map(|e| e.key),
            self.login_log.store().last().map(|e| e.key));
        mix!("mail-edge{:?}", self.provider.log().last().map(|e| e.key));
        mix!("notif-edge{:?}", self.notifications.log().last().map(|e| e.key));
        mix!("stats{:?}", self.stats);
        mix!("pages{}|takedowns{}", self.pages.len(), self.takedowns.len());
        mix!("incidents{}|{:?}", self.incidents.len(), self.incidents.last());
        mix!("sessions{}|{:?}", self.sessions.len(), self.sessions.last());
        mix!("disabled{}", self.disabled.len());
        mix!("ext-lures{:?}", self.pending_external_lures);
        mix!("market-outbox{:?}", self.market_outbox);
        mix!("decoys{:?}", self.pending_decoys);
        mix!("now{:?}|campaign{}", self.now, self.next_campaign);
        for state in self.rng_states() {
            mix!("rng{state:?}");
        }
        h
    }

    // ---- scheduling ----

    fn schedule_day(&mut self, day: u64) -> Vec<Event> {
        let day_start = SimTime::from_secs(day * DAY);
        let mut events = Vec::new();

        // Organic logins, diurnal per user timezone.
        for u in &self.population.users {
            self.users.travelling_today[u.account.index()] =
                self.rng_organic.chance(u.travel_propensity);
            let n = self.rng_organic.poisson(u.logins_per_day);
            for _ in 0..n {
                // Local waking hours 7..23.
                let local_hour = 7 + self.rng_organic.below(16);
                let utc_hour =
                    (local_hour as i64 - u.country.utc_offset_hours() as i64).rem_euclid(24) as u64;
                let at = day_start
                    .plus(SimDuration::from_secs(utc_hour * HOUR + self.rng_organic.below(HOUR)));
                events.push(Event::OrganicLogin { at, user: u.account });
            }
        }

        // Lure blasts.
        let n_users = self.population.users.len();
        let expected = self.config.lures_per_user_day * n_users as f64;
        let n_lures = self.rng_campaign.poisson(expected);
        for _ in 0..n_lures {
            let target =
                self.population.users[self.rng_campaign.below(n_users as u64) as usize].account;
            let crew_idx = self.crews.sample_crew(&mut self.rng_campaign);
            let at = day_start.plus(SimDuration::from_secs(self.rng_campaign.below(DAY)));
            events.push(Event::Lure { at, target, crew: CrewId::from_index(crew_idx) });
        }

        // Crew shifts: one per working hour per crew.
        for (i, crew) in self.crews.crews.iter().enumerate() {
            for h in 0..24u64 {
                let at = day_start.plus(SimDuration::from_secs(h * HOUR));
                if crew.is_working(at) {
                    events.push(Event::CrewShift { at, crew_index: i });
                }
            }
        }

        // Claim sweeps every 20 minutes (victims file as soon as they
        // are aware; coarse sweeps would quantize Figure 9's fast tail).
        for h in 0..24u64 {
            for m in [10u64, 30, 50] {
                events.push(Event::ClaimSweep {
                    at: day_start.plus(SimDuration::from_secs(h * HOUR + m * 60)),
                });
            }
        }

        // Decoy submissions due today.
        let day_end = day_start.plus(SimDuration::from_days(1));
        let mut remaining = Vec::new();
        for (at, account, crew) in self.pending_decoys.drain(..) {
            if at < day_end {
                events.push(Event::DecoySubmission { at: at.max(day_start), account, crew });
            } else {
                remaining.push((at, account, crew));
            }
        }
        self.pending_decoys = remaining;

        // Cross-shard contact-graph lures due today (queued at a day
        // barrier by the sharded engine; empty in unsharded runs).
        let mut later = Vec::new();
        for (at, target, crew) in self.pending_external_lures.drain(..) {
            if at < day_end {
                events.push(Event::Lure { at: at.max(day_start), target, crew });
            } else {
                later.push((at, target, crew));
            }
        }
        self.pending_external_lures = later;
        events
    }

    // ---- cross-shard exchange (driven by the sharded engine at day
    // ---- barriers; every method is deterministic in shard-local state)

    /// Queue a lure delivered from another shard's hijacked contact.
    /// It fires on the day containing `at`.
    pub fn queue_external_lure(&mut self, at: SimTime, target: AccountId, crew: CrewId) {
        self.pending_external_lures.push((at, target, crew));
    }

    /// Take the credentials this shard's crews put up for sale since
    /// the last barrier, in capture order.
    pub fn drain_market_outbox(&mut self) -> Vec<(CrewId, CapturedCredential)> {
        std::mem::take(&mut self.market_outbox)
    }

    /// Deliver a market-bought credential into `crew`'s dropbox. Unlike
    /// [`Ecosystem::capture_credential`] there is no prompt operator
    /// pickup — purchases wait for the next crew shift — and no re-sale.
    pub fn import_market_credential(&mut self, crew: CrewId, credential: CapturedCredential) -> bool {
        let delivered = self.crews.crews[crew.index()].dropbox.deliver(credential);
        if delivered {
            self.stats.credentials_captured += 1;
        }
        delivered
    }

    /// Schedule a decoy-credential submission (the §5.1 honeypot
    /// experiment): at time `at` the defender "types" the decoy's valid
    /// credentials into a phishing page belonging to `crew`.
    pub fn schedule_decoy_submission(&mut self, at: SimTime, account: AccountId, crew: CrewId) {
        assert!(
            self.decoy_accounts.contains(&account),
            "decoy submissions need a registered decoy account"
        );
        self.pending_decoys.push((at, account, crew));
    }

    fn rotate_dropboxes(&mut self, day_start: SimTime) {
        for crew in &mut self.crews.crews {
            if !crew.dropbox.is_active(day_start) {
                // The crew stands up a fresh dropbox overnight. Anything
                // still queued in the torn-down one never reaches an
                // operator — account for it before the count resets.
                self.obs
                    .add(M_DROPBOX_LOST, (crew.dropbox.lost() + crew.dropbox.pending()) as u64);
                crew.dropbox = Dropbox::new(crew.id);
            } else if self.rng_campaign.chance(self.config.dropbox_suspension_per_day) {
                crew.dropbox.suspend(day_start.plus(SimDuration::from_secs(
                    self.rng_campaign.below(DAY),
                )));
            }
        }
    }

    // ---- lures ----

    /// Ensure crew `idx` has a live phishing page; returns its index.
    fn ensure_crew_page(&mut self, idx: usize, at: SimTime) -> usize {
        if let Some(p) = self.crew_pages[idx] {
            if self.pages[p].is_live(at) {
                return p;
            }
        }
        let id = PageId(self.pages.len() as u32);
        let campaign = CampaignId(self.next_campaign);
        self.next_campaign += 1;
        let mut page = PhishingPage::new(
            id,
            campaign,
            mhw_types::AccountCategory::Mail,
            PageQuality::sample(&mut self.rng_campaign),
            at,
        );
        let takedown = self.detection.process(&mut page, &mut self.rng_campaign);
        self.takedowns.push(takedown);
        self.pages.push(page);
        let index = self.pages.len() - 1;
        self.crew_pages[idx] = Some(index);
        index
    }

    fn deliver_lure(&mut self, at: SimTime, target: AccountId, crew: CrewId) {
        let link = self.rng_campaign.chance(0.62); // §4.1 structure mix
        let source = if link {
            let page = self.ensure_crew_page(crew.index(), at);
            LureSource::Page(page, crew)
        } else {
            LureSource::Direct(crew)
        };
        let structure = if link {
            mhw_phishkit::targets::LureStructure::LinkToPage
        } else {
            mhw_phishkit::targets::LureStructure::ReplyWithCredentials
        };
        // Phishers A/B-test wording; a minority of lures use evasive
        // phrasing that slips past the content classifier.
        let evasive = self.rng_campaign.chance(0.25);
        let (subject, body) = if evasive {
            evasive_lure_text(structure)
        } else {
            mhw_phishkit::targets::lure_text(mhw_types::AccountCategory::Mail, structure)
        };
        let draft = MessageDraft {
            to: vec![self.provider.address_of(target).clone()],
            subject,
            body,
            attachments: Vec::new(),
            kind: MessageKind::PhishingLure,
            reply_to: None,
        };
        let from = EmailAddress::new(
            format!("security-team{}", self.rng_campaign.below(50)),
            "account-alerts.net",
        );
        let classifier_enabled = self.config.defense.mail_classifier;
        let leniency = self.config.contact_leniency;
        let (classifier, graph, rng) =
            (&mut self.classifier, &self.population.graph, &mut self.rng_world);
        let id = self.provider.deliver_external(target, from, &draft, at, |m| {
            spam_decision(classifier, classifier_enabled, leniency, graph, None, rng, m)
        });
        self.stats.lures_delivered += 1;
        if self.provider.mailbox(target).folder_of(id) == Some(Folder::Spam) {
            self.stats.lures_spam_foldered += 1;
        }
        self.lure_index.insert(id.index() as u32, source);
        self.drain_monitor_top();
    }

    fn drain_monitor_top(&mut self) {
        if !self.config.defense.activity_monitor {
            self.log_cursor = self.provider.log().len();
            return;
        }
        let log = self.provider.log();
        let mut flagged = Vec::new();
        for event in log.iter_from(self.log_cursor) {
            let v = self.monitor.observe(&event);
            if v.flagged && !self.disabled.contains(&event.account) {
                flagged.push((event.account, event.at));
            }
        }
        self.log_cursor = log.len();
        for (account, at) in flagged {
            self.disabled.insert(account);
            if self.config.defense.notifications {
                self.notifications.notify(
                    account,
                    mhw_defense::NotificationEvent::UnusualActivity,
                    &self.options,
                    at,
                    &mut self.rng_world,
                );
            }
            // Anti-abuse disable interrupts any ongoing incident.
            if let Some(idx) = self.users.active_incident(account.index()) {
                let inc = &mut self.incidents[idx];
                if inc.disabled_at.is_none() {
                    inc.disabled_at = Some(at);
                }
            }
        }
    }

    // ---- organic activity ----

    fn owner_capabilities(&self, account: AccountId) -> AnswererCapabilities {
        let opts = self.options.get(account);
        let phone_ok = opts.phone.as_ref().map(|p| p.up_to_date).unwrap_or(false);
        let recall = opts.question.as_ref().map(|q| q.owner_recall).unwrap_or(0.75);
        // The owner controls the enrolled second factor unless a crew
        // swapped the enrolled phone (the 2FA-lockout tactic).
        let controls_2fa = self
            .twofactor
            .audit(account)
            .last()
            .map(|e| !e.actor.is_hijacker())
            .unwrap_or(true);
        AnswererCapabilities::owner(phone_ok, recall).with_second_factor(controls_2fa)
    }

    fn organic_session(&mut self, at: SimTime, account: AccountId) {
        // Skip decoys (they have no owner).
        if self.decoy_accounts.contains(&account) {
            return;
        }
        if self.disabled.contains(&account) {
            // The provider disabled the account; the owner finds out now.
            self.mark_aware(account, at);
            return;
        }
        let idx = account.index();
        // Copy out the profile scalars the session needs instead of
        // cloning the whole profile (address and friends) per login.
        let vitals = UserVitals::of(&self.population.users[idx]);
        let travelling = self.users.travelling_today[idx];
        let (ip, _) =
            self.population.users[idx].login_origin(&self.geo, &mut self.rng_organic, travelling);
        let password = self.users.password(idx).to_string();
        let request = LoginRequest {
            at,
            account,
            ip,
            device: vitals.device,
            password,
            actor: Actor::Owner,
            capabilities: self.owner_capabilities(account),
        };
        let ctx = LoginContext {
            credentials: &self.credentials,
            options: &self.options,
            twofactor: &self.twofactor,
            geo: &self.geo,
        };
        let outcome =
            self.login
                .attempt(&request, &ctx, &mut self.login_log, &mut self.rng_organic);
        self.stats.organic_logins += 1;
        if let Some(record) = self.login_log.store().last() {
            if record.challenge.is_some() {
                self.stats.organic_challenges += 1;
                if !record.outcome.is_success() {
                    self.stats.organic_challenge_failures += 1;
                }
            }
        }
        match outcome {
            LoginOutcome::WrongPassword => {
                // If a hijacker rotated the password, the owner now knows.
                if self
                    .users
                    .active_incident(idx)
                    .map(|i| {
                        self.credentials
                            .hijacker_changed_since(account, self.incidents[i].hijack_start)
                    })
                    .unwrap_or(false)
                {
                    self.mark_aware(account, at);
                }
            }
            LoginOutcome::Success => self.organic_mail_activity(at, account, vitals),
            LoginOutcome::SecondFactorFailed => {
                // A second factor the owner does not control means a
                // crew swapped it: the lockout is unmistakable.
                if self.users.active_incident(idx).is_some() {
                    self.mark_aware(account, at);
                }
            }
            LoginOutcome::ChallengeFailed | LoginOutcome::Blocked => {}
        }
    }

    fn organic_mail_activity(&mut self, at: SimTime, account: AccountId, user: UserVitals) {
        let mut t = at.plus(SimDuration::from_secs(30));
        // Read a few unread inbox messages, newest first; react to abuse.
        let unread: Vec<MessageId> =
            self.provider.mailbox(account).newest_unread_inbox().take(12).collect();
        for id in unread {
            // The message can vanish mid-session (a hijack session for a
            // *different* captured credential may purge mail between
            // events); skip silently like a real UI would.
            let Some((kind, from)) = self
                .provider
                .mailbox(account)
                .get(id)
                .map(|m| (m.kind, m.from.clone()))
            else {
                continue;
            };
            self.provider.read_message(account, Actor::Owner, id, t);
            t += SimDuration::from_secs(20 + self.rng_organic.below(60));
            if kind.is_abusive() && self.rng_organic.chance(user.report_propensity) {
                self.provider.report_spam(account, id, t);
                continue;
            }
            if kind == MessageKind::PhishingLure {
                if self.provider.resolve(&from).is_some() {
                    self.stats.contact_lures_read += 1;
                }
                self.maybe_fall_for_lure(t, account, user, id, &from);
            }
        }
        // Personal mail to contacts.
        let sends = self
            .rng_organic
            .poisson(user.sends_per_day / user.logins_per_day.max(0.2));
        for _ in 0..sends.min(6) {
            let contacts = self.population.graph.sample_contacts(account, 2, &mut self.rng_organic);
            if contacts.is_empty() {
                break;
            }
            let to: Vec<EmailAddress> = contacts
                .iter()
                .map(|c| self.provider.address_of(*c).clone())
                .collect();
            let draft = MessageDraft::personal(to, "catching up", "hey, quick note — let's talk soon");
            self.send_as(account, Actor::Owner, draft, t);
            t += SimDuration::from_secs(60 + self.rng_organic.below(120));
        }
        // Occasional own-mailbox search (FP material for the monitor).
        if self
            .rng_organic
            .chance(user.searches_per_day / user.logins_per_day.max(0.2))
        {
            let queries = [
                "meeting notes",
                "flight confirmation",
                "photos",
                "bank statement",
                "invoice",
                "recipe",
            ];
            let q = queries[self.rng_organic.below(queries.len() as u64) as usize];
            self.provider.search_mailbox(account, Actor::Owner, q, t);
        }
        self.drain_monitor_top();
    }

    fn send_as(&mut self, from: AccountId, actor: Actor, draft: MessageDraft, at: SimTime) {
        let classifier_enabled = self.config.defense.mail_classifier;
        let leniency = self.config.contact_leniency;
        let (classifier, graph, rng) =
            (&mut self.classifier, &self.population.graph, &mut self.rng_world);
        self.provider.send(from, actor, draft, at, |m| {
            spam_decision(classifier, classifier_enabled, leniency, graph, Some(from), rng, m)
        });
    }

    fn maybe_fall_for_lure(
        &mut self,
        at: SimTime,
        account: AccountId,
        user: UserVitals,
        message: MessageId,
        from: &EmailAddress,
    ) {
        let Some(mut source) = self.lure_index.get(message.index() as u32).copied() else {
            return; // a hijacker-forwarded copy or seeded mail
        };
        // A share of contact-phished credentials gets sold on rather
        // than exploited by the phishing crew itself (§5.5 notes shared
        // resources; credential markets spread the spoils).
        if let LureSource::Direct(_) = source {
            if self.rng_organic.chance(0.3) {
                let resold = self.crews.sample_crew(&mut self.rng_organic);
                source = LureSource::Direct(CrewId::from_index(resold));
            }
        }
        // Trust boost when the lure came from a contact's (hijacked)
        // account — §5.3's rationale for contact phishing.
        let from_contact = self
            .provider
            .resolve(from)
            .map(|sender| {
                sender.index() < self.population.graph.len()
                    && self.population.graph.contacts_of(account).contains(&sender)
            })
            .unwrap_or(false);
        let trust = if from_contact { 1.8 } else { 1.0 };
        match source {
            LureSource::Page(page_idx, crew) => {
                let click = (user.gullibility * 0.9 * trust).clamp(0.0, 0.9);
                if !self.rng_organic.chance(click) {
                    return;
                }
                // Page may already be down.
                let live = self.pages[page_idx].is_live(at);
                let referrer = self.referrers.sample_referrer(&mut self.rng_organic);
                if !live {
                    return;
                }
                self.pages[page_idx].record_get(at, referrer);
                let submit = (self.pages[page_idx].quality.base_conversion()
                    * user.gullibility
                    * 4.5
                    * trust)
                    .clamp(0.0, 0.9);
                if self.rng_organic.chance(submit) {
                    self.pages[page_idx]
                        .record_post(at, referrer, self.provider.address_of(account).clone());
                    self.submit_credential(account, crew, source_page_id(&self.pages[page_idx]), at);
                }
            }
            LureSource::Direct(crew) => {
                let reply = (user.gullibility * 0.42 * trust).clamp(0.0, 0.8);
                if self.rng_organic.chance(reply) {
                    if from_contact {
                        self.stats.contact_lure_captures += 1;
                    }
                    self.submit_credential(account, crew, PageId(u32::MAX), at);
                }
            }
        }
    }

    /// Victim typo model + dropbox delivery.
    fn submit_credential(&mut self, account: AccountId, crew: CrewId, page: PageId, at: SimTime) {
        let real = self.credentials.password_for_capture(account).to_string();
        // Exactness mix calibrated so crews end up presenting a correct
        // password (incl. variant retries) ~75% of the time (§5.1).
        let (typed, exactness) = {
            let r = self.rng_organic.f64();
            if r < 0.64 {
                (real.clone(), CredentialExactness::Exact)
            } else if r < 0.77 {
                // A trivial variant: case slip on the first character.
                let mut v: Vec<char> = real.chars().collect();
                if let Some(c) = v.first_mut() {
                    *c = c.to_ascii_uppercase();
                }
                (v.into_iter().collect(), CredentialExactness::TrivialVariant)
            } else {
                (format!("{real}-oops-wrong"), CredentialExactness::Wrong)
            }
        };
        let is_decoy = self.decoy_accounts.contains(&account);
        let victim_country = (!is_decoy && account.index() < self.population.users.len())
            .then(|| self.population.users[account.index()].country);
        let credential = CapturedCredential {
            address: self.provider.address_of(account).clone(),
            password_typed: typed,
            exactness,
            page,
            captured_at: at,
            victim_country,
            is_decoy,
        };
        self.capture_credential(crew, credential);
    }

    // ---- crew shifts ----

    fn crew_shift(&mut self, at: SimTime, crew_index: usize) {
        // The shift covers [at, at + 1h): operators pick queued
        // credentials up within minutes of arrival while at their desks
        // (Figure 7's fast quantile), bounded by the hourly budget.
        let budget = self.config.crew_creds_per_hour;
        let hour_end = at.plus(SimDuration::from_secs(HOUR));
        for k in 0..budget {
            if !self.hour_budget_left(crew_index, at) {
                break;
            }
            let Some(credential) = ({
                let crew = &mut self.crews.crews[crew_index];
                match crew.dropbox.peek() {
                    Some(c) if c.captured_at < hour_end => crew.dropbox.pop(),
                    _ => None,
                }
            }) else {
                break;
            };
            self.note_hour_use(crew_index, at);
            let queue_slot = at.plus(SimDuration::from_secs(k * (HOUR / budget.max(1))));
            let pickup = credential
                .captured_at
                .plus(SimDuration::from_secs(240 + self.rng_crew.below(900)));
            let start = queue_slot.max(pickup);
            self.run_hijack_session(crew_index, &credential, start, true);
        }
    }

    fn run_hijack_session(
        &mut self,
        crew_index: usize,
        credential: &CapturedCredential,
        start: SimTime,
        allow_pivot: bool,
    ) {
        let mut lure_sink: Vec<(MessageId, CrewId)> = Vec::new();
        let report = {
            let Ecosystem {
                provider,
                credentials,
                options,
                twofactor,
                login,
                login_log,
                geo,
                population,
                classifier,
                monitor,
                notifications,
                disabled,
                log_cursor,
                rng_world,
                rng_crew,
                crews,
                playbook,
                phones,
                config,
                ..
            } = self;
            let mut adapter = WorldAdapter {
                provider,
                credentials,
                options,
                twofactor,
                login,
                login_log,
                geo,
                population,
                classifier,
                classifier_enabled: config.defense.mail_classifier,
                contact_leniency: config.contact_leniency,
                monitor: config.defense.activity_monitor.then_some(monitor),
                notifications: Some(notifications),
                notifications_enabled: config.defense.notifications,
                disabled,
                log_cursor,
                lure_sink: &mut lure_sink,
                rng: rng_world,
            };
            playbook.run_session(
                &mut crews.crews[crew_index],
                credential,
                &mut adapter,
                phones,
                start,
                rng_crew,
            )
        };
        for (id, crew) in lure_sink {
            self.lure_index.insert(id.index() as u32, LureSource::Direct(crew));
        }
        self.stats.sessions_run += 1;
        // A crew that typed a working password but was stopped by the
        // login challenge knows the credential is good — with the pivot
        // enabled it may try the "forgot password" route instead. The
        // config gate sits before any draw, and `allow_pivot` stops a
        // pivot-won session from pivoting again.
        let pivot_candidate = allow_pivot
            && self.config.recovery.adversary_pivot
            && report.password_eventually_correct
            && !report.logged_in
            && !report.was_decoy;
        let ended_at = report.ended_at;
        self.register_session(report);
        if pivot_candidate {
            self.attempt_recovery_pivot(crew_index, credential, ended_at);
        }
    }

    /// The recovery-pivot attack: a crew stopped at the login challenge
    /// files a recovery claim for the account, backed by whatever
    /// personal data its research turned up. On takeover the crew
    /// re-enters through the ordinary session machinery, so incidents,
    /// victim awareness and (owner) recovery all follow as usual.
    fn attempt_recovery_pivot(
        &mut self,
        crew_index: usize,
        credential: &CapturedCredential,
        after: SimTime,
    ) {
        let Some(account) = self.provider.resolve(&credential.address) else {
            return;
        };
        if self.disabled.contains(&account) {
            return;
        }
        let Some(plan) =
            mhw_adversary::plan_pivot(&self.crews.crews[crew_index], &mut self.rng_crew)
        else {
            return;
        };
        self.stats.pivot_attempts += 1;
        let (exit, device, crew_id) = {
            let crew = &self.crews.crews[crew_index];
            (crew.current_exit(), crew.device, crew.id)
        };
        let country = self.geo.locate(exit);
        // Research and form-filling take a little while.
        let filed_at = after.plus(SimDuration::from_secs(300 + self.rng_crew.below(1800)));
        let assessment = if self.config.recovery.claim_risk_scoring {
            let svc = RecoveryRiskService::new(self.config.recovery.posture);
            let signals = svc.extract(
                self.login.service.history(account),
                filed_at,
                country,
                device,
                1,
                self.options.get(account),
            );
            svc.assess(&signals)
        } else {
            // Unscored worlds wave every claim through — the pivot then
            // measures the raw channel weakness.
            ClaimAssessment { score: 0.0, verdict: RecoveryVerdict::Allow, step_up_pass: 1.0 }
        };
        let mut takeover_p =
            hijacker_takeover_probability(self.options.get(account), plan.research_quality);
        if assessment.verdict == RecoveryVerdict::StepUp {
            // The step-up challenge (out-of-band proof) is much harder
            // for an attacker than the knowledge test.
            takeover_p *= 0.35;
        }
        let resolution = self.recovery.process_hijacker_claim(
            account,
            after,
            filed_at,
            assessment,
            takeover_p,
            Actor::Hijacker(crew_id),
            &mut self.credentials,
            &mut self.rng_recovery,
        );
        if resolution.password_reset {
            self.stats.pivot_takeovers += 1;
            let resolved_at = resolution.claim.resolved_at.unwrap_or(filed_at);
            let fresh = CapturedCredential {
                address: credential.address.clone(),
                password_typed: self.credentials.password_for_capture(account).to_string(),
                exactness: CredentialExactness::Exact,
                page: credential.page,
                captured_at: resolved_at,
                victim_country: credential.victim_country,
                is_decoy: credential.is_decoy,
            };
            let start = resolved_at.plus(SimDuration::from_secs(120 + self.rng_crew.below(600)));
            self.run_hijack_session(crew_index, &fresh, start, false);
        }
    }

    /// Record a finished session: incident bookkeeping and victim
    /// awareness scheduling.
    fn register_session(&mut self, report: SessionReport) {
        let session_index = self.sessions.len();
        let logged_in = report.logged_in;
        let account = report.account;
        self.sessions.push(report);
        let Some(account) = account else {
            return;
        };
        if !logged_in {
            return;
        }
        let report = &self.sessions[session_index];
        self.stats.incidents += 1;
        if report.exploited {
            self.stats.exploited += 1;
        }
        let id = IncidentId(self.incidents.len() as u32);
        let disabled_at = self
            .disabled
            .contains(&account)
            .then_some(report.ended_at);
        let incident = Incident {
            id,
            account,
            crew: report.crew,
            hijack_start: report.started_at,
            session: session_index,
            disabled_at,
            // The provider's risk systems mark the anomalous login; the
            // Figure 9 clock starts here (§6.2: "the time our risk
            // analysis system flagged the account as hijacked").
            flagged_at: Some(disabled_at.unwrap_or(report.started_at)),
            recovered_at: None,
            remission: None,
            is_decoy: report.was_decoy,
        };
        let incident_index = self.incidents.len();
        self.obs.inc(M_INCIDENTS);
        self.incidents.push(incident);
        if account.index() < self.users.len() {
            self.users.open_incident(account.index(), incident_index);
            self.schedule_awareness(incident_index);
        }
    }

    fn schedule_awareness(&mut self, incident_index: usize) {
        let (account, started, ended, scam_count, locked_out) = {
            let inc = &self.incidents[incident_index];
            let report = &self.sessions[inc.session];
            (
                inc.account,
                inc.hijack_start,
                report.ended_at,
                report.messages_sent,
                report.retention.password_changed,
            )
        };
        let mut candidates: Vec<SimTime> = Vec::new();
        // Notifications reach the victim out of band.
        if let Some(n) = self.notifications.first_delivered_after(account, started) {
            let reaction = self
                .rng_recovery
                .lognormal((0.6 * 3600.0f64).ln(), 1.3)
                .clamp(180.0, 48.0 * 3600.0) as u64;
            candidates.push(n.at.plus(SimDuration::from_secs(reaction)));
        }
        // Contacts who received a scam may warn the victim.
        if scam_count > 0 {
            let p = 1.0 - (-0.20 * scam_count as f64).exp();
            if self.rng_recovery.chance(p) {
                let delay = self
                    .rng_recovery
                    .lognormal((14.0 * 3600.0f64).ln(), 0.8)
                    .clamp(3600.0, 5.0 * 24.0 * 3600.0) as u64;
                candidates.push(ended.plus(SimDuration::from_secs(delay)));
            }
        }
        // Locked-out victims notice at their next login attempt — no
        // schedule needed (the organic path marks awareness); but a
        // rarely-active locked-out user eventually tries email and
        // fails: add a backstop at +3 days.
        if locked_out {
            candidates.push(ended.plus(SimDuration::from_days(2)));
        }
        if let Some(min) = candidates.into_iter().min() {
            let aware = &mut self.users.aware_at[account.index()];
            *aware = Some(aware.map_or(min, |a| a.min(min)));
        }
    }

    fn mark_aware(&mut self, account: AccountId, at: SimTime) {
        let idx = account.index();
        if idx >= self.users.len() {
            return;
        }
        if self.users.active_incident(idx).is_none() {
            return;
        }
        let aware = &mut self.users.aware_at[idx];
        *aware = Some(aware.map_or(at, |a| a.min(at)));
        if self.users.next_claim_at[idx].is_none() {
            // Filing takes a little while (finding the form, §6.1).
            let delay = 120 + self.rng_recovery.below(1200);
            self.users.next_claim_at[idx] = Some(at.plus(SimDuration::from_secs(delay)));
        }
    }

    // ---- recovery ----

    /// File every claim due at `at`, in ascending account order. Only
    /// users with an open incident can be due, so the sweep visits
    /// those alone.
    fn claim_sweep(&mut self, at: SimTime) {
        debug_assert!(
            self.users.open_incidents_match_column(),
            "the open-incident set disagrees with the incident column"
        );
        let users = &self.users;
        let due: Vec<AccountId> = users
            .open_incidents
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| users.claim_due(i, at))
            .map(AccountId::from_index)
            .collect();
        for account in due {
            self.file_claim(account, at);
        }
    }

    // Invariants, not error handling: callers only schedule a claim for
    // users with an active incident, incidents are created flagged, and
    // a succeeded claim always carries its resolution time.
    #[allow(clippy::expect_used)]
    fn file_claim(&mut self, account: AccountId, at: SimTime) {
        let incident_index = self.users.active_incident(account.index()).expect("checked");
        let (hijacked_at, disabled_at, flagged_at, recovered) = {
            let inc = &self.incidents[incident_index];
            (
                inc.hijack_start,
                inc.disabled_at,
                inc.flagged_at.expect("set at incident creation"),
                inc.recovered_at.is_some(),
            )
        };
        if recovered {
            self.users.close_incident(account.index());
            return;
        }
        let trigger = if disabled_at.is_some() {
            ClaimTrigger::AccountDisabled
        } else if self.notifications.first_delivered_after(account, hijacked_at).is_some() {
            ClaimTrigger::Notification
        } else {
            ClaimTrigger::SelfNoticed
        };
        let _ = disabled_at;
        // A claim cannot enter the recovery pipeline before the
        // provider's risk systems flag the account — §6.2 starts the
        // Figure 9 latency clock at flagging, so a victim alerted
        // mid-session waits until the flag lands. Without this floor,
        // a notification-triggered claim filed before the recorded
        // flagging instant resolves "before" the flag, yielding
        // negative recovery latencies.
        let filed_at = at.max(flagged_at);
        let failed_methods = self.users.failed_methods(account.index()).to_vec();
        // Risk-score the claim when the scenario asks for it. The gate
        // sits before any draw (the `market_share` pattern), so worlds
        // with scoring off keep the legacy `rng_recovery` sequence
        // byte-for-byte.
        let assessment = if self.config.recovery.claim_risk_scoring {
            let user = &self.population.users[account.index()];
            // Locked-out victims often file from a borrowed machine;
            // the claim still originates from their home country.
            let device = if self.rng_recovery.chance(0.25) {
                mhw_types::DeviceId(0x4000_0000 | account.index() as u32)
            } else {
                user.device
            };
            let svc = RecoveryRiskService::new(self.config.recovery.posture);
            let signals = svc.extract(
                self.login.service.history(account),
                filed_at,
                Some(user.country),
                device,
                1, // the recovery portal does not share the login IP cache
                self.options.get(account),
            );
            Some(svc.assess(&signals))
        } else {
            None
        };
        let resolution = self.recovery.process_claim_assessed(
            account,
            hijacked_at,
            flagged_at,
            trigger,
            filed_at,
            &self.options,
            &mut self.credentials,
            &failed_methods,
            assessment,
            &mut self.rng_recovery,
        );
        match assessment.map(|a| a.verdict) {
            Some(RecoveryVerdict::StepUp) => self.stats.recovery_step_ups += 1,
            Some(RecoveryVerdict::Deny) => self.stats.recovery_lockouts += 1,
            _ => {}
        }
        self.users.claim_attempts[account.index()] += 1;
        if resolution.claim.succeeded {
            let resolved_at = resolution.claim.resolved_at.expect("resolved");
            let mut remission = run_remission(
                account,
                hijacked_at,
                resolved_at,
                &mut self.provider,
                &mut self.options,
                &mut self.twofactor,
            );
            // §5.4's recovery checklist: review any surviving redirect
            // settings against doppelganger heuristics (this is the
            // provider-visible path — no ground-truth actor labels).
            let owner_addr = self.provider.address_of(account).clone();
            let flagged: Vec<_> =
                mhw_defense::review_filters(&owner_addr, self.provider.filters(account))
                    .into_iter()
                    .filter(|(_, v)| v.needs_review())
                    .map(|(id, _)| id)
                    .collect();
            for id in flagged {
                self.provider.remove_filter(account, Actor::System, id, resolved_at);
                remission.filters_removed += 1;
            }
            if let Some(reply_to) = self.provider.reply_to(account).cloned() {
                if mhw_defense::classify_redirect(&owner_addr, &reply_to).needs_review() {
                    self.provider.set_reply_to(account, Actor::System, None, resolved_at);
                    remission.reply_to_reverted = true;
                }
            }
            let inc = &mut self.incidents[incident_index];
            inc.recovered_at = Some(resolved_at);
            inc.remission = Some(remission);
            self.stats.recovered += 1;
            self.users.clear_incident(account.index());
            self.users
                .set_password(account.index(), self.credentials.password_for_capture(account));
            self.disabled.remove(&account);
            // Monitoring state should not immediately re-flag the owner.
        } else {
            if let Some(m) = resolution.claim.method {
                self.users.note_failed_method(account.index(), m);
            }
            // Users retry a failed claim later the same day or the next
            // morning (§6.3: multiple options are offered), switching to
            // a different channel.
            let delay = 6 * HOUR + self.rng_recovery.below(12 * HOUR);
            self.users.next_claim_at[account.index()] =
                Some(at.plus(SimDuration::from_secs(delay)));
        }
    }

    /// Run an automated-hijacking (botnet) campaign through the same
    /// defenses — the Figure 1 taxonomy baseline. The bot's logins and
    /// spam go through the identical pipeline crews face.
    pub fn run_bot_campaign(
        &mut self,
        bot: &mhw_adversary::automation::SpamBot,
        credentials: &[(EmailAddress, String)],
        start: SimTime,
    ) -> mhw_adversary::automation::BotCampaignReport {
        let Ecosystem {
            provider,
            credentials: cred_store,
            options,
            twofactor,
            login,
            login_log,
            geo,
            population,
            classifier,
            monitor,
            notifications,
            disabled,
            log_cursor,
            rng_world,
            rng_crew,
            config,
            ..
        } = self;
        let mut bot_lures = Vec::new();
        let mut adapter = WorldAdapter {
            provider,
            credentials: cred_store,
            options,
            twofactor,
            login,
            login_log,
            geo,
            population,
            classifier,
            classifier_enabled: config.defense.mail_classifier,
            contact_leniency: config.contact_leniency,
            monitor: config.defense.activity_monitor.then_some(monitor),
            notifications: Some(notifications),
            notifications_enabled: config.defense.notifications,
            disabled,
            log_cursor,
            lure_sink: &mut bot_lures,
            rng: rng_world,
        };
        bot.run_campaign(credentials, &mut adapter, start, rng_crew)
    }

    /// Incidents against real users (excluding decoy probes).
    pub fn real_incidents(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter().filter(|i| !i.is_decoy)
    }
}

fn source_page_id(page: &PhishingPage) -> PageId {
    page.id
}

/// A mail lure worded to slip past the content classifier (no filter
/// is perfect — §8.1's false-negative side).
fn evasive_lure_text(structure: mhw_phishkit::targets::LureStructure) -> (String, String) {
    let (subject, body) = match structure {
        mhw_phishkit::targets::LureStructure::LinkToPage => (
            "Important notice about your mailbox",
            "Due to a system migration, your mailbox access will be \
             interrupted. Kindly re-validate your access at \
             http://mail-migration.example/start to avoid any \
             inconvenience.",
        ),
        mhw_phishkit::targets::LureStructure::ReplyWithCredentials => (
            "Mailbox re-validation",
            "Due to a system migration, kindly send back your mailbox \
             sign-in details so our team can migrate your data without \
             interruption.",
        ),
    };
    (subject.to_string(), body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DefenseConfig, ScenarioConfig};

    fn small(seed: u64) -> Ecosystem {
        let mut config = ScenarioConfig::small_test(seed);
        config.days = 10;
        Ecosystem::build(config)
    }

    #[test]
    fn world_builds_and_runs() {
        let mut eco = small(1);
        eco.run();
        assert!(eco.stats.organic_logins > 1000, "{:?}", eco.stats);
        assert!(eco.stats.lures_delivered > 300, "{:?}", eco.stats);
        assert!(eco.stats.credentials_captured > 0, "{:?}", eco.stats);
        assert!(eco.stats.sessions_run > 0, "{:?}", eco.stats);
    }

    #[test]
    fn incidents_happen_and_some_recover() {
        let mut eco = small(2);
        eco.run();
        assert!(eco.stats.incidents > 0, "{:?}", eco.stats);
        assert!(eco.stats.recovered > 0, "{:?}", eco.stats);
        // Recovered incidents have consistent timelines.
        for inc in &eco.incidents {
            if let Some(r) = inc.recovered_at {
                assert!(r > inc.hijack_start);
                assert!(inc.flagged_at.is_some());
                assert!(inc.flagged_at.unwrap() <= r);
            }
        }
    }

    #[test]
    fn most_lures_are_spam_foldered() {
        let mut eco = small(3);
        eco.run();
        let frac = eco.stats.lures_spam_foldered as f64 / eco.stats.lures_delivered.max(1) as f64;
        assert!(frac > 0.65, "spam-folder rate {frac}");
        assert!(frac < 1.0, "some lures must reach inboxes");
    }

    #[test]
    fn hijacker_logins_recorded_with_ground_truth() {
        let mut eco = small(4);
        eco.run();
        let crew_logins = eco
            .login_log
            .records()
            .filter(|r| matches!(r.actor, Actor::Hijacker(_)))
            .count();
        assert!(crew_logins > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = small(42);
        let mut b = small(42);
        a.run();
        b.run();
        assert_eq!(a.stats.organic_logins, b.stats.organic_logins);
        assert_eq!(a.stats.incidents, b.stats.incidents);
        assert_eq!(a.stats.credentials_captured, b.stats.credentials_captured);
        assert_eq!(a.login_log.len(), b.login_log.len());
        assert_eq!(a.sessions.len(), b.sessions.len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = small(7);
        let mut b = small(8);
        a.run();
        b.run();
        assert_ne!(
            (a.stats.organic_logins, a.login_log.len()),
            (b.stats.organic_logins, b.login_log.len())
        );
    }

    #[test]
    fn disabling_defenses_increases_exploitation() {
        let mut defended = small(9);
        defended.run();
        let mut config = ScenarioConfig::small_test(9);
        config.days = 10;
        config.defense = DefenseConfig::none();
        let mut undefended = Ecosystem::build(config);
        undefended.run();
        // Without defenses, at least as many sessions succeed end-to-end.
        assert!(
            undefended.stats.exploited >= defended.stats.exploited,
            "undefended {:?} vs defended {:?}",
            undefended.stats,
            defended.stats
        );
        // And nobody gets challenged.
        assert_eq!(undefended.stats.organic_challenges, 0);
        assert!(defended.stats.organic_challenges > 0);
    }

    #[test]
    fn recovered_accounts_get_password_reset_and_remission() {
        let mut config = ScenarioConfig::small_test(10);
        config.days = 16; // enough runway for claims to resolve
        config.lures_per_user_day = 2.0; // plenty of incidents
        let mut eco = Ecosystem::build(config);
        eco.run();
        let recovered: Vec<_> = eco
            .incidents
            .iter()
            .filter(|i| i.recovered_at.is_some())
            .collect();
        assert!(!recovered.is_empty());
        for inc in recovered {
            assert!(inc.remission.is_some());
            // Owner's known password works again — unless the account
            // was hijacked *again* after this recovery.
            let rehijacked = eco
                .credentials
                .hijacker_changed_since(inc.account, inc.recovered_at.unwrap());
            if !rehijacked {
                let pw = eco.users.password(inc.account.index());
                assert!(eco.credentials.verify(inc.account, pw));
            }
        }
    }

    #[test]
    fn decoy_accounts_are_isolated_from_population() {
        let mut eco = small(11);
        let d = eco.add_decoy_account("decoy-probe-0");
        assert!(eco.decoy_accounts.contains(&d));
        // Decoys never generate organic logins; run and verify no Owner
        // records exist for the decoy.
        eco.run();
        let owner_logins = eco
            .login_log
            .records()
            .filter(|r| r.account == d && r.actor == Actor::Owner)
            .count();
        assert_eq!(owner_logins, 0);
    }

    /// Through the classifier's memo, the spam decision equals a fresh
    /// classification for every text the simulator makes: the mail
    /// lures, the two evasive lures, every scam variant, and whatever a
    /// run leaves in its mailboxes (seeded templates, organic and crew
    /// mail). It holds for the run's own memo, keyed by the provider's
    /// shared texts, and for the texts re-allocated and re-paired.
    #[test]
    fn memoized_spam_decision_matches_fresh_classification() {
        use mhw_adversary::scamgen::{generate_scam, ScamStyle};
        use mhw_defense::MailClass;
        use mhw_mailsys::Message;
        use mhw_phishkit::targets::{lure_text, LureStructure};
        use mhw_types::{AccountCategory, Language};

        let structures = [LureStructure::LinkToPage, LureStructure::ReplyWithCredentials];
        let mut texts: Vec<(String, String)> = structures.map(evasive_lure_text).to_vec();
        for category in AccountCategory::ALL {
            texts.extend(structures.map(|s| lure_text(category, s)));
        }
        let mut rng = SimRng::from_seed(21);
        for style in [ScamStyle::MuggedInCity, ScamStyle::SickRelative] {
            for language in
                [Language::English, Language::French, Language::Spanish, Language::Chinese]
            {
                for customized in [false, true] {
                    // Each call draws one of the six cities.
                    for _ in 0..12 {
                        texts.push(generate_scam(style, language, "Alex", customized, &mut rng));
                    }
                }
            }
        }

        let mut eco = small(13);
        eco.run();
        let mut classifier = eco.classifier.clone();
        for account in (0..eco.provider.account_count()).map(AccountId::from_index) {
            for m in eco.provider.mailbox(account).all_messages() {
                let fresh = classifier.classify(m) != MailClass::Clean;
                assert_eq!(classifier.should_spam_folder(m), fresh, "{:?}", m.subject);
                texts.push((m.subject.to_string(), m.body.to_string()));
            }
        }
        texts.sort();
        texts.dedup();
        assert!(texts.len() > 100, "only {} distinct texts", texts.len());

        // Two allocations of each text. Each pick pairs a subject with
        // its own body (either allocation) or with any other body.
        let twice = |t: &str| [Arc::<str>::from(t), Arc::<str>::from(t)];
        let subjects: Vec<Arc<str>> = texts.iter().flat_map(|(s, _)| twice(s)).collect();
        let bodies: Vec<Arc<str>> = texts.iter().flat_map(|(_, b)| twice(b)).collect();
        let mut template: Message =
            eco.provider.mailbox(AccountId(0)).all_messages().next().cloned().expect("seeded mail");
        let mut classifier = eco.classifier.clone();
        for _ in 0..3 * subjects.len() {
            let s = rng.below(subjects.len() as u64) as usize;
            let b = if rng.chance(0.5) {
                s ^ rng.below(2) as usize
            } else {
                rng.below(bodies.len() as u64) as usize
            };
            template.subject = Arc::clone(&subjects[s]);
            template.body = Arc::clone(&bodies[b]);
            let fresh = classifier.classify(&template) != MailClass::Clean;
            assert_eq!(classifier.should_spam_folder(&template), fresh, "{:?}", template.subject);
        }
    }

    #[test]
    fn crew_sessions_respect_office_hours() {
        let mut eco = small(12);
        eco.run();
        for s in &eco.sessions {
            let crew = eco.crews.get(s.crew);
            // Sessions start during a shift, or within the operator
            // pickup-delay bound (≤3 h) after one — crews finish what
            // they picked up near close of business.
            let started_recently_working = (0..=3).any(|h| {
                crew.schedule
                    .is_active(SimTime::from_secs(s.started_at.as_secs().saturating_sub(h * HOUR)))
            });
            assert!(started_recently_working, "session at {} outside crew hours", s.started_at);
        }
    }
}
