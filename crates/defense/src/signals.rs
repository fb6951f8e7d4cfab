//! Login risk signals.
//!
//! §8.2: "Our system uses many signals (that we can't disclose for
//! obvious reasons) to evaluate how anomalous a login attempt is." This
//! module reconstructs a defensible signal set from what the paper's
//! observations imply matters:
//!
//! * **country novelty** — hijack logins overwhelmingly come from
//!   countries the victim never logs in from (Figure 11);
//! * **geo-velocity** — a login from a different country minutes after
//!   the owner's home login is physically impossible;
//! * **device novelty** — crews use their own browsers/tools;
//! * **IP fan-out** — how many distinct accounts one IP touches in a
//!   day. §5.1 shows crews deliberately keep this under ~10, which makes
//!   the signal *weak against manual hijacking* — reproducing that
//!   tension is the point of the ablation benches;
//! * **odd hours** — logins far outside the account's usual hours;
//! * **failure bursts** — recent wrong-password attempts.
//!
//! Each signal is normalized to `[0, 1]`. Signals only ever read
//! provider-visible state — never ground-truth actor labels.
//!
//! ## Bounded state
//!
//! All tracker state is bounded so a [`RiskService`] instance can score
//! an unbounded login stream in fixed memory: per-account device
//! tracking is a sliding window of the [`MAX_TRACKED_DEVICES`] most
//! recently seen devices, failure history keeps at most
//! [`MAX_RECENT_FAILURES`] timestamps, and [`IpReputation`] caps both
//! the number of tracked IPs (LRU eviction via [`LruCache`]) and the
//! distinct accounts counted per IP per day. The caps are sized so
//! eviction never triggers at simulation scale — batch runs stay
//! byte-identical — while serve mode stays O(capacity) under millions
//! of distinct IPs.
//!
//! [`RiskService`]: crate::service::RiskService
//! [`LruCache`]: crate::lru::LruCache

use crate::lru::LruCache;
use crate::small_list::SmallList;
use mhw_types::{AccountId, CountryCode, DenseMap, DeviceId, IpAddr, SimDuration, SimTime};

/// Sliding-window cap on devices remembered per account.
///
/// Real users cycle through a handful of browsers/cookies; 32 covers
/// every simulated profile (owners hold one stable device, crews mint
/// fresh ones) so the window never evicts a device the batch pipeline
/// would have remembered.
pub const MAX_TRACKED_DEVICES: usize = 32;

/// Cap on remembered failed-attempt timestamps per account.
///
/// The failure-burst signal saturates at 5 failures/day, so anything
/// beyond 16 retained timestamps cannot change a score.
pub const MAX_RECENT_FAILURES: usize = 16;

/// Default LRU capacity for the per-IP fan-out cache.
pub const DEFAULT_IP_CACHE_CAPACITY: usize = 65_536;

/// Cap on distinct accounts counted per IP per day.
///
/// The fan-out signal clamps at 20 accounts, so the count saturating
/// at 64 is semantically invisible.
pub const MAX_ACCOUNTS_PER_IP: usize = 64;

/// Inline device slots per account before the window spills to the heap.
const INLINE_DEVICES: usize = 7;

/// Inline failure slots per account before the window spills to the heap.
const INLINE_FAILURES: usize = 3;

/// Inline account slots per IP before the list spills to the heap.
const INLINE_ACCOUNTS_PER_IP: usize = 3;

/// Each country is one bit of [`AccountHistory`]'s country mask.
const _: () = assert!(CountryCode::ALL.len() <= 32);

/// Per-account login history, updated on successful logins.
///
/// One flat record of at most 128 bytes: counts and masks inline, and
/// both windows inline until they outgrow their first few slots, when
/// that window alone moves to the heap. An owner's record is read in
/// one go, with no heap hop.
#[derive(Debug, Clone)]
pub struct AccountHistory {
    /// Time of the most recent successful login (meaningful only when
    /// `last_country` is set).
    last_at: SimTime,
    /// Successful logins recorded.
    logins: u32,
    /// Countries a successful login came from: bit `c as u32`.
    countries: u32,
    /// Hours of the day (UTC) a successful login was made in: bit `h`.
    hours: u32,
    /// Country of the most recent successful login.
    last_country: Option<CountryCode>,
    /// Sliding window of recently seen devices, oldest first. A device
    /// seen again moves to the back (most recent), so the window evicts
    /// by recency, not insertion order.
    devices: SmallList<DeviceId, INLINE_DEVICES>,
    /// Recent failed attempts (time-pruned, bounded), oldest first.
    recent_failures: SmallList<SimTime, INLINE_FAILURES>,
}

const _: () = assert!(std::mem::size_of::<AccountHistory>() <= 128);

impl Default for AccountHistory {
    fn default() -> Self {
        AccountHistory {
            last_at: SimTime::EPOCH,
            logins: 0,
            countries: 0,
            hours: 0,
            last_country: None,
            devices: SmallList::default(),
            recent_failures: SmallList::default(),
        }
    }
}

/// For each hour `h`, the hours within two of it around the clock.
const NEAR_HOURS: [u32; 24] = {
    let mut masks = [0u32; 24];
    let mut h = 0;
    while h < 24 {
        let mut d = 0;
        while d < 5 {
            masks[h] |= 1 << ((h + 24 + d - 2) % 24);
            d += 1;
        }
        h += 1;
    }
    masks
};

impl AccountHistory {
    /// Total successful logins recorded on this account.
    pub fn total_logins(&self) -> u32 {
        self.logins
    }

    /// Whether a successful login was ever recorded from `country`.
    pub fn has_country(&self, country: CountryCode) -> bool {
        self.countries & country_bit(country) != 0
    }

    /// Whether `device` is inside the tracked-device window.
    pub fn has_device(&self, device: DeviceId) -> bool {
        self.devices.contains(&device)
    }

    /// Number of devices currently inside the window.
    pub fn tracked_devices(&self) -> usize {
        self.devices.len()
    }

    /// Record a successful login.
    pub fn record_success(&mut self, at: SimTime, country: CountryCode, device: DeviceId) {
        self.logins += 1;
        self.countries |= country_bit(country);
        if let Some(pos) = self.devices.as_slice().iter().position(|d| *d == device) {
            self.devices.remove(pos);
        } else if self.devices.len() >= MAX_TRACKED_DEVICES {
            self.devices.drop_front(1);
        }
        self.devices.push(device);
        self.last_at = at;
        self.last_country = Some(country);
        self.hours |= 1 << at.hour_of_day();
    }

    /// Record a failed attempt.
    ///
    /// Failures more than 24 h before `at` leave from the front, up to
    /// the first recent one; then the oldest leave until `at` fits
    /// under [`MAX_RECENT_FAILURES`], and `at` is appended.
    pub fn record_failure(&mut self, at: SimTime) {
        let window = self.recent_failures.as_slice();
        let stale = window
            .iter()
            .take_while(|t| at.since(**t) > SimDuration::from_hours(24))
            .count();
        let over = (window.len() - stale + 1).saturating_sub(MAX_RECENT_FAILURES);
        self.recent_failures.drop_front(stale + over);
        self.recent_failures.push(at);
    }

    /// Retained bytes: the record plus any window that spilled to the
    /// heap (used only for capacity reporting, never scoring).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }

    /// Bytes of windows that spilled to the heap.
    fn heap_bytes(&self) -> usize {
        self.devices.heap_bytes() + self.recent_failures.heap_bytes()
    }

    /// Failed attempts recorded within 24 h of `at` — the raw count
    /// behind the failure-burst signal, also used by the serve tier's
    /// cheap load-shedding prior.
    pub fn failures_in_last_day(&self, at: SimTime) -> usize {
        self.recent_failures
            .as_slice()
            .iter()
            .filter(|t| at.since(**t) <= SimDuration::from_hours(24))
            .count()
    }

    /// The most recent successful login (time, country).
    fn last_success(&self) -> Option<(SimTime, CountryCode)> {
        self.last_country.map(|c| (self.last_at, c))
    }

    /// Whether a successful login was ever made within two hours of
    /// hour-of-day `hour`, around the clock.
    fn used_hours_near(&self, hour: u32) -> bool {
        self.hours & NEAR_HOURS[hour as usize] != 0
    }
}

/// `country`'s bit in [`AccountHistory`]'s country mask.
fn country_bit(country: CountryCode) -> u32 {
    1 << country as u32
}

/// One IP's activity for the day it was last seen.
#[derive(Debug, Clone)]
struct IpDayActivity {
    /// Day index the counts below belong to.
    day: u64,
    /// Distinct accounts seen from this IP that day (saturating at
    /// [`MAX_ACCOUNTS_PER_IP`]). The first few are inline, so an IP that
    /// serves one account allocates nothing.
    accounts: SmallList<AccountId, INLINE_ACCOUNTS_PER_IP>,
}

/// Provider-wide per-IP activity tracker (the fan-out signal).
///
/// Backed by a fixed-capacity [`LruCache`]: under serve-mode traffic
/// touching millions of distinct addresses, memory stays
/// O(`capacity`). Entries are day-scoped, so LRU eviction only becomes
/// observable if more than `capacity` distinct IPs log in within one
/// simulated day — far above simulation scale.
#[derive(Debug, Clone)]
pub struct IpReputation {
    today: LruCache<IpAddr, IpDayActivity>,
    accounts_per_ip: usize,
}

impl Default for IpReputation {
    fn default() -> Self {
        Self::new()
    }
}

impl IpReputation {
    /// Tracker with the default bounds ([`DEFAULT_IP_CACHE_CAPACITY`],
    /// [`MAX_ACCOUNTS_PER_IP`]).
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_IP_CACHE_CAPACITY, MAX_ACCOUNTS_PER_IP)
    }

    /// Tracker with explicit bounds (for tests and tuned deployments).
    pub fn with_limits(ip_cache_capacity: usize, accounts_per_ip: usize) -> Self {
        IpReputation {
            today: LruCache::new(ip_cache_capacity),
            accounts_per_ip: accounts_per_ip.max(1),
        }
    }

    /// Record an attempt and return how many distinct accounts this IP
    /// has touched today (including this one).
    pub fn observe(&mut self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        let day = at.day_index();
        let cap = self.accounts_per_ip;
        let entry = self
            .today
            .get_or_insert_with(ip, || IpDayActivity { day, accounts: SmallList::default() });
        if entry.day != day {
            entry.day = day;
            entry.accounts = SmallList::default();
        }
        if !entry.accounts.contains(&account) && entry.accounts.len() < cap {
            entry.accounts.push(account);
        }
        entry.accounts.len()
    }

    /// What [`IpReputation::observe`] *would* return for this attempt,
    /// without recording it: the distinct-account count including this
    /// attempt, from a pure read (no recency touch, no mutation).
    ///
    /// This is the assess-side view — scoring reads the projection, and
    /// only a later commit makes it real. A request that is shed or
    /// never committed therefore leaves no trace in the cache.
    pub fn projected_fanout(&self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        match self.today.peek(&ip).filter(|a| a.day == at.day_index()) {
            Some(a) if a.accounts.contains(&account) || a.accounts.len() >= self.accounts_per_ip => {
                a.accounts.len()
            }
            Some(a) => a.accounts.len() + 1,
            None => 1,
        }
    }

    /// Drop every cached entry — the serve tier's `cache-wipe` fault.
    /// The next observation of any IP starts from a cold, empty cache.
    pub fn wipe(&mut self) {
        self.today.clear();
    }

    /// Current distinct-account count for an IP (0 if unseen today).
    /// Reads without touching LRU recency.
    pub fn fanout(&self, ip: IpAddr, at: SimTime) -> usize {
        self.today
            .peek(&ip)
            .filter(|a| a.day == at.day_index())
            .map(|a| a.accounts.len())
            .unwrap_or(0)
    }

    /// Number of IPs currently cached.
    pub fn len(&self) -> usize {
        self.today.len()
    }

    /// True when no IP has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.today.is_empty()
    }

    /// The LRU capacity bound.
    pub fn capacity(&self) -> usize {
        self.today.capacity()
    }

    /// Retained bytes: the cache's slot arena and index, plus the
    /// account lists that spilled to the heap.
    pub fn approx_bytes(&self) -> usize {
        self.today.storage_bytes()
            + self.today.values().map(|a| a.accounts.heap_bytes()).sum::<usize>()
    }
}

/// The history store for all accounts.
///
/// Total: any [`AccountId`] can be read or written, registered or not.
/// Unknown accounts read as an empty history and are materialized on
/// first write — serve mode sees never-before-seen accounts safely,
/// and the batch pipeline no longer needs dense pre-registration.
///
/// Backed by a [`DenseMap`]: account ids are allocated densely from 0,
/// so a batch world's histories live in one `Vec` indexed by account
/// — no hashing on the per-login hot path. Serve-mode traffic with
/// sparse or namespaced ids falls back to the map's overflow region.
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    accounts: DenseMap<AccountHistory>,
    /// Shared read-only default for accounts with no history yet.
    empty: AccountHistory,
}

impl HistoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store pre-sized for accounts `0..n` (admits the whole
    /// population to the dense region up front).
    pub fn with_capacity(n: usize) -> Self {
        HistoryStore {
            accounts: DenseMap::with_dense_capacity(n),
            empty: AccountHistory::default(),
        }
    }

    /// Pre-materialize an account's (empty) history. Optional — the
    /// store is total either way — but keeps batch setup explicit.
    pub fn register(&mut self, account: AccountId) {
        let key = account.index() as u32;
        if self.accounts.get(key).is_none() {
            self.accounts.insert(key, AccountHistory::default());
        }
    }

    /// This account's history; an empty default if never seen.
    pub fn get(&self, account: AccountId) -> &AccountHistory {
        self.accounts.get(account.index() as u32).unwrap_or(&self.empty)
    }

    /// The shared empty history — the degraded-scoring fallback when
    /// the history source is down ("treat as a new account").
    pub fn fallback(&self) -> &AccountHistory {
        &self.empty
    }

    /// Mutable history, materializing an empty one for new accounts.
    pub fn get_mut(&mut self, account: AccountId) -> &mut AccountHistory {
        let key = account.index() as u32;
        if self.accounts.get(key).is_none() {
            self.accounts.insert(key, AccountHistory::default());
        }
        self.accounts.get_mut(key).expect("just materialized")
    }

    /// Number of accounts with materialized history.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True when no account has history yet.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Devices tracked across all accounts (each bounded by
    /// [`MAX_TRACKED_DEVICES`]).
    pub fn tracked_devices(&self) -> usize {
        self.accounts.values().map(|h| h.tracked_devices()).sum()
    }

    /// Retained bytes: the store's record table plus the windows that
    /// spilled to the heap.
    pub fn approx_bytes(&self) -> usize {
        self.accounts.storage_bytes()
            + self.accounts.values().map(|h| h.heap_bytes()).sum::<usize>()
    }
}

/// Normalized signal vector for one login attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoginSignals {
    /// 1.0 if the country was never seen on this account.
    pub new_country: f64,
    /// Geo-velocity: country change faster than plausible travel.
    pub impossible_travel: f64,
    /// 1.0 if the device was never seen.
    pub new_device: f64,
    /// IP fan-out, saturating at ~20 accounts/day.
    pub ip_fanout: f64,
    /// Login at an hour this account never uses.
    pub odd_hour: f64,
    /// Recent failed attempts, saturating at 5/day.
    pub failure_burst: f64,
}

impl LoginSignals {
    /// The six signals as a fixed array (engine weight order).
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.new_country,
            self.impossible_travel,
            self.new_device,
            self.ip_fanout,
            self.odd_hour,
            self.failure_burst,
        ]
    }
}

/// Minimum plausible hours to appear in a different country (commercial
/// flight + airport overhead).
const MIN_TRAVEL_HOURS: u64 = 6;

/// Extract signals for a login attempt.
///
/// `fanout_today` is the distinct-account count from [`IpReputation`]
/// *including* this attempt.
pub fn extract_signals(
    history: &AccountHistory,
    at: SimTime,
    country: Option<CountryCode>,
    device: DeviceId,
    fanout_today: usize,
) -> LoginSignals {
    let mut s = LoginSignals::default();

    // Brand-new accounts have no baseline; signals stay low so we do not
    // hard-lock fresh users (cold-start policy).
    let cold_start = history.total_logins() < 3;

    if let Some(c) = country {
        if !cold_start && !history.has_country(c) {
            s.new_country = 1.0;
        }
        if let Some((last_at, last_country)) = history.last_success() {
            if last_country != c && at.since(last_at) < SimDuration::from_hours(MIN_TRAVEL_HOURS)
            {
                s.impossible_travel = 1.0;
            }
        }
    } else {
        // Unlocatable IP: mildly suspicious in itself.
        s.new_country = 0.5;
    }

    if !cold_start && !history.has_device(device) {
        s.new_device = 1.0;
    }

    s.ip_fanout = ((fanout_today.saturating_sub(1)) as f64 / 19.0).clamp(0.0, 1.0);

    // Hour never used, nor its neighbours (needs a deeper baseline than
    // the cold-start cut).
    if history.total_logins() >= 10 && !history.used_hours_near(at.hour_of_day()) {
        s.odd_hour = 1.0;
    }

    s.failure_burst = (history.failures_in_last_day(at) as f64 / 5.0).clamp(0.0, 1.0);

    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhw_types::{DAY, HOUR};

    fn seasoned_history() -> AccountHistory {
        let mut h = AccountHistory::default();
        // 30 days of daily logins from the US at 9:00 and 20:00, one device.
        for d in 0..30u64 {
            h.record_success(
                SimTime::from_secs(d * DAY + 9 * HOUR),
                CountryCode::US,
                DeviceId(1),
            );
            h.record_success(
                SimTime::from_secs(d * DAY + 20 * HOUR),
                CountryCode::US,
                DeviceId(1),
            );
        }
        h
    }

    #[test]
    fn home_login_is_clean() {
        let h = seasoned_history();
        let s = extract_signals(
            &h,
            SimTime::from_secs(31 * DAY + 9 * HOUR),
            Some(CountryCode::US),
            DeviceId(1),
            1,
        );
        assert_eq!(s.as_array(), [0.0; 6]);
    }

    #[test]
    fn foreign_login_from_new_device_flags() {
        let h = seasoned_history();
        let s = extract_signals(
            &h,
            SimTime::from_secs(29 * DAY + 21 * HOUR), // 1h after last success
            Some(CountryCode::NG),
            DeviceId(99),
            1,
        );
        assert_eq!(s.new_country, 1.0);
        assert_eq!(s.impossible_travel, 1.0); // 1h country flip
        assert_eq!(s.new_device, 1.0);
    }

    #[test]
    fn slow_country_change_is_not_impossible_travel() {
        let h = seasoned_history();
        let s = extract_signals(
            &h,
            SimTime::from_secs(30 * DAY + 20 * HOUR + 10 * HOUR), // 10h later
            Some(CountryCode::GB),
            DeviceId(1),
            1,
        );
        assert_eq!(s.impossible_travel, 0.0);
        assert_eq!(s.new_country, 1.0); // still a new country
    }

    #[test]
    fn cold_start_accounts_are_not_flagged() {
        let mut h = AccountHistory::default();
        h.record_success(SimTime::from_secs(0), CountryCode::US, DeviceId(1));
        let s = extract_signals(
            &h,
            SimTime::from_secs(2 * HOUR),
            Some(CountryCode::FR),
            DeviceId(2),
            1,
        );
        assert_eq!(s.new_country, 0.0);
        assert_eq!(s.new_device, 0.0);
        // Impossible travel still fires — it needs no baseline depth.
        assert_eq!(s.impossible_travel, 1.0);
    }

    #[test]
    fn fanout_saturates() {
        let h = seasoned_history();
        let t = SimTime::from_secs(31 * DAY + 9 * HOUR);
        let low = extract_signals(&h, t, Some(CountryCode::US), DeviceId(1), 1);
        assert_eq!(low.ip_fanout, 0.0);
        let crew_like = extract_signals(&h, t, Some(CountryCode::US), DeviceId(1), 10);
        assert!((0.4..0.6).contains(&crew_like.ip_fanout), "{}", crew_like.ip_fanout);
        let bot = extract_signals(&h, t, Some(CountryCode::US), DeviceId(1), 200);
        assert_eq!(bot.ip_fanout, 1.0);
    }

    #[test]
    fn odd_hour_only_with_depth() {
        let h = seasoned_history(); // logs in 9:00 / 20:00
        let s = extract_signals(
            &h,
            SimTime::from_secs(31 * DAY + 3 * HOUR), // 03:00 never used
            Some(CountryCode::US),
            DeviceId(1),
            1,
        );
        assert_eq!(s.odd_hour, 1.0);
        // Neighbouring hour of a used slot is fine.
        let s2 = extract_signals(
            &h,
            SimTime::from_secs(31 * DAY + 10 * HOUR),
            Some(CountryCode::US),
            DeviceId(1),
            1,
        );
        assert_eq!(s2.odd_hour, 0.0);
    }

    #[test]
    fn failure_burst_scales_and_prunes() {
        let mut h = seasoned_history();
        let base = SimTime::from_secs(31 * DAY);
        for i in 0..5 {
            h.record_failure(base.plus(SimDuration::from_mins(i)));
        }
        let s = extract_signals(&h, base.plus(SimDuration::from_mins(10)), Some(CountryCode::US), DeviceId(1), 1);
        assert_eq!(s.failure_burst, 1.0);
        // Two days later the failures age out.
        let s2 = extract_signals(&h, base.plus(SimDuration::from_days(2)), Some(CountryCode::US), DeviceId(1), 1);
        assert_eq!(s2.failure_burst, 0.0);
    }

    #[test]
    fn unlocatable_ip_is_mildly_suspicious() {
        let h = seasoned_history();
        let s = extract_signals(&h, SimTime::from_secs(31 * DAY + 9 * HOUR), None, DeviceId(1), 1);
        assert_eq!(s.new_country, 0.5);
    }

    #[test]
    fn ip_reputation_tracks_days() {
        let mut rep = IpReputation::new();
        let ip = IpAddr::new(41, 0, 0, 1);
        let day0 = SimTime::from_secs(10);
        assert_eq!(rep.observe(ip, AccountId(1), day0), 1);
        assert_eq!(rep.observe(ip, AccountId(2), day0), 2);
        assert_eq!(rep.observe(ip, AccountId(2), day0), 2); // same account
        assert_eq!(rep.fanout(ip, day0), 2);
        // Next day resets.
        let day1 = SimTime::from_secs(DAY + 10);
        assert_eq!(rep.fanout(ip, day1), 0);
        assert_eq!(rep.observe(ip, AccountId(3), day1), 1);
    }

    #[test]
    fn device_window_is_bounded_and_recency_ordered() {
        let mut h = AccountHistory::default();
        let t = SimTime::from_secs(0);
        for i in 0..100u32 {
            h.record_success(t, CountryCode::US, DeviceId(i));
        }
        assert_eq!(h.tracked_devices(), MAX_TRACKED_DEVICES);
        assert!(h.has_device(DeviceId(99)), "most recent device retained");
        assert!(!h.has_device(DeviceId(0)), "oldest device evicted");
        // Re-seeing an old-but-retained device refreshes it.
        h.record_success(t, CountryCode::US, DeviceId(68));
        h.record_success(t, CountryCode::US, DeviceId(200));
        assert!(h.has_device(DeviceId(68)), "touched device survives");
        assert!(!h.has_device(DeviceId(69)), "untouched oldest evicted");
    }

    #[test]
    fn failure_log_is_bounded() {
        let mut h = AccountHistory::default();
        let base = SimTime::from_secs(0);
        for i in 0..1000 {
            h.record_failure(base.plus(SimDuration::from_mins(i)));
        }
        assert!(h.recent_failures.len() <= MAX_RECENT_FAILURES);
        // The burst signal still saturates.
        let last = base.plus(SimDuration::from_mins(999));
        assert_eq!(h.failures_in_last_day(last).min(5), 5);
    }

    #[test]
    fn history_store_is_total() {
        let mut store = HistoryStore::new();
        // Reads of never-seen accounts return an empty default.
        assert_eq!(store.get(AccountId(12345)).total_logins(), 0);
        assert_eq!(store.len(), 0);
        // Writes materialize history without registration.
        store.get_mut(AccountId(7)).record_success(
            SimTime::from_secs(10),
            CountryCode::BR,
            DeviceId(3),
        );
        assert_eq!(store.get(AccountId(7)).total_logins(), 1);
        assert_eq!(store.len(), 1);
        // Sparse registration is fine (no dense-order assert).
        store.register(AccountId(4_000_000));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn ip_cache_stays_bounded() {
        let mut rep = IpReputation::with_limits(128, 4);
        let t = SimTime::from_secs(10);
        for i in 0..10_000u32 {
            rep.observe(IpAddr(i), AccountId(i % 7), t);
        }
        assert_eq!(rep.len(), 128);
        assert!(rep.approx_bytes() < 128 * 128, "bytes bounded by capacity");
        // Per-IP account counts saturate at the configured cap.
        let ip = IpAddr::new(9, 9, 9, 9);
        for a in 0..100u32 {
            rep.observe(ip, AccountId(a), t);
        }
        assert_eq!(rep.fanout(ip, t), 4);
    }
}
