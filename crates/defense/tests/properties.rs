//! Property tests for the bounded-state primitives under the
//! streaming service: `LruCache` edge cases (degenerate capacities,
//! `peek` recency-neutrality under eviction pressure),
//! `HistoryStore` total-get semantics for never-seen accounts, and the
//! compact per-account record and per-IP cache checked step by step
//! against reference implementations.

use mhw_defense::lru::LruCache;
use mhw_defense::signals::{
    extract_signals, AccountHistory, HistoryStore, IpReputation, LoginSignals,
    MAX_RECENT_FAILURES, MAX_TRACKED_DEVICES,
};
use mhw_simclock::SimRng;
use mhw_types::{AccountId, CountryCode, DeviceId, IpAddr, SimDuration, SimTime, DAY, HOUR};
use proptest::prelude::*;
use std::collections::VecDeque;

#[test]
fn lru_capacity_zero_clamps_to_one() {
    let mut c: LruCache<u32, u32> = LruCache::new(0);
    assert_eq!(c.capacity(), 1, "capacity 0 is clamped to 1");
    c.get_or_insert_with(1, || 10);
    c.get_or_insert_with(2, || 20);
    assert_eq!(c.len(), 1);
    assert_eq!(c.peek(&1), None);
    assert_eq!(c.peek(&2), Some(&20), "the newest insert survives");
}

#[test]
fn lru_clear_empties_but_keeps_capacity() {
    let mut c: LruCache<u32, u32> = LruCache::new(4);
    for k in 0..10 {
        c.get_or_insert_with(k, || k);
    }
    assert_eq!(c.len(), 4);
    c.clear();
    assert!(c.is_empty());
    assert_eq!(c.capacity(), 4);
    assert_eq!(c.peek(&9), None, "a wiped cache is genuinely cold");
    c.get_or_insert_with(7, || 70);
    assert_eq!(c.peek(&7), Some(&70), "a wiped cache accepts new entries");
}

proptest! {
    /// A capacity-1 cache always holds exactly the last-inserted key,
    /// whatever the access sequence.
    #[test]
    fn lru_capacity_one_holds_only_the_last_insert(
        keys in proptest::collection::vec(0u32..8, 1..40),
    ) {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for &k in &keys {
            *c.get_or_insert_with(k, || 0) = k * 10;
        }
        prop_assert_eq!(c.len(), 1);
        let last = *keys.last().unwrap();
        let expected = last * 10;
        for k in 0..8 {
            prop_assert_eq!(c.peek(&k), if k == last { Some(&expected) } else { None });
        }
    }

    /// `peek` never perturbs eviction: a cache that additionally peeks
    /// between every operation evicts exactly the same keys as one
    /// that never peeks. Ops are encoded as op*16+key over a 16-key
    /// domain against a capacity-4 cache, so eviction pressure is
    /// constant.
    #[test]
    fn lru_peek_is_recency_neutral_under_eviction_pressure(
        ops in proptest::collection::vec(0u32..32, 1..120),
    ) {
        let mut with_peeks: LruCache<u32, u32> = LruCache::new(4);
        let mut without: LruCache<u32, u32> = LruCache::new(4);
        for &op in &ops {
            let key = op % 16;
            match op / 16 {
                0 => {
                    *with_peeks.get_or_insert_with(key, || 0) = key;
                    *without.get_or_insert_with(key, || 0) = key;
                }
                _ => {
                    with_peeks.get_mut(&key);
                    without.get_mut(&key);
                }
            }
            // The probe sequence only the first cache sees.
            for k in 0..16 {
                with_peeks.peek(&k);
            }
        }
        prop_assert_eq!(with_peeks.len(), without.len());
        for k in 0..16 {
            prop_assert_eq!(
                with_peeks.peek(&k),
                without.peek(&k),
                "peeks changed the survivor set at key {}",
                k
            );
        }
    }

    /// The history store is total: reading any never-seen account
    /// yields the empty history and materializes nothing, however many
    /// reads happen and wherever the ids land.
    #[test]
    fn history_store_total_get_never_materializes(
        probes in proptest::collection::vec(0u32..1_000_000, 1..50),
    ) {
        let mut store = HistoryStore::new();
        store.register(AccountId(3));
        let len_before = store.len();
        for &id in &probes {
            let h = store.get(AccountId(id + 10)); // ids disjoint from the registered one
            prop_assert_eq!(h.total_logins(), 0);
            prop_assert_eq!(h.failures_in_last_day(mhw_types::SimTime::from_secs(0)), 0);
        }
        prop_assert_eq!(store.len(), len_before, "total get must not materialize");
        // get_mut is the materializing path.
        store.get_mut(AccountId(probes[0] + 10));
        prop_assert_eq!(store.len(), len_before + 1);
    }
}

/// The reference account history, in the plainest layout: a sorted
/// country-count vector, a device `VecDeque`, an hour histogram and a
/// failure `VecDeque` that pushes, then prunes, then trims. Scoring
/// must not be able to tell it from the flat `AccountHistory`.
#[derive(Default)]
struct ReferenceHistory {
    countries: Vec<(CountryCode, u32)>,
    devices: VecDeque<DeviceId>,
    last_success: Option<(SimTime, CountryCode)>,
    hours: [u32; 24],
    recent_failures: VecDeque<SimTime>,
}

impl ReferenceHistory {
    fn total_logins(&self) -> u32 {
        self.countries.iter().map(|(_, n)| n).sum()
    }

    fn has_country(&self, country: CountryCode) -> bool {
        self.countries.binary_search_by_key(&country, |(c, _)| *c).is_ok()
    }

    fn has_device(&self, device: DeviceId) -> bool {
        self.devices.contains(&device)
    }

    fn record_success(&mut self, at: SimTime, country: CountryCode, device: DeviceId) {
        match self.countries.binary_search_by_key(&country, |(c, _)| *c) {
            Ok(i) => self.countries[i].1 += 1,
            Err(i) => self.countries.insert(i, (country, 1)),
        }
        if let Some(pos) = self.devices.iter().position(|d| *d == device) {
            self.devices.remove(pos);
        } else if self.devices.len() >= MAX_TRACKED_DEVICES {
            self.devices.pop_front();
        }
        self.devices.push_back(device);
        self.last_success = Some((at, country));
        self.hours[at.hour_of_day() as usize] += 1;
    }

    fn record_failure(&mut self, at: SimTime) {
        self.recent_failures.push_back(at);
        while let Some(front) = self.recent_failures.front() {
            if at.since(*front) > SimDuration::from_hours(24) {
                self.recent_failures.pop_front();
            } else {
                break;
            }
        }
        while self.recent_failures.len() > MAX_RECENT_FAILURES {
            self.recent_failures.pop_front();
        }
    }

    fn failures_in_last_day(&self, at: SimTime) -> usize {
        self.recent_failures
            .iter()
            .filter(|t| at.since(**t) <= SimDuration::from_hours(24))
            .count()
    }

    fn extract_signals(
        &self,
        at: SimTime,
        country: Option<CountryCode>,
        device: DeviceId,
        fanout_today: usize,
    ) -> LoginSignals {
        let mut s = LoginSignals::default();
        let cold_start = self.total_logins() < 3;
        if let Some(c) = country {
            if !cold_start && !self.has_country(c) {
                s.new_country = 1.0;
            }
            if let Some((last_at, last_country)) = self.last_success {
                if last_country != c && at.since(last_at) < SimDuration::from_hours(6) {
                    s.impossible_travel = 1.0;
                }
            }
        } else {
            s.new_country = 0.5;
        }
        if !cold_start && !self.has_device(device) {
            s.new_device = 1.0;
        }
        s.ip_fanout = ((fanout_today.saturating_sub(1)) as f64 / 19.0).clamp(0.0, 1.0);
        if !cold_start {
            let h = at.hour_of_day() as usize;
            let near: u32 = (0..24)
                .filter(|i| {
                    let d = (*i as i32 - h as i32)
                        .rem_euclid(24)
                        .min((h as i32 - *i as i32).rem_euclid(24));
                    d <= 2
                })
                .map(|i| self.hours[i])
                .sum();
            if near == 0 && self.total_logins() >= 10 {
                s.odd_hour = 1.0;
            }
        }
        s.failure_burst = (self.failures_in_last_day(at) as f64 / 5.0).clamp(0.0, 1.0);
        s
    }
}

/// Distinct devices the history test draws from: more than the window
/// holds, so it evicts, and few enough that evicted devices come back.
const DEVICE_POOL: u32 = 48;

/// Draw a time near `now`: mostly a little later, sometimes days later,
/// sometimes earlier (a clock that jumps back).
fn step(rng: &mut SimRng, now: SimTime) -> SimTime {
    match rng.below(10) {
        0..=5 => now.plus(SimDuration::from_mins(rng.below(90))),
        6 | 7 => now.plus(SimDuration::from_secs(rng.below(3 * DAY))),
        _ => SimTime::from_secs(now.0.saturating_sub(rng.below(30 * HOUR))),
    }
}

fn assert_same_history(h: &AccountHistory, r: &ReferenceHistory, now: SimTime, step: usize) {
    assert_eq!(h.total_logins(), r.total_logins(), "total_logins at step {step}");
    for c in CountryCode::ALL {
        assert_eq!(h.has_country(c), r.has_country(c), "has_country({c}) at step {step}");
    }
    for d in 0..DEVICE_POOL {
        let d = DeviceId(d);
        assert_eq!(h.has_device(d), r.has_device(d), "has_device({d}) at step {step}");
    }
    assert_eq!(h.tracked_devices(), r.devices.len(), "tracked_devices at step {step}");
    let earlier = SimTime::from_secs(now.0.saturating_sub(5 * HOUR));
    for at in [now, now.plus(SimDuration::from_hours(23)), earlier] {
        assert_eq!(
            h.failures_in_last_day(at),
            r.failures_in_last_day(at),
            "failures_in_last_day({at:?}) at step {step}"
        );
    }
}

/// The flat record and the reference agree on every query and every
/// signal after every step of random success/failure sequences: time
/// jumping both ways, more distinct devices than the window holds,
/// devices seen again, failure bursts past the cap, all countries and
/// unlocatable logins.
#[test]
fn account_history_matches_the_reference() {
    let (mut max_devices, mut max_failures, mut evicted_and_back) = (0, 0, 0);
    let (mut countries_seen, mut unlocated) = (0u32, 0);
    for seed in 0..64 {
        let mut rng = SimRng::from_seed(seed);
        let mut history = AccountHistory::default();
        let mut reference = ReferenceHistory::default();
        let mut now = SimTime::from_secs(rng.below(30 * DAY));
        let mut seen_devices = 0u64;
        // Some sequences are failure-heavy, so bursts pass the cap.
        let failure_rate = [0.1, 0.4, 0.8][seed as usize % 3];
        for i in 0..400 {
            now = step(&mut rng, now);
            if rng.chance(failure_rate) {
                history.record_failure(now);
                reference.record_failure(now);
            } else {
                let country = CountryCode::ALL[rng.below(18) as usize];
                let device = DeviceId(rng.below(u64::from(DEVICE_POOL)) as u32);
                if seen_devices & 1 << device.0 != 0 && !reference.has_device(device) {
                    evicted_and_back += 1;
                }
                seen_devices |= 1 << device.0;
                history.record_success(now, country, device);
                reference.record_success(now, country, device);
                countries_seen |= 1 << country as u32;
            }
            assert_same_history(&history, &reference, now, i);
            max_devices = max_devices.max(history.tracked_devices());
            max_failures = max_failures.max(history.failures_in_last_day(now));

            let at = SimTime::from_secs((now.0 + rng.below(60 * HOUR)).saturating_sub(30 * HOUR));
            let country = if rng.chance(0.2) {
                unlocated += 1;
                None
            } else {
                Some(CountryCode::ALL[rng.below(18) as usize])
            };
            let device = DeviceId(rng.below(u64::from(DEVICE_POOL)) as u32);
            let fanout = rng.below(30) as usize;
            assert_eq!(
                extract_signals(&history, at, country, device, fanout).as_array().map(f64::to_bits),
                reference.extract_signals(at, country, device, fanout).as_array().map(f64::to_bits),
                "signals at step {i} of seed {seed}"
            );
        }
    }
    // The sequences reached every corner the windows have.
    assert_eq!(max_devices, MAX_TRACKED_DEVICES);
    assert_eq!(max_failures, MAX_RECENT_FAILURES);
    assert!(evicted_and_back > 0, "an evicted device came back");
    assert_eq!(countries_seen, (1 << CountryCode::ALL.len()) - 1);
    assert!(unlocated > 0);
}

/// One IP in the reference cache: (ip, day, accounts in arrival order).
type ReferenceEntry = (IpAddr, u64, Vec<AccountId>);

/// The reference IP cache: entries in recency order, most recent first.
struct ReferenceReputation {
    entries: Vec<ReferenceEntry>,
    capacity: usize,
    accounts_per_ip: usize,
}

impl ReferenceReputation {
    fn peek(&self, ip: IpAddr, at: SimTime) -> Option<&Vec<AccountId>> {
        self.entries
            .iter()
            .find(|(i, day, _)| *i == ip && *day == at.day_index())
            .map(|(_, _, accounts)| accounts)
    }

    fn observe(&mut self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        let day = at.day_index();
        let mut entry = match self.entries.iter().position(|(i, _, _)| *i == ip) {
            Some(pos) => self.entries.remove(pos),
            None => (ip, day, Vec::new()),
        };
        if entry.1 != day {
            entry = (ip, day, Vec::new());
        }
        if !entry.2.contains(&account) && entry.2.len() < self.accounts_per_ip {
            entry.2.push(account);
        }
        let fanout = entry.2.len();
        self.entries.insert(0, entry);
        self.entries.truncate(self.capacity);
        fanout
    }

    fn projected_fanout(&self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        match self.peek(ip, at) {
            Some(a) if a.contains(&account) || a.len() >= self.accounts_per_ip => a.len(),
            Some(a) => a.len() + 1,
            None => 1,
        }
    }

    fn fanout(&self, ip: IpAddr, at: SimTime) -> usize {
        self.peek(ip, at).map_or(0, Vec::len)
    }
}

/// `IpReputation` answers like a recency-ordered vector of entries at
/// every capacity and per-IP cap, through eviction, day changes, the
/// saturating account list and wipes.
#[test]
fn ip_reputation_matches_the_reference() {
    let mut saturated = 0;
    for capacity in [1, 2, 7] {
        for accounts_per_ip in [1, 2, 64] {
            for seed in 0..8 {
                let mut rng = SimRng::from_seed(seed);
                let mut rep = IpReputation::with_limits(capacity, accounts_per_ip);
                let mut reference =
                    ReferenceReputation { entries: Vec::new(), capacity, accounts_per_ip };
                let mut now = SimTime::from_secs(rng.below(10 * DAY));
                for i in 0..1_500 {
                    let gap = if rng.chance(0.01) { DAY } else { 300 };
                    now = now.plus(SimDuration::from_secs(rng.below(gap)));
                    // One busy IP and a handful of others, so some IPs
                    // gather many accounts in a day and others are evicted.
                    let ip = IpAddr(if rng.chance(0.5) { 0 } else { rng.below(12) as u32 });
                    let account = AccountId(rng.below(100) as u32);
                    match rng.below(1_000) {
                        0 => {
                            rep.wipe();
                            reference.entries.clear();
                        }
                        1..=600 => {
                            let got = rep.observe(ip, account, now);
                            let expected = reference.observe(ip, account, now);
                            assert_eq!(got, expected, "observe at step {i}");
                            saturated += usize::from(got == 64);
                        }
                        _ => assert_eq!(
                            rep.projected_fanout(ip, account, now),
                            reference.projected_fanout(ip, account, now),
                            "projected_fanout at step {i}"
                        ),
                    }
                    assert_eq!(rep.len(), reference.entries.len(), "len at step {i}");
                    for probe in 0..12 {
                        let probe = IpAddr(probe);
                        let expected = reference.fanout(probe, now);
                        assert_eq!(rep.fanout(probe, now), expected, "fanout at step {i}");
                    }
                }
            }
        }
    }
    assert!(saturated > 0, "an IP reached the 64-account cap");
}
