//! Overload-safe streaming replay: fault plans, admission control and
//! load shedding for the serve tier.
//!
//! The plain [`replay_stream`](crate::replay::replay_stream) assumes
//! every signal source is always present and instant. This module is
//! the production failure model on top: a [`ServeFaultPlan`] injects
//! signal-source outages, slow responses and cache wipes into the
//! stream, and [`replay_stream_resilient`] drives the service through
//! them behind a bounded admission queue with a load-shedding policy.
//!
//! **Determinism.** Nothing here reads a wall clock. Time inside the
//! loop is *virtual*: each event arrives at `index × `[`ARRIVAL_NS`]
//! virtual nanoseconds, and scoring advances the clock by the virtual
//! cost the service reports ([`mhw_defense::Assessment::virtual_ns`]
//! — nominal
//! per-source costs, injected latencies capped by the deadline
//! budget). Queueing, shedding, breaker trips and recoveries all fall
//! out of that arithmetic, so the same seed and plan produce the same
//! verdicts, the same shed set and the same digest on every run — the
//! property `tests/serve_chaos.rs` pins.
//!
//! **Why the faults matter.** A healthy assess costs
//! [`NOMINAL_ASSESS_NS`] ≪ [`ARRIVAL_NS`], so a clean stream never
//! queues. A slow source burns each request's deadline budget until
//! its circuit breaker opens, after which fallback scoring is cheap
//! again and the queue drains: breakers are what keep p99 bounded
//! under partial outage, and the chaos tests measure exactly that.
//!
//! Fault coordinates are **per-shard local event indices**: every
//! worker thread replays its own substream under its own copy of the
//! plan, the way each real frontend would experience the incident.

#![deny(missing_docs)]

use crate::replay::{adjudicate, mix_digest, placeholder_request, ReplayLogin};
use mhw_defense::{
    RiskService, RiskVerdict, SignalConditions, SignalSource, NOMINAL_ASSESS_NS,
};
use mhw_identity::LoginOutcome;
use mhw_netmodel::GeoDb;
use mhw_simclock::SimRng;
use mhw_types::faultspec;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::str::FromStr;

/// Virtual nanoseconds between consecutive event arrivals — 2× the
/// nominal assess cost, so a healthy service keeps up with margin and
/// any sustained queueing is attributable to injected faults.
pub const ARRIVAL_NS: u64 = 2 * NOMINAL_ASSESS_NS;

/// A deterministic schedule of serve-tier faults, addressed by local
/// event index within a replayed substream.
///
/// Spec grammar (shared tokenizer with the engine's `FaultPlan` via
/// [`mhw_types::faultspec`]):
///
/// * `geo-down@START..END` — the geo source fails fast for events in
///   the half-open index range;
/// * `slow-signal@SRC:NS` — source `SRC` (`geo`, `ip-cache`/`ip`,
///   `history`) answers after `NS` virtual nanoseconds for the whole
///   stream;
/// * `cache-wipe@E` — the IP fan-out cache is dropped cold just before
///   event `E` is scored;
/// * `seeded:geo=N,slow=N,wipe=N` — that many faults of each kind at
///   coordinates drawn from the run seed's `"serve-fault-plan"` stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// Half-open event-index ranges where geo fails fast.
    geo_down: Vec<(u64, u64)>,
    /// Injected response latency per source (0 = nominal), indexed by
    /// [`SignalSource::index`].
    slow_ns: [u64; 3],
    /// Event indices before which the IP cache is wiped.
    cache_wipes: BTreeSet<u64>,
}

impl ServeFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        ServeFaultPlan::default()
    }

    /// Fail geo fast for events in `start..end`.
    pub fn geo_down(mut self, start: u64, end: u64) -> Self {
        self.geo_down.push((start, end));
        self.geo_down.sort_unstable();
        self
    }

    /// Make `source` answer after `ns` virtual nanoseconds stream-wide.
    pub fn slow(mut self, source: SignalSource, ns: u64) -> Self {
        self.slow_ns[source.index()] = self.slow_ns[source.index()].max(ns);
        self
    }

    /// A reproducible random schedule over `n_events` events, drawn
    /// from the dedicated `"serve-fault-plan"` RNG stream: `n_geo` geo
    /// outage windows (~10% of the stream each), `n_slow` slow-signal
    /// injections (20–50 µs on a random source — always past the
    /// default deadline, so circuit breakers must open and shedding
    /// stays transient rather than sustained) and `n_wipe` cache
    /// wipes. Sub-deadline latencies are only reachable through the
    /// explicit `slow-signal@SRC:NS` grammar.
    pub fn seeded(seed: u64, n_events: u64, n_geo: usize, n_slow: usize, n_wipe: usize) -> Self {
        let mut plan = ServeFaultPlan::default();
        if n_events == 0 {
            return plan;
        }
        let mut rng = SimRng::stream(seed, "serve-fault-plan");
        for _ in 0..n_geo {
            let start = rng.below(n_events.saturating_mul(9) / 10 + 1);
            let len = 1 + rng.below((n_events / 10).max(1));
            plan.geo_down.push((start, (start + len).min(n_events)));
        }
        plan.geo_down.sort_unstable();
        for _ in 0..n_slow {
            let source = SignalSource::ALL[rng.below(3) as usize];
            let ns = 20_000 + rng.below(30_000);
            plan.slow_ns[source.index()] = plan.slow_ns[source.index()].max(ns);
        }
        for _ in 0..n_wipe {
            plan.cache_wipes.insert(rng.below(n_events));
        }
        plan
    }

    /// Parse a CLI fault spec (see the type docs for the grammar).
    /// Errors are plain strings naming the offending entry; the CLIs
    /// turn them into usage errors (exit code 2). A seeded count above
    /// `n_events` is one: the plan holds one window per geo fault, so
    /// the count must be bounded before anything is allocated.
    pub fn parse_spec(spec: &str, seed: u64, n_events: u64) -> Result<Self, String> {
        let limit = format!("the stream's {n_events} events");
        let entries = match faultspec::parse(spec, &["geo", "slow", "wipe"], n_events, &limit)? {
            faultspec::FaultSpec::Seeded(counts) => {
                // Each count is at most `n_events`, the length of an
                // in-memory stream, so it fits a `usize`.
                return Ok(ServeFaultPlan::seeded(
                    seed,
                    n_events,
                    counts.get("geo") as usize,
                    counts.get("slow") as usize,
                    counts.get("wipe") as usize,
                ));
            }
            faultspec::FaultSpec::Explicit(entries) => entries,
        };
        let mut plan = ServeFaultPlan::default();
        for entry in &entries {
            let raw = entry.raw.as_str();
            let coords = entry.coords.as_str();
            match entry.kind.as_str() {
                "geo-down" => {
                    let (start, end) = faultspec::range(raw, coords)?;
                    plan.geo_down.push((start, end));
                }
                "slow-signal" => {
                    let (source, ns) =
                        faultspec::split2(raw, coords, ':', "slow-signal@SOURCE:NS")?;
                    let source = SignalSource::from_name(source.trim()).ok_or_else(|| {
                        format!(
                            "fault entry `{raw}`: `{source}` is not a signal source \
                             (expected geo, ip-cache or history)"
                        )
                    })?;
                    let ns = faultspec::num(raw, ns, "nanosecond latency")?;
                    if ns == 0 {
                        return Err(format!(
                            "fault entry `{raw}`: a slow-signal latency must be nonzero"
                        ));
                    }
                    plan.slow_ns[source.index()] = plan.slow_ns[source.index()].max(ns);
                }
                "cache-wipe" => {
                    plan.cache_wipes.insert(faultspec::num(raw, coords, "event index")?);
                }
                other => {
                    return Err(faultspec::unknown_kind(
                        other,
                        &["geo-down", "slow-signal", "cache-wipe"],
                    ))
                }
            }
        }
        plan.geo_down.sort_unstable();
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.geo_down.is_empty() && self.slow_ns == [0; 3] && self.cache_wipes.is_empty()
    }

    /// Reject coordinates outside `0..n_events`, so typo'd plans fail
    /// fast instead of silently never firing. `n_events` is the whole
    /// stream; a multi-thread replay applies the plan per shard, where
    /// high indices may simply never fire on short shards.
    pub fn validate(&self, n_events: u64) -> Result<(), String> {
        for &(start, end) in &self.geo_down {
            if start >= n_events || end > n_events {
                return Err(format!(
                    "fault plan takes geo down for events {start}..{end}, but the stream has \
                     {n_events} events"
                ));
            }
        }
        for &wipe in &self.cache_wipes {
            if wipe >= n_events {
                return Err(format!(
                    "fault plan wipes the cache at event {wipe}, but the stream has \
                     {n_events} events"
                ));
            }
        }
        Ok(())
    }

    /// The injected source conditions for one event index.
    pub fn conditions_at(&self, index: u64) -> SignalConditions {
        let mut conditions = SignalConditions::healthy();
        for source in SignalSource::ALL {
            conditions.source_mut(source).latency_ns = self.slow_ns[source.index()];
        }
        if self.geo_down.iter().any(|&(s, e)| index >= s && index < e) {
            conditions.source_mut(SignalSource::Geo).down = true;
        }
        conditions
    }

    /// Should the IP cache be wiped just before this event is scored?
    pub fn wipes_at(&self, index: u64) -> bool {
        self.cache_wipes.contains(&index)
    }
}

impl fmt::Display for ServeFaultPlan {
    /// Canonical spec rendering, parseable back via
    /// [`ServeFaultPlan::parse_spec`] (seeded plans render their
    /// concrete fault points).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| {
            if first {
                first = false;
                Ok(())
            } else {
                f.write_str(",")
            }
        };
        for (start, end) in &self.geo_down {
            sep(f)?;
            write!(f, "geo-down@{start}..{end}")?;
        }
        for source in SignalSource::ALL {
            let ns = self.slow_ns[source.index()];
            if ns > 0 {
                sep(f)?;
                write!(f, "slow-signal@{}:{ns}", source.name())?;
            }
        }
        for wipe in &self.cache_wipes {
            sep(f)?;
            write!(f, "cache-wipe@{wipe}")?;
        }
        if first {
            f.write_str("(no faults)")?;
        }
        Ok(())
    }
}

/// Which queued request to drop when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Control policy: drop the arriving request (tail drop).
    Fifo,
    /// Drop the request with the lowest cheap risk prior among the
    /// queue and the arrival — keep scoring capacity for the logins
    /// most worth scoring.
    #[default]
    LowestRiskFirst,
}

impl ShedPolicy {
    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Fifo => "fifo",
            ShedPolicy::LowestRiskFirst => "lowest-risk",
        }
    }
}

impl FromStr for ShedPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(ShedPolicy::Fifo),
            "lowest-risk" | "lowest-risk-first" => Ok(ShedPolicy::LowestRiskFirst),
            other => Err(format!("unknown shed policy `{other}` (expected fifo or lowest-risk)")),
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission-control tuning for one resilient replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Per-request virtual-nanosecond deadline budget (the service is
    /// constructed with this; carried here so reports can echo it).
    pub deadline_ns: u64,
    /// Bounded inflight-queue depth per service instance (≥ 1).
    pub queue_cap: usize,
    /// What to drop when the queue is full.
    pub shed_policy: ShedPolicy,
    /// The injected fault schedule.
    pub faults: ServeFaultPlan,
}

/// The serve tier's default per-request deadline budget: ~7× the
/// nominal assess cost, so only injected faults ever hit it.
pub const DEFAULT_DEADLINE_NS: u64 = 5_000;

/// The serve tier's default admission-queue depth.
pub const DEFAULT_QUEUE_CAP: usize = 64;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            deadline_ns: DEFAULT_DEADLINE_NS,
            queue_cap: DEFAULT_QUEUE_CAP,
            shed_policy: ShedPolicy::default(),
            faults: ServeFaultPlan::default(),
        }
    }
}

/// What one resilient replay did, beyond its digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Events in the substream (scored + shed).
    pub events: u64,
    /// Events scored through the full ladder.
    pub scored: u64,
    /// Events shed by admission control (never scored, never
    /// committed).
    pub shed: u64,
    /// Scored events whose verdict had at least one degraded signal.
    pub degraded_events: u64,
    /// Degraded-signal counts per source, indexed by
    /// [`SignalSource::index`].
    pub degraded_by_source: [u64; 3],
    /// Cache wipes injected.
    pub cache_wipes: u64,
    /// Deepest the admission queue got (including the request being
    /// admitted).
    pub peak_queue_depth: u64,
}

impl ReplayStats {
    /// Fold another shard's stats into this one.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.events += other.events;
        self.scored += other.scored;
        self.shed += other.shed;
        self.degraded_events += other.degraded_events;
        for i in 0..3 {
            self.degraded_by_source[i] += other.degraded_by_source[i];
        }
        self.cache_wipes += other.cache_wipes;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }

    /// Shed events as a fraction of all events (0 on an empty stream).
    pub fn shed_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.shed as f64 / self.events as f64
        }
    }
}

fn fill_request(request: &mut mhw_defense::LoginRequest, event: &ReplayLogin) {
    request.at = event.at;
    request.account = event.account;
    request.ip = event.ip;
    request.device = event.device;
}

/// Replay `events` through `service` under admission control and the
/// options' fault plan, chaining the verdict digest from `digest`.
///
/// Every event ends in exactly one of two ways, and both mix into the
/// digest in completion order:
///
/// * **scored** — assessed under the injected conditions (degrading
///   rather than blocking), adjudicated, committed;
/// * **shed** — the queue was full and the policy dropped it: it gets
///   the service's cheap-prior [`shed_verdict`], is **never
///   committed**, and leaves no trace in service state.
///
/// `observe(index, event, verdict, outcome, virtual_latency_ns)` runs
/// per event at completion; `virtual_latency_ns` is queueing + scoring
/// time in the virtual clock.
///
/// [`shed_verdict`]: RiskService::shed_verdict
pub fn replay_stream_resilient<S: RiskService + ?Sized>(
    service: &mut S,
    geo: &GeoDb,
    events: &[ReplayLogin],
    digest: u64,
    opts: &ServeOptions,
    stats: &mut ReplayStats,
    mut observe: impl FnMut(usize, &ReplayLogin, &RiskVerdict, LoginOutcome, u64),
) -> u64 {
    let mut request = placeholder_request();
    let mut h = digest;
    let n = events.len();
    let cap = opts.queue_cap.max(1);
    let mut queue: VecDeque<usize> = VecDeque::with_capacity(cap + 1);
    let mut next = 0usize; // next event index to arrive
    let mut vnow = 0u64; // the virtual clock
    let arrival = |i: usize| i as u64 * ARRIVAL_NS;
    stats.events += n as u64;
    while next < n || !queue.is_empty() {
        // Admit everything that has arrived by now; shed on overflow.
        while next < n && arrival(next) <= vnow {
            queue.push_back(next);
            next += 1;
            stats.peak_queue_depth = stats.peak_queue_depth.max(queue.len() as u64);
            if queue.len() > cap {
                let victim_pos = match opts.shed_policy {
                    // Tail drop: the arrival is the newest entry.
                    ShedPolicy::Fifo => queue.len() - 1,
                    ShedPolicy::LowestRiskFirst => {
                        let mut pos = 0;
                        let mut lowest = f64::INFINITY;
                        for (p, &idx) in queue.iter().enumerate() {
                            fill_request(&mut request, &events[idx]);
                            let prior = service.cheap_prior(&request);
                            // Strict `<` keeps the earliest of equal
                            // priors, deterministically.
                            if prior < lowest {
                                lowest = prior;
                                pos = p;
                            }
                        }
                        pos
                    }
                };
                #[allow(clippy::expect_used)] // queue is non-empty: it just overflowed
                let victim = queue.remove(victim_pos).expect("victim position in bounds");
                fill_request(&mut request, &events[victim]);
                let verdict = service.shed_verdict(&request);
                let outcome = adjudicate(&events[victim], verdict.decision);
                h = mix_digest(h, &verdict, outcome);
                stats.shed += 1;
                observe(victim, &events[victim], &verdict, outcome, vnow - arrival(victim));
            }
        }
        let Some(index) = queue.pop_front() else {
            // Idle: jump the virtual clock to the next arrival.
            vnow = arrival(next);
            continue;
        };
        let local = index as u64;
        if opts.faults.wipes_at(local) {
            service.inject_cache_wipe(events[index].at);
            stats.cache_wipes += 1;
        }
        let conditions = opts.faults.conditions_at(local);
        fill_request(&mut request, &events[index]);
        let assessment = service.assess_with(&request, geo, &conditions);
        let outcome = adjudicate(&events[index], assessment.verdict.decision);
        service.commit(&request, &assessment.verdict, outcome);
        vnow += assessment.virtual_ns;
        stats.scored += 1;
        let fidelity = assessment.verdict.fidelity;
        if !fidelity.is_full() {
            stats.degraded_events += 1;
            for source in SignalSource::ALL {
                if fidelity.is_degraded(source) {
                    stats.degraded_by_source[source.index()] += 1;
                }
            }
        }
        h = mix_digest(h, &assessment.verdict, outcome);
        observe(index, &events[index], &assessment.verdict, outcome, vnow - arrival(index));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{generate_workload, replay_stream, WorkloadConfig, DIGEST_SEED};
    use mhw_defense::{ResilienceConfig, RiskEngine, ServiceLimits, StreamingRiskService};

    fn serve_service(deadline_ns: u64) -> StreamingRiskService {
        StreamingRiskService::with_resilience(
            RiskEngine::default(),
            ServiceLimits::default(),
            ResilienceConfig::with_deadline(deadline_ns),
        )
    }

    fn small_stream() -> (GeoDb, Vec<ReplayLogin>) {
        let geo = GeoDb::new();
        let events = generate_workload(&WorkloadConfig::small(21), &geo);
        (geo, events)
    }

    #[test]
    fn spec_round_trips_and_names_bad_entries() {
        let plan =
            ServeFaultPlan::parse_spec("geo-down@10..40,slow-signal@history:25000,cache-wipe@7", 0, 100)
                .unwrap();
        assert!(plan.conditions_at(10).source(SignalSource::Geo).down);
        assert!(!plan.conditions_at(40).source(SignalSource::Geo).down);
        assert_eq!(plan.conditions_at(0).source(SignalSource::History).latency_ns, 25_000);
        assert!(plan.wipes_at(7));
        assert!(plan.validate(100).is_ok());
        assert!(plan.validate(30).is_err(), "range past the stream is rejected");
        let reparsed = ServeFaultPlan::parse_spec(&plan.to_string(), 0, 100).unwrap();
        assert_eq!(plan, reparsed);

        let err = ServeFaultPlan::parse_spec("geo-down@40..10", 0, 100).unwrap_err();
        assert!(err.contains("geo-down@40..10"), "{err}");
        let err = ServeFaultPlan::parse_spec("slow-signal@dns:5", 0, 100).unwrap_err();
        assert!(err.contains("dns"), "{err}");
        let err = ServeFaultPlan::parse_spec("explode@1", 0, 100).unwrap_err();
        assert!(err.contains("explode"), "{err}");
        let err = ServeFaultPlan::parse_spec("seeded:geo=many", 0, 100).unwrap_err();
        assert!(err.contains("many"), "{err}");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = ServeFaultPlan::seeded(0x5E2E, 10_000, 1, 2, 1);
        let b = ServeFaultPlan::seeded(0x5E2E, 10_000, 1, 2, 1);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(10_000).is_ok(), "seeded faults are always in range");
        let c = ServeFaultPlan::seeded(0x5E2F, 10_000, 1, 2, 1);
        assert_ne!(a, c, "a different seed draws a different schedule");
        let from_spec = ServeFaultPlan::parse_spec("seeded:geo=1,slow=2,wipe=1", 0x5E2E, 10_000)
            .unwrap();
        assert_eq!(from_spec, a);
    }

    #[test]
    fn seeded_counts_past_the_stream_are_rejected() {
        let err = ServeFaultPlan::parse_spec("seeded:geo=101", 0, 100).unwrap_err();
        assert!(err.contains("101 seeded `geo` faults exceed the stream's 100 events"), "{err}");
        let err = ServeFaultPlan::parse_spec("seeded:wipe=101", 0, 100).unwrap_err();
        assert!(err.contains("`wipe`"), "{err}");
        // Unchecked, this plan would hold 4e9 geo windows (~64 GB); the
        // count check refuses it before anything is allocated.
        let err = ServeFaultPlan::parse_spec("seeded:geo=4000000000,slow=4000000000", 0, 10_000)
            .unwrap_err();
        assert!(err.contains("4000000000 seeded `geo` faults"), "{err}");
        // Repeated keys add up without overflowing.
        for spec in [
            "seeded:geo=18446744073709551615,geo=1",
            "seeded:geo=1,geo=18446744073709551615",
        ] {
            let err = ServeFaultPlan::parse_spec(spec, 0, 100).unwrap_err();
            assert!(err.contains("seeded `geo` faults exceed the stream's 100 events"), "{err}");
        }
        let at_cap =
            ServeFaultPlan::parse_spec("seeded:geo=100,slow=100,wipe=100", 0, 100).unwrap();
        assert_eq!(at_cap, ServeFaultPlan::seeded(0, 100, 100, 100, 100));
    }

    #[test]
    fn empty_plan_resilient_replay_matches_plain_replay() {
        let (geo, events) = small_stream();
        let mut plain = StreamingRiskService::new(RiskEngine::default());
        let expected = replay_stream(&mut plain, &geo, &events, DIGEST_SEED, |_, _, _| {});
        let mut svc = serve_service(DEFAULT_DEADLINE_NS);
        let mut stats = ReplayStats::default();
        let got = replay_stream_resilient(
            &mut svc,
            &geo,
            &events,
            DIGEST_SEED,
            &ServeOptions::default(),
            &mut stats,
            |_, _, _, _, _| {},
        );
        assert_eq!(got, expected, "no faults → bit-identical to the plain path");
        assert_eq!(stats.shed, 0, "a healthy stream never sheds");
        assert_eq!(stats.degraded_events, 0);
        assert_eq!(stats.scored, events.len() as u64);
    }

    #[test]
    fn slow_signal_fills_the_queue_and_sheds_deterministically() {
        let (geo, events) = small_stream();
        let opts = ServeOptions {
            queue_cap: 4,
            faults: ServeFaultPlan::new().slow(SignalSource::History, 25_000),
            ..ServeOptions::default()
        };
        let run = |policy: ShedPolicy| {
            let mut svc = serve_service(DEFAULT_DEADLINE_NS);
            let mut stats = ReplayStats::default();
            let digest = replay_stream_resilient(
                &mut svc,
                &geo,
                &events,
                DIGEST_SEED,
                &ServeOptions { shed_policy: policy, ..opts.clone() },
                &mut stats,
                |_, _, _, _, _| {},
            );
            (digest, stats)
        };
        let (d1, s1) = run(ShedPolicy::LowestRiskFirst);
        let (d2, s2) = run(ShedPolicy::LowestRiskFirst);
        assert_eq!(d1, d2, "same plan, same seed → byte-identical");
        assert_eq!(s1, s2);
        assert!(s1.shed > 0, "a 25µs source against a 5µs deadline must shed");
        assert_eq!(s1.scored + s1.shed, s1.events);
        assert!(s1.peak_queue_depth >= 4);
        let (d3, s3) = run(ShedPolicy::Fifo);
        assert!(s3.shed > 0);
        assert_ne!(d1, d3, "the shed policy changes which events are scored");
    }

    #[test]
    fn shed_events_leave_no_service_state_trace() {
        let (geo, events) = small_stream();
        // Start from "every account was only shed" and remove accounts
        // as scored events for them complete.
        let mut shed_only: std::collections::HashSet<u32> =
            events.iter().map(|e| e.account.0).collect();
        let opts = ServeOptions {
            queue_cap: 2,
            shed_policy: ShedPolicy::Fifo,
            faults: ServeFaultPlan::new().slow(SignalSource::History, 25_000),
            ..ServeOptions::default()
        };
        let mut svc = serve_service(DEFAULT_DEADLINE_NS);
        let mut stats = ReplayStats::default();
        replay_stream_resilient(
            &mut svc,
            &geo,
            &events,
            DIGEST_SEED,
            &opts,
            &mut stats,
            |_, event, verdict, _, _| {
                if !verdict.fidelity.is_shed() {
                    shed_only.remove(&event.account.0);
                }
            },
        );
        assert!(stats.shed > 0);
        let distinct: std::collections::HashSet<u32> =
            events.iter().map(|e| e.account.0).collect();
        let scored_accounts = distinct.len() - shed_only.len();
        assert!(
            svc.state_size().accounts <= scored_accounts,
            "an account whose every event was shed must not materialize state"
        );
    }
}
