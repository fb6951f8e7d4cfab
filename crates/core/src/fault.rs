//! Deterministic fault injection for chaos-testing the engine.
//!
//! A [`FaultPlan`] is a *schedule* of faults addressed by simulation
//! coordinates — `(day, shard)` for shard-job faults, `day` for
//! checkpoint-write faults — never by wall clock or thread identity, so
//! the same plan injects the same faults at the same points on every
//! run. Plans come from two places:
//!
//! * explicit schedules, built programmatically or parsed from the
//!   `--fault-plan` CLI spec (`panic@3.1,slow@2.0:25,ckpt-fail@4:2`);
//! * seeded schedules ([`FaultPlan::seeded`], CLI spec
//!   `seeded:panics=1,slow=2,ckpt=1`), drawn from the run's own master
//!   seed via the dedicated `"fault-plan"` RNG stream — reproducible,
//!   and independent of every simulation stream, so arming faults never
//!   perturbs the world itself.
//!
//! Faults model *crash* events, not world events: an injected panic
//! unwinds a shard job before the day runs, a slow worker sleeps wall
//! clock, a checkpoint failure fails the write syscall. None of them
//! touch simulation state, which is why a run that survives its faults
//! (or is resumed past them) still produces byte-identical datasets.

use mhw_simclock::SimRng;
use mhw_types::{faultspec, EngineError, EngineResult, ShardId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shard jobs to panic, by `(day, shard)`.
    panics: BTreeSet<(u64, ShardId)>,
    /// Shard jobs to slow down, by `(day, shard)`, value = milliseconds.
    slowdowns: BTreeMap<(u64, ShardId), u64>,
    /// Checkpoint writes to fail, by day, value = how many consecutive
    /// attempts fail (transient if below the engine's retry budget).
    checkpoint_failures: BTreeMap<u64, u32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic the shard's job at the start of the given day.
    pub fn panic_at(mut self, day: u64, shard: ShardId) -> Self {
        self.panics.insert((day, shard));
        self
    }

    /// Sleep the worker running the shard's job for `ms` milliseconds
    /// on the given day (pure mechanics: stresses work stealing and
    /// barrier waits without touching any simulation state).
    pub fn slow_at(mut self, day: u64, shard: ShardId, ms: u64) -> Self {
        self.slowdowns.insert((day, shard), ms);
        self
    }

    /// Fail the first `attempts` checkpoint-write attempts at the given
    /// day's barrier with a synthetic transient I/O error.
    pub fn fail_checkpoint(mut self, day: u64, attempts: u32) -> Self {
        *self.checkpoint_failures.entry(day).or_insert(0) += attempts;
        self
    }

    /// A reproducible random schedule drawn from the run's master seed
    /// through the dedicated `"fault-plan"` stream: `n_panics` shard
    /// panics, `n_slow` slow workers (1–25 ms) and `n_ckpt` checkpoint
    /// write failures, all at uniformly chosen in-range coordinates.
    /// The same `(seed, days, shards, counts)` always yields the same
    /// schedule.
    pub fn seeded(
        seed: u64,
        days: u64,
        shards: u16,
        n_panics: usize,
        n_slow: usize,
        n_ckpt: usize,
    ) -> Self {
        let mut plan = FaultPlan::default();
        if days == 0 || shards == 0 {
            return plan;
        }
        let mut rng = SimRng::stream(seed, "fault-plan");
        for _ in 0..n_panics {
            plan.panics.insert((rng.below(days), rng.below(shards as u64) as ShardId));
        }
        for _ in 0..n_slow {
            let key = (rng.below(days), rng.below(shards as u64) as ShardId);
            plan.slowdowns.insert(key, 1 + rng.below(25));
        }
        for _ in 0..n_ckpt {
            *plan.checkpoint_failures.entry(rng.below(days)).or_insert(0) += 1;
        }
        plan
    }

    /// Parse a CLI fault spec. Two forms:
    ///
    /// * explicit, comma-separated entries:
    ///   `panic@DAY.SHARD`, `slow@DAY.SHARD:MS`, `ckpt-fail@DAY:ATTEMPTS`
    ///   — e.g. `panic@3.1,slow@2.0:25,ckpt-fail@4:2`;
    /// * seeded: `seeded:panics=N,slow=N,ckpt=N` (any subset of keys),
    ///   expanded via [`FaultPlan::seeded`] from the run's seed and
    ///   scenario dimensions. A count above `days × shards`, the run's
    ///   shard-days, is refused before anything is drawn.
    ///
    /// Errors are plain strings naming the offending entry; the CLIs
    /// turn them into usage errors (exit code 2). Coordinates are
    /// parsed at their own width, so a shard past `u16` or an attempt
    /// count past `u32` is an error, not a truncated fault point. The
    /// grammar itself — entry splitting, coordinate helpers, error
    /// wording, the seeded-count bound — is shared with the serve
    /// tier's `ServeFaultPlan` via [`mhw_types::faultspec`].
    pub fn parse_spec(spec: &str, seed: u64, days: u64, shards: u16) -> Result<Self, String> {
        let shard_days = days.saturating_mul(u64::from(shards));
        let limit = format!("the run's {shard_days} shard-days");
        let keys = ["panics", "slow", "ckpt"];
        let entries = match faultspec::parse(spec, &keys, shard_days, &limit)? {
            faultspec::FaultSpec::Seeded(counts) => {
                return Ok(FaultPlan::seeded(
                    seed,
                    days,
                    shards,
                    counts.get("panics") as usize,
                    counts.get("slow") as usize,
                    counts.get("ckpt") as usize,
                ));
            }
            faultspec::FaultSpec::Explicit(entries) => entries,
        };
        let mut plan = FaultPlan::default();
        for entry in &entries {
            let raw = entry.raw.as_str();
            let coords = entry.coords.as_str();
            match entry.kind.as_str() {
                "panic" => {
                    let (day, shard) = faultspec::split2(raw, coords, '.', "panic@DAY.SHARD")?;
                    plan.panics.insert((
                        faultspec::num(raw, day, "day")?,
                        faultspec::num(raw, shard, "shard")?,
                    ));
                }
                "slow" => {
                    let (at, ms) = faultspec::split2(raw, coords, ':', "slow@DAY.SHARD:MS")?;
                    let (day, shard) = faultspec::split2(raw, at, '.', "slow@DAY.SHARD:MS")?;
                    plan.slowdowns.insert(
                        (faultspec::num(raw, day, "day")?, faultspec::num(raw, shard, "shard")?),
                        faultspec::num(raw, ms, "millisecond count")?,
                    );
                }
                "ckpt-fail" => {
                    let (day, attempts) =
                        faultspec::split2(raw, coords, ':', "ckpt-fail@DAY:ATTEMPTS")?;
                    let day = faultspec::num(raw, day, "day")?;
                    let attempts: u32 = faultspec::num(raw, attempts, "attempt count")?;
                    let total = plan.checkpoint_failures.entry(day).or_insert(0);
                    *total = total.checked_add(attempts).ok_or_else(|| {
                        format!("fault entry `{raw}`: attempt counts for day {day} sum past u32")
                    })?;
                }
                other => {
                    return Err(faultspec::unknown_kind(other, &["panic", "slow", "ckpt-fail"]))
                }
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.slowdowns.is_empty()
            && self.checkpoint_failures.is_empty()
    }

    /// Check every scheduled fault addresses a `(day, shard)` inside
    /// the scenario, so typo'd plans fail fast instead of silently
    /// never firing.
    pub fn validate(&self, days: u64, shards: u16) -> EngineResult<()> {
        let bad = |what: String| Err(EngineError::InvalidConfig { reason: what });
        for (day, shard) in &self.panics {
            if *day >= days || *shard >= shards {
                return bad(format!(
                    "fault plan panics shard {shard} on day {day}, but the scenario has \
                     {shards} shards and {days} days"
                ));
            }
        }
        for (day, shard) in self.slowdowns.keys() {
            if *day >= days || *shard >= shards {
                return bad(format!(
                    "fault plan slows shard {shard} on day {day}, but the scenario has \
                     {shards} shards and {days} days"
                ));
            }
        }
        for day in self.checkpoint_failures.keys() {
            if *day >= days {
                return bad(format!(
                    "fault plan fails a checkpoint on day {day}, but the scenario has \
                     {days} days"
                ));
            }
        }
        Ok(())
    }

    /// Should the shard's job panic at the start of this day?
    pub fn should_panic(&self, day: u64, shard: ShardId) -> bool {
        self.panics.contains(&(day, shard))
    }

    /// Milliseconds to sleep the worker running this shard-day, if any.
    pub fn slowdown_ms(&self, day: u64, shard: ShardId) -> Option<u64> {
        self.slowdowns.get(&(day, shard)).copied()
    }

    /// How many checkpoint-write attempts fail at this day's barrier.
    pub fn checkpoint_failures_at(&self, day: u64) -> u32 {
        self.checkpoint_failures.get(&day).copied().unwrap_or(0)
    }

    /// Every scheduled panic, in `(day, shard)` order — what the chaos
    /// suite asserts reproducibility over.
    pub fn panic_points(&self) -> Vec<(u64, ShardId)> {
        self.panics.iter().copied().collect()
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical spec rendering: parseable back via
    /// [`FaultPlan::parse_spec`], used by the CLIs to echo the resolved
    /// schedule (seeded plans render their concrete fault points).
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
        for (day, shard) in &self.panics {
            sep(f)?;
            write!(f, "panic@{day}.{shard}")?;
        }
        for ((day, shard), ms) in &self.slowdowns {
            sep(f)?;
            write!(f, "slow@{day}.{shard}:{ms}")?;
        }
        for (day, attempts) in &self.checkpoint_failures {
            sep(f)?;
            write!(f, "ckpt-fail@{day}:{attempts}")?;
        }
        if first {
            f.write_str("(no faults)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultPlan::seeded(0xFA17, 30, 4, 2, 3, 1);
        let b = FaultPlan::seeded(0xFA17, 30, 4, 2, 3, 1);
        assert_eq!(a, b);
        assert_eq!(a.panic_points(), b.panic_points());
        let c = FaultPlan::seeded(0xFA18, 30, 4, 2, 3, 1);
        assert_ne!(a, c, "a different seed draws a different schedule");
        assert!(a.validate(30, 4).is_ok(), "seeded faults are always in range");
    }

    #[test]
    fn explicit_spec_round_trips_through_display() {
        let plan =
            FaultPlan::parse_spec("panic@3.1,slow@2.0:25,ckpt-fail@4:2", 0, 10, 2).unwrap();
        assert!(plan.should_panic(3, 1));
        assert!(!plan.should_panic(3, 0));
        assert_eq!(plan.slowdown_ms(2, 0), Some(25));
        assert_eq!(plan.checkpoint_failures_at(4), 2);
        let reparsed = FaultPlan::parse_spec(&plan.to_string(), 0, 10, 2).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn seeded_spec_expands_from_the_run_seed() {
        let from_spec = FaultPlan::parse_spec("seeded:panics=2,slow=1,ckpt=1", 77, 20, 3).unwrap();
        assert_eq!(from_spec, FaultPlan::seeded(77, 20, 3, 2, 1, 1));
        assert!(!from_spec.is_empty());
    }

    #[test]
    fn bad_specs_name_the_offending_entry() {
        let err = FaultPlan::parse_spec("panic@x.1", 0, 10, 2).unwrap_err();
        assert!(err.contains("panic@x.1"), "{err}");
        let err = FaultPlan::parse_spec("explode@1.1", 0, 10, 2).unwrap_err();
        assert!(err.contains("explode"), "{err}");
        let err = FaultPlan::parse_spec("seeded:panics=many", 0, 10, 2).unwrap_err();
        assert!(err.contains("many"), "{err}");
        // Coordinates past their width are refused, not truncated.
        for (spec, entry) in [
            ("panic@1.65536", "panic@1.65536"),
            ("slow@1.65537:5", "slow@1.65537:5"),
            ("ckpt-fail@1:4294967296", "ckpt-fail@1:4294967296"),
            ("ckpt-fail@1:4294967295,ckpt-fail@1:1", "ckpt-fail@1:1"),
        ] {
            let err = FaultPlan::parse_spec(spec, 0, 10, 1).unwrap_err();
            assert!(err.contains(&format!("`{entry}`")), "{spec}: {err}");
        }
        // A 2-day, 1-shard run has 2 shard-days to place faults in.
        let err = FaultPlan::parse_spec("seeded:panics=3", 0, 2, 1).unwrap_err();
        assert!(err.contains("3 seeded `panics` faults exceed the run's 2 shard-days"), "{err}");
        let err =
            FaultPlan::parse_spec("seeded:slow=18446744073709551615,slow=1", 0, 2, 1).unwrap_err();
        assert!(err.contains("seeded `slow` faults exceed"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_faults() {
        let plan = FaultPlan::new().panic_at(9, 0);
        assert!(plan.validate(10, 1).is_ok());
        assert!(matches!(
            plan.validate(9, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        let plan = FaultPlan::new().slow_at(0, 5, 10);
        assert!(matches!(
            plan.validate(10, 2),
            Err(EngineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.should_panic(0, 0));
        assert_eq!(plan.slowdown_ms(0, 0), None);
        assert_eq!(plan.checkpoint_failures_at(0), 0);
        assert_eq!(plan.to_string(), "(no faults)");
    }
}

/// Hostile specs for both fault plans, built from random words: every
/// kind, separator and width boundary, repeated seeded keys included.
#[cfg(test)]
mod spec_proptests {
    use super::*;
    use crate::resilience::ServeFaultPlan;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const DAYS: u64 = 10;
    const SHARDS: u16 = 4;
    const EVENTS: u64 = 1000;

    /// A canonical decimal from `w`: small, at a `u16`, `u32` or `u64`
    /// boundary, or any `u64`.
    fn number(w: u64) -> String {
        let n = match w % 10 {
            0..=3 => (w >> 4) % 12,
            4 => u64::from(u16::MAX),
            5 => u64::from(u16::MAX) + 1 + (w >> 4) % 2,
            6 => u64::from(u32::MAX),
            7 => u64::from(u32::MAX) + 1,
            8 => u64::MAX,
            _ => w,
        };
        n.to_string()
    }

    /// A spec from `words`: a seeded count map or explicit entries, in
    /// engine, serve or mixed vocabulary, sometimes with a separator
    /// swapped for another or an entry given twice.
    fn spec(words: &[u64]) -> String {
        let mut w = words.iter().copied();
        let mut next = move || w.next().unwrap_or(0);
        let family = next() % 3;
        let joiner = [",", ", ", ",,"][(next() % 3) as usize];
        let mut parts = Vec::new();
        if next() % 4 == 0 {
            let keys: &[&str] = match family {
                0 => &["panics", "slow", "ckpt"],
                1 => &["geo", "slow", "wipe"],
                _ => &["panics", "slow", "ckpt", "geo", "wipe", "boom"],
            };
            for _ in 0..1 + next() % 4 {
                let key = keys[(next() % keys.len() as u64) as usize];
                let w = next();
                if w % 8 == 0 {
                    let pair = [u64::MAX, 1 + (w >> 4) % 3];
                    let first = ((w >> 3) % 2) as usize;
                    parts.push(format!("{key}={}", pair[first]));
                    parts.push(format!("{key}={}", pair[1 - first]));
                } else if ["geo", "wipe", "boom"].contains(&key) {
                    parts.push(format!("{key}={}", number(w)));
                } else {
                    // A huge engine count comes only in the pair above:
                    // alone, were the bound ever lost, it would expand
                    // into that many draws and stall the suite instead
                    // of failing it.
                    parts.push(format!("{key}={}", (w >> 3) % 48));
                }
            }
            return format!("seeded:{}", parts.join(joiner));
        }
        let kinds: &[&str] = match family {
            0 => &["panic", "slow", "ckpt-fail"],
            1 => &["geo-down", "slow-signal", "cache-wipe"],
            _ => &["panic", "slow", "ckpt-fail", "geo-down", "slow-signal", "cache-wipe", "boom"],
        };
        for _ in 0..1 + next() % 4 {
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let (a, b, c) = (number(next()), number(next()), number(next()));
            let source = ["geo", "ip-cache", "ip", "history", "dns"][(next() % 5) as usize];
            let mut coords = match kind {
                "panic" => format!("{a}.{b}"),
                "slow" => format!("{a}.{b}:{c}"),
                "ckpt-fail" => format!("{a}:{b}"),
                "geo-down" => format!("{a}..{b}"),
                "slow-signal" => format!("{source}:{c}"),
                _ => a,
            };
            let w = next();
            if w % 8 == 0 {
                let swap = [".", ":", "..", "@", ""][(w >> 3) as usize % 5];
                coords = coords.replacen(['.', ':'], swap, 1);
            }
            parts.push(format!("{kind}@{coords}"));
            if w % 8 == 1 {
                parts.push(format!("{kind}@{coords}"));
            }
        }
        parts.join(joiner)
    }

    /// `parse` accepts or refuses `spec` without panicking, and an
    /// accepted plan parses back from its rendering to itself. An empty
    /// plan renders as `(no faults)`, which is not a spec.
    fn reaches_a_fixed_point<P>(spec: &str, parse: impl Fn(&str) -> Result<P, String>)
    where
        P: PartialEq + fmt::Debug + fmt::Display,
    {
        let parsed = catch_unwind(AssertUnwindSafe(|| parse(spec)))
            .unwrap_or_else(|_| panic!("parsing {spec:?} panicked"));
        if let Ok(plan) = parsed {
            let text = plan.to_string();
            if text != "(no faults)" {
                assert_eq!(parse(&text), Ok(plan), "{spec:?} rendered as {text:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn engine_specs_parse_or_refuse_and_reach_a_fixed_point(
            words in proptest::collection::vec(0u64..=u64::MAX, 24..25)
        ) {
            reaches_a_fixed_point(&spec(&words), |s| FaultPlan::parse_spec(s, 7, DAYS, SHARDS));
        }

        #[test]
        fn serve_specs_parse_or_refuse_and_reach_a_fixed_point(
            words in proptest::collection::vec(0u64..=u64::MAX, 24..25)
        ) {
            reaches_a_fixed_point(&spec(&words), |s| ServeFaultPlan::parse_spec(s, 7, EVENTS));
        }

        /// One canonical entry renders back to its own text, so no
        /// coordinate is truncated on the way in.
        #[test]
        fn a_canonical_entry_renders_as_written(
            kind in 0u64..6,
            a in 0u64..=u64::MAX,
            b in 0u64..=u64::MAX,
            c in 0u64..=u64::MAX,
        ) {
            let (x, y, z) = (number(a), number(b), number(c));
            let source = ["geo", "ip-cache", "history"][(c % 3) as usize];
            let text = match kind {
                0 => format!("panic@{x}.{y}"),
                1 => format!("slow@{x}.{y}:{z}"),
                2 => format!("ckpt-fail@{x}:{y}"),
                3 => format!("geo-down@{x}..{y}"),
                4 => format!("slow-signal@{source}:{z}"),
                _ => format!("cache-wipe@{x}"),
            };
            let rendered = if kind < 3 {
                FaultPlan::parse_spec(&text, 0, DAYS, SHARDS).map(|plan| plan.to_string())
            } else {
                ServeFaultPlan::parse_spec(&text, 0, EVENTS).map(|plan| plan.to_string())
            };
            if let Ok(rendered) = rendered {
                prop_assert_eq!(rendered, text);
            }
        }
    }
}
