//! Shared grammar for deterministic fault-plan CLI specs.
//!
//! Two fault schedules live in the workspace — the engine's `FaultPlan`
//! (shard panics, slow workers, checkpoint failures) and the serve
//! tier's `ServeFaultPlan` (signal-source outages, slow signals, cache
//! wipes). Both speak the same spec family:
//!
//! * explicit, comma-separated `kind@coordinates` entries, e.g.
//!   `panic@3.1,slow@2.0:25` or `geo-down@100..400,cache-wipe@250`;
//! * `seeded:key=N,key=N` count maps, expanded by the consumer from the
//!   run's master seed. Each kind's count is bounded here by the
//!   consumer's maximum, so no consumer expands an unbounded count.
//!
//! This module owns the tokenising and the error wording so the two
//! plans cannot drift apart: entries are split here, coordinate parsing
//! uses the helpers here, and every error is a plain string naming the
//! offending entry. The CLIs map those strings to usage errors
//! (exit code 2) via `mhw_experiments::cli::UsageError`.

use std::collections::BTreeMap;

/// A parsed spec: either a seeded count map or explicit entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// `seeded:key=N,…` — counts per fault kind, to be expanded by the
    /// consumer from the run seed.
    Seeded(SeededCounts),
    /// Explicit `kind@coordinates` entries, in spec order.
    Explicit(Vec<FaultEntry>),
}

/// Counts parsed from the `seeded:` form, keyed by fault kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeededCounts(BTreeMap<String, u64>);

impl SeededCounts {
    /// The count for a kind (0 when the key was not given).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }
}

/// One explicit entry: the text before `@`, the text after, and the
/// full entry for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// The fault kind (text before `@`). Validated by the consumer,
    /// which knows its own kind vocabulary.
    pub kind: String,
    /// The coordinate text after `@`, parsed with the helpers below.
    pub coords: String,
    /// The whole entry as written, for error messages.
    pub raw: String,
}

/// Tokenise a fault spec into its seeded or explicit form.
///
/// `allowed_seeded_keys` is the consumer's kind vocabulary for the
/// `seeded:` form; an unknown key is rejected here with an error that
/// lists the allowed ones. A kind's count (repeated keys add up) must
/// not exceed `max_count`, the most faults of one kind the consumer can
/// place; `limit` names that maximum in the error, e.g. "the stream's
/// 100 events". Explicit entry *kinds* are not validated here (use
/// [`unknown_kind`] for that) — only the `kind@coords` shape.
pub fn parse(
    spec: &str,
    allowed_seeded_keys: &[&str],
    max_count: u64,
    limit: &str,
) -> Result<FaultSpec, String> {
    let spec = spec.trim();
    if let Some(counts) = spec.strip_prefix("seeded:") {
        let mut map = BTreeMap::new();
        for pair in counts.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}`: expected key=N"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault spec `{pair}`: `{value}` is not a count"))?;
            let key = key.trim();
            if !allowed_seeded_keys.contains(&key) {
                return Err(format!(
                    "fault spec key `{key}`: expected {}",
                    join_or(allowed_seeded_keys)
                ));
            }
            let sum = map.get(key).map_or(Some(n), |sum: &u64| sum.checked_add(n));
            match sum {
                Some(sum) if sum <= max_count => {
                    map.insert(key.to_string(), sum);
                }
                _ => {
                    let sum = sum.map_or(format!("more than {}", u64::MAX), |n| n.to_string());
                    return Err(format!(
                        "fault spec `{spec}`: {sum} seeded `{key}` faults exceed {limit}"
                    ));
                }
            }
        }
        return Ok(FaultSpec::Seeded(SeededCounts(map)));
    }
    let mut entries = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (kind, coords) = entry
            .split_once('@')
            .ok_or_else(|| format!("fault entry `{entry}`: expected kind@coordinates"))?;
        entries.push(FaultEntry {
            kind: kind.to_string(),
            coords: coords.to_string(),
            raw: entry.to_string(),
        });
    }
    Ok(FaultSpec::Explicit(entries))
}

/// The standard error for an explicit entry whose kind is not in the
/// consumer's vocabulary.
pub fn unknown_kind(kind: &str, expected: &[&str]) -> String {
    format!("fault kind `{kind}`: expected {}", join_or(expected))
}

/// Parse a number inside `entry` at the width of its destination, so
/// an out-of-range value is refused rather than truncated, naming the
/// entry and the expected shape on failure.
pub fn num<T: std::str::FromStr>(entry: &str, text: &str, what: &str) -> Result<T, String> {
    text.trim()
        .parse::<T>()
        .map_err(|_| format!("fault entry `{entry}`: `{text}` is not a {what}"))
}

/// Split a coordinate on `sep` into exactly two parts, naming the
/// entry and the expected shape on failure.
pub fn split2<'a>(
    entry: &str,
    text: &'a str,
    sep: char,
    expected: &str,
) -> Result<(&'a str, &'a str), String> {
    text.split_once(sep)
        .ok_or_else(|| format!("fault entry `{entry}`: expected {expected}"))
}

/// Parse a half-open `START..END` range, requiring `START < END`.
pub fn range(entry: &str, text: &str) -> Result<(u64, u64), String> {
    let (start, end) = text
        .split_once("..")
        .ok_or_else(|| format!("fault entry `{entry}`: expected START..END range"))?;
    let start = num(entry, start, "range start")?;
    let end = num(entry, end, "range end")?;
    if start >= end {
        return Err(format!(
            "fault entry `{entry}`: empty range {start}..{end} (need START < END)"
        ));
    }
    Ok((start, end))
}

/// `"a, b or c"` — the list style used by the error messages.
fn join_or(items: &[&str]) -> String {
    match items {
        [] => String::new(),
        [only] => (*only).to_string(),
        [head @ .., last] => format!("{} or {last}", head.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_form_parses_counts() {
        let spec = parse("seeded:panics=2,slow=1", &["panics", "slow", "ckpt"], 2, "two").unwrap();
        let FaultSpec::Seeded(counts) = spec else {
            panic!("expected seeded form")
        };
        assert_eq!(counts.get("panics"), 2);
        assert_eq!(counts.get("slow"), 1);
        assert_eq!(counts.get("ckpt"), 0, "missing keys default to zero");
    }

    #[test]
    fn explicit_form_splits_kind_and_coords() {
        let spec = parse("panic@3.1, slow@2.0:25", &[], 0, "none").unwrap();
        let FaultSpec::Explicit(entries) = spec else {
            panic!("expected explicit form")
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, "panic");
        assert_eq!(entries[0].coords, "3.1");
        assert_eq!(entries[1].raw, "slow@2.0:25");
    }

    #[test]
    fn errors_name_the_offending_entry() {
        let err = parse("panic-no-coords", &[], 0, "none").unwrap_err();
        assert!(err.contains("panic-no-coords"), "{err}");
        let err = parse("seeded:panics=many", &["panics"], 9, "nine").unwrap_err();
        assert!(err.contains("many"), "{err}");
        let err = parse("seeded:explode=1", &["panics", "slow", "ckpt"], 9, "nine").unwrap_err();
        assert!(err.contains("explode"), "{err}");
        assert!(err.contains("panics, slow or ckpt"), "{err}");
        assert_eq!(
            num::<u64>("slow@x", "x", "day").unwrap_err(),
            "fault entry `slow@x`: `x` is not a day"
        );
        assert_eq!(
            unknown_kind("explode", &["panic", "slow", "ckpt-fail"]),
            "fault kind `explode`: expected panic, slow or ckpt-fail"
        );
    }

    #[test]
    fn ranges_are_half_open_and_nonempty() {
        assert_eq!(range("geo-down@5..9", "5..9").unwrap(), (5, 9));
        let err = range("geo-down@9..5", "9..5").unwrap_err();
        assert!(err.contains("9..5"), "{err}");
        let err = range("geo-down@7", "7").unwrap_err();
        assert!(err.contains("START..END"), "{err}");
    }

    #[test]
    fn empty_specs_yield_empty_plans() {
        assert_eq!(parse("", &[], 0, "none").unwrap(), FaultSpec::Explicit(Vec::new()));
        let FaultSpec::Seeded(counts) = parse("seeded:", &["x"], 0, "none").unwrap() else {
            panic!("expected seeded form")
        };
        assert_eq!(counts.get("x"), 0);
    }
}
