//! `compare`: two result sets side by side, one row per workload and
//! end-to-end metric, with a verdict that never claims more than the
//! spread of the runs allows.
//!
//! The bound and direction of each metric come from `BENCHMARK.json`.
//! Verdicts, with "change" the move of B's median from A's in the
//! metric's worse direction, as a share of A's median, and "spread" the
//! interquartile distance over the median:
//!
//! * **unresolved** — either side has fewer than 3 runs, or a side's
//!   spread exceeds the bound — unless every B run is better (or worse)
//!   than every A run, which decides it anyway;
//! * **worse** — the change exceeds the bound;
//! * **better** — the improvement exceeds A's own spread;
//! * **within bound** — anything else.
//!
//! It also prints each set's median times for the two host references
//! (see `host.rs`), which move only when the host does: the CPU loop
//! with the CPU's speed, the memory chase with contention for the shared
//! caches and memory.

use crate::stats::{median, quartiles, relative_spread};
use crate::suite::{read_json, values};
use crate::Failure;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// One end-to-end metric of the benchmark manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn bounds(manifest: &Value) -> Result<Vec<Bound>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("manifest has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric lacks {k}"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("better must be lower or higher, got {better}"));
            }
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: better == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric lacks bound")?,
            })
        })
        .collect()
}

/// Judge B's runs against A's for one metric.
pub fn verdict(a: &[f64], b: &[f64], metric: &Bound) -> Verdict {
    if a.len() < 3 || b.len() < 3 {
        return Verdict::Unresolved;
    }
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a);
    let max = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    // In sign-adjusted units, larger is worse.
    let all_better = max(b) < min(a);
    let all_worse = min(b) > max(a);
    if relative_spread(a).max(relative_spread(b)) > metric.bound {
        return if all_better {
            Verdict::Better
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > relative_spread(a) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One table row per workload × metric present in both sets.
pub fn table(a: &Value, b: &Value, metrics: &[Bound]) -> Vec<String> {
    let runs = |set: &Value| {
        set.get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut workloads: Vec<String> = Vec::new();
    for r in runs_a.iter().chain(&runs_b) {
        if let Some(w) = r.get("workload").and_then(Value::as_str) {
            if !workloads.iter().any(|x| x == w) {
                workloads.push(w.to_string());
            }
        }
    }
    let mut rows = Vec::new();
    for w in &workloads {
        for m in metrics {
            let (va, vb) = (values(&runs_a, w, &m.name), values(&runs_b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:>13.4} [{:.4}, {:.4}] n={}", median(v), q1, q3, v.len())
            };
            let change = 100.0 * (median(&vb) - median(&va)) / median(&va);
            rows.push(format!(
                "{w:<14} {:<17} {:<4} A {}  B {}  {change:+7.2}%  bound {:.0}%  {}",
                m.name,
                m.unit,
                side(&va),
                side(&vb),
                100.0 * m.bound,
                verdict(&va, &vb, m).label()
            ));
        }
    }
    rows
}

/// The median of a run-condition field over a result set's runs.
fn reference(set: &Value, key: &str, unit: &str) -> String {
    let values: Vec<f64> = set
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| r.get("conditions")?.get(key)?.as_f64())
        .collect();
    if values.is_empty() {
        "n/a".to_string()
    } else {
        format!("{:.2} {unit}", median(&values))
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, Failure> {
    let [a, b] = args else {
        return Err(Failure::Usage(
            "compare needs exactly two result sets".into(),
        ));
    };
    let metrics = bounds(&read_json(Path::new("BENCHMARK.json"))?).map_err(Failure::Run)?;
    let (a, b) = (
        read_json(Path::new(a.as_str()))?,
        read_json(Path::new(b.as_str()))?,
    );
    let rows = table(&a, &b, &metrics);
    if rows.is_empty() {
        return Err(Failure::Run(
            "the result sets share no workload with untraced runs".into(),
        ));
    }
    for row in rows {
        println!("{row}");
    }
    // The same host references timed in every run: if A and B differ
    // here, the host changed speed between the sets, not only the
    // program.
    for (what, key, unit) in [
        ("CPU reference loop", "reference_ms_before", "ms"),
        ("memory reference chase", "chase_ns_before", "ns/step"),
    ] {
        println!(
            "host {what}, median over runs: A {}, B {}",
            reference(&a, key, unit),
            reference(&b, key, unit)
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput(bound: f64) -> Bound {
        Bound {
            name: "throughput_per_s".into(),
            unit: "1/s".into(),
            lower_is_better: false,
            bound,
        }
    }

    fn latency(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_us".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn same_runs_are_within_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, &throughput(0.1)), Verdict::WithinBound);
        assert_eq!(verdict(&a, &a, &latency(0.1)), Verdict::WithinBound);
    }

    #[test]
    fn direction_decides_better_and_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &up, &throughput(0.1)), Verdict::Better);
        assert_eq!(verdict(&a, &up, &latency(0.1)), Verdict::Worse);
        let down: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        // 5% slower is worse than A's own spread but inside the bound.
        assert_eq!(verdict(&a, &down, &throughput(0.1)), Verdict::WithinBound);
        assert_eq!(verdict(&a, &down, &latency(0.1)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_separate() {
        let a = [50.0, 100.0, 150.0, 75.0, 125.0];
        let b = [60.0, 110.0, 160.0, 85.0, 135.0];
        assert_eq!(verdict(&a, &b, &throughput(0.1)), Verdict::Unresolved);
        let far: Vec<f64> = a.iter().map(|x| x + 1000.0).collect();
        assert_eq!(verdict(&a, &far, &throughput(0.1)), Verdict::Better);
        assert_eq!(verdict(&a, &far, &latency(0.1)), Verdict::Worse);
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(
            verdict(&[1.0, 1.0], &[2.0, 2.0, 2.0], &throughput(0.1)),
            Verdict::Unresolved
        );
    }

    fn run(workload: &str, trace: bool, value: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"workload":"{workload}","trace":{trace},"metrics":{{"throughput_per_s":{{"value":{value},"unit":"1/s"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn table_pairs_untraced_runs_by_workload() {
        let manifest = serde_json::parse(
            r#"{"end_to_end":[{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let metrics = bounds(&manifest).unwrap();
        assert_eq!(metrics, vec![throughput(0.1)]);
        let set = |values: &[f64]| {
            let mut runs: Vec<Value> = values
                .iter()
                .map(|v| run("serve-replay", false, *v))
                .collect();
            runs.push(run("serve-replay", true, 1.0)); // traced runs are ignored
            Value::Object(vec![("runs".into(), Value::Array(runs))])
        };
        let rows = table(
            &set(&[10.0, 10.1, 9.9]),
            &set(&[20.0, 20.2, 19.8]),
            &metrics,
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with("serve-replay"), "{}", rows[0]);
        assert!(rows[0].ends_with("better"), "{}", rows[0]);
        assert!(rows[0].contains("n=3"), "{}", rows[0]);
    }

    #[test]
    fn manifest_rejects_unknown_direction() {
        let manifest = serde_json::parse(
            r#"{"end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#,
        )
        .unwrap();
        assert!(bounds(&manifest).is_err());
    }
}
