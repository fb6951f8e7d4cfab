//! The metric catalog, and turning one run's outcome into its result:
//! the record written to disk, the report printed for a reader, and the
//! one-line JSON result that ends standard output.

use crate::json::{float, obj, string, uint};
use crate::stats;
use crate::workloads::{Metric, Outcome, Params};
use serde::Value;

/// End-to-end metrics, reported by every timed run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.build_ms", "ms"),
    ("core.rss_after_build_mib", "MiB"),
    ("core.run_day_ms_p50", "ms"),
    ("core.run_day_ms_p90", "ms"),
    ("core.run_day_growth", "ratio"),
    ("core.shard_day_ms", "ms"),
    ("core.barrier_exchange_ms", "ms"),
    ("core.log_merge_ms", "ms"),
    ("core.dataset_digest_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("core.fork_run_ms_p50", "ms"),
    ("core.generate_workload_ms", "ms"),
    ("core.mix_digest_ns", "ns"),
    ("core.log_records", "count"),
    ("engine.market_trades", "count"),
    ("engine.cross_shard_lures", "count"),
    ("mailsys.messages_sent", "count"),
    ("mailsys.mail_delivered", "count"),
    ("mailsys.searches", "count"),
    ("mailsys.stored_messages", "count"),
    ("identity.login_attempts", "count"),
    ("identity.challenges_issued", "count"),
    ("defense.assess_ns", "ns"),
    ("defense.evaluate_ns", "ns"),
    ("defense.commit_ns", "ns"),
    ("defense.state_bytes", "bytes"),
    ("defense.ip_entries", "count"),
    ("defense.accounts", "count"),
    ("defense.challenge_ratio", "ratio"),
    ("netmodel.locate_ns", "ns"),
    ("phishkit.pages_up", "count"),
    ("phishkit.capture_ratio", "ratio"),
    ("adversary.sessions_run", "count"),
    ("adversary.exploit_ratio", "ratio"),
    ("recovery.claims_filed", "count"),
    ("recovery.claims_denied", "count"),
    ("recovery.pivot_claims", "count"),
    ("recovery.pivot_takeovers", "count"),
    ("trace.overhead_pct", "%"),
];

/// The metrics a run reports: the end-to-end set for a timed run, the
/// full per-layer catalog for a traced one.
pub fn metrics(p: &Params, out: &Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    if p.trace {
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric { name, value, unit }
            })
            .collect();
    }
    let t = &out.timed;
    let latency = stats::tail(&t.latency_us);
    let values = [
        stats::median(&t.setup_s),
        stats::median(&t.throughput),
        latency.p50,
        latency.tail,
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

fn metrics_object(metrics: &[Metric]) -> Value {
    obj(metrics.iter().map(|m| {
        (
            m.name,
            obj([("value", float(m.value)), ("unit", string(m.unit))]),
        )
    }))
}

/// The one-line JSON result that ends standard output.
pub fn result_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> Value {
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", uint(out.attempted)),
        ("failed", uint(out.failed)),
        ("metrics", metrics_object(metrics)),
    ])
}

/// The full record of one run, written beside the result.
pub fn record(
    workload: &str,
    p: &Params,
    correct: bool,
    out: &Outcome,
    metrics: &[Metric],
    host: Value,
    conditions: Value,
) -> Value {
    let t = &out.timed;
    let mut entries = vec![
        ("workload", string(workload)),
        ("seed", uint(p.seed)),
        ("seconds", float(p.seconds)),
        ("trace", Value::Bool(p.trace)),
        ("correct", Value::Bool(correct)),
        ("attempted", uint(out.attempted)),
        ("failed", uint(out.failed)),
        ("metrics", metrics_object(metrics)),
        ("digest", string(&format!("{:#018x}", out.digest))),
        (
            "checks",
            Value::Array(
                out.checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", string(&c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", string(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("host", host),
        ("conditions", conditions),
    ];
    if !p.trace {
        let latency = stats::tail(&t.latency_us);
        let floats = |v: &[f64]| Value::Array(v.iter().map(|x| float(*x)).collect());
        entries.push(("throughput_of", string(t.throughput_of)));
        entries.push(("throughput_samples", floats(&t.throughput)));
        entries.push(("setup_samples_s", floats(&t.setup_s)));
        if t.latency_us.len() <= 1000 {
            entries.push(("latency_samples_us", floats(&t.latency_us)));
        }
        entries.push((
            "latency",
            obj([
                ("of", string(t.latency_of)),
                ("samples", uint(latency.samples as u64)),
                ("tail_percentile", uint(latency.percentile as u64)),
            ]),
        ));
    }
    if let Some(tracer) = &out.tracer {
        entries.push((
            "self_time_ms",
            obj(tracer
                .self_times()
                .into_iter()
                .map(|(layer, ns)| (layer, float(ns as f64 / 1e6)))),
        ));
    }
    entries.extend(out.detail.iter().map(|(k, v)| (*k, v.clone())));
    obj(entries)
}

/// A human-readable report of one run.
pub fn describe(
    workload: &str,
    p: &Params,
    correct: bool,
    out: &Outcome,
    metrics: &[Metric],
    host: &Value,
    conditions: &Value,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mode = if p.trace { "traced" } else { "timed" };
    let _ = writeln!(
        s,
        "== {workload}  seed {}  {} s  ({mode})",
        p.seed, p.seconds
    );
    for m in metrics {
        let _ = writeln!(s, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !p.trace {
        let t = &out.timed;
        let latency = stats::tail(&t.latency_us);
        let _ = writeln!(
            s,
            "  throughput counts {} (median of {} units); latency per {}: p50 and p{} of {} samples",
            t.throughput_of,
            t.throughput.len(),
            t.latency_of,
            latency.percentile,
            latency.samples
        );
    }
    if let Some(tracer) = &out.tracer {
        let layers = tracer.self_times();
        let total: u64 = layers.iter().map(|(_, ns)| ns).sum();
        let _ = writeln!(
            s,
            "  self time by layer (benchmark spans, side calls excluded):"
        );
        for (layer, ns) in layers {
            let share = 100.0 * ns as f64 / total.max(1) as f64;
            let _ = writeln!(
                s,
                "    {layer:<10} {:>12.3} ms  {share:>5.1}%",
                ns as f64 / 1e6
            );
        }
    }
    for c in &out.checks {
        let _ = writeln!(
            s,
            "  [{}] {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let _ = writeln!(s, "  {}", crate::host::host_line(host));
    let get = |k: &str| conditions.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let chase = |k: &str| {
        conditions
            .get(k)
            .and_then(Value::as_f64)
            .map_or_else(|| "n/a".to_string(), |ns| format!("{ns:.1}"))
    };
    let _ = writeln!(
        s,
        "  run conditions: wall {:.2} s, on-CPU {:.2} s ({:.3}), steal {:.2}%, CPU reference {:.2} -> {:.2} ms, memory reference {} -> {} ns/step",
        get("wall_s"),
        get("oncpu_s"),
        get("oncpu_ratio"),
        get("steal_pct"),
        get("reference_ms_before"),
        get("reference_ms_after"),
        chase("chase_ns_before"),
        chase("chase_ns_after")
    );
    let _ = writeln!(
        s,
        "  {} {} of {} failed, digest {:#018x}",
        if correct { "correct:" } else { "INCORRECT:" },
        out.failed,
        out.attempted,
        out.digest
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"),
        )
        .unwrap()
    }

    fn pairs(list: &Value, second: &str) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, second)))
            .collect()
    }

    #[test]
    fn manifest_matches_the_catalogs() {
        let doc = manifest();
        let owned = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            pairs(doc.get("end_to_end").unwrap(), "unit"),
            owned(&END_TO_END)
        );
        assert_eq!(
            pairs(doc.get("per_layer").unwrap(), "unit"),
            owned(&PER_LAYER)
        );
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(
            pairs(doc.get("workloads").unwrap(), "why"),
            owned(&workloads)
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::suite::RUN_SECONDS)
        );
        let bounds = crate::compare::bounds(&doc).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(
            bounds.iter().all(|b| b.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
