//! `all`: every workload, each in a process of its own, over a list of
//! seeds, plus one traced run per workload; writes one result set and
//! one Chrome trace with a track per workload.

use crate::json::{obj, render, string, uint};
use crate::report::END_TO_END;
use crate::workloads::{self, WORKLOADS};
use crate::{flag, known_flags, stats, trace, write, Failure, OUT_DIR};
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// `BENCHMARK.json`'s `run_seconds`, the default measured time per run.
pub const RUN_SECONDS: f64 = 20.0;

pub fn main(args: &[String]) -> Result<ExitCode, Failure> {
    known_flags(args, &["--seeds", "--seconds", "--out"], &[])?;
    let seeds: Vec<u64> = match flag::<String>(args, "--seeds")? {
        None => vec![workloads::DEFAULT_SEED],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| Failure::Usage(format!("invalid seed {s}")))
            })
            .collect::<Result<_, _>>()?,
    };
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let out_path =
        flag::<String>(args, "--out")?.unwrap_or_else(|| format!("{OUT_DIR}/results.json"));

    let mut runs = Vec::new();
    let mut trace_events = Vec::new();
    let mut all_correct = true;
    for (track, name) in names.iter().enumerate() {
        for &seed in &seeds {
            let record = child(name, seed, seconds, false)?;
            all_correct &= record.get("correct").and_then(Value::as_bool) == Some(true);
            runs.push(record);
        }
        let record = child(name, seeds[0], seconds, true)?;
        all_correct &= record.get("correct").and_then(Value::as_bool) == Some(true);
        let tid = track as u64 + 1;
        trace_events.push(trace::track_name(tid, name));
        trace_events.extend(retrack(name, seeds[0], tid)?);
        runs.push(record);
    }

    let host = runs
        .first()
        .and_then(|r| r.get("host"))
        .cloned()
        .unwrap_or(Value::Null);
    let set = obj([
        ("schema", string("mhw-benchmark-results/v1")),
        ("seconds", Value::Float(seconds)),
        (
            "seeds",
            Value::Array(seeds.iter().map(|s| uint(*s)).collect()),
        ),
        ("host", host),
        ("runs", Value::Array(runs.clone())),
    ]);
    write(Path::new(&out_path), &render(&set))?;
    if let Some(host) = runs.first().and_then(|r| r.get("host")) {
        println!("\n{}", crate::host::host_line(host));
    }
    println!("{}", summary(&names, &runs));
    println!("result set: {out_path}");
    let path = format!("{OUT_DIR}/trace.json");
    write(
        Path::new(&path),
        &render(&trace::chrome_document(trace_events)),
    )?;
    println!("trace (Chrome trace-event JSON, one track per workload): {path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run one workload in a child process and return its record.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, Failure> {
    let exe =
        std::env::current_exe().map_err(|e| Failure::Run(format!("locate own executable: {e}")))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| Failure::Run(format!("spawn {name}: {e}")))?;
    if !output.status.success() {
        return Err(Failure::Run(format!(
            "{name} seed {seed} exited with {}",
            output.status
        )));
    }
    let path = Path::new(OUT_DIR)
        .join("runs")
        .join(format!("{name}-seed{seed}-trace{}.json", u8::from(trace)));
    read_json(&path)
}

pub fn read_json(path: &Path) -> Result<Value, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Run(format!("read {}: {e}", path.display())))?;
    serde_json::parse(&text).map_err(|e| Failure::Run(format!("parse {}: {e}", path.display())))
}

/// A traced run's events, moved onto track `tid`.
fn retrack(name: &str, seed: u64, tid: u64) -> Result<Vec<Value>, Failure> {
    let path = Path::new(OUT_DIR)
        .join("runs")
        .join(format!("{name}-seed{seed}-trace1.trace.json"));
    let doc = read_json(&path)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    Ok(events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| match e {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), if k == "tid" { uint(tid) } else { v.clone() }))
                    .collect(),
            ),
            other => other.clone(),
        })
        .collect())
}

/// The values of `metric` over the untraced runs of `workload`.
pub fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Median and quartiles of every end-to-end metric per workload.
fn summary(names: &[&str], runs: &[Value]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("\nworkload        metric              unit       median           q1               q3       spread  runs\n");
    for name in names {
        for (metric, unit) in END_TO_END {
            let v = values(runs, name, metric);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = stats::quartiles(&v);
            let _ = writeln!(
                s,
                "{name:<15} {metric:<19} {unit:<6} {:>14.4} {:>16.4} {:>16.4} {:>7.2}% {:>4}",
                stats::median(&v),
                q1,
                q3,
                100.0 * stats::relative_spread(&v),
                v.len()
            );
        }
    }
    s
}
