//! `mhw-benchmark` — the repository's benchmark.
//!
//! ```text
//! mhw-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! mhw-benchmark all [--seeds 1,2,3] [--seconds S] [--out FILE]
//! mhw-benchmark compare A.json B.json
//! mhw-benchmark chase
//! ```
//!
//! The first form runs one workload in this process on this thread,
//! checks its output, prints a report on standard error and ends
//! standard output with one JSON result line: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. `all` runs every
//! workload, each in a process of its own, and writes a result set;
//! `compare` sets two result sets side by side. `chase` prints the
//! host's memory reference (see `host.rs`), which every run times in a
//! child process before and after its timed phase. See `README.md`.
//!
//! Runs write their records under `.bench_out/` in the working
//! directory. Usage errors exit 2 and runs that cannot finish exit 1,
//! both without a result line; a finished run whose output fails a
//! check exits 0 with `"correct": false`.

mod compare;
mod host;
mod json;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Params, WORKLOADS};

/// Where records, result sets and traces are written.
pub const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    let mut text = String::from(
        "usage: mhw-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      mhw-benchmark all [--seeds 1,2,3] [--seconds S] [--out FILE]\n\
         \x20      mhw-benchmark compare A.json B.json\n\
         \x20      mhw-benchmark chase\n\
         workloads:",
    );
    for w in &WORKLOADS {
        text.push_str(&format!("\n  {:<14} {}", w.name, w.why));
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => suite::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("chase") if args.len() == 1 => {
            println!("{}", host::chase_ns());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("usage error: {msg}\n{}", usage());
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

pub enum Failure {
    Usage(String),
    Run(String),
}

/// The value after `--flag`, parsed.
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, Failure> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| Failure::Usage(format!("{name} needs a value")))?;
            raw.parse()
                .map(Some)
                .map_err(|_| Failure::Usage(format!("invalid value for {name}: {raw}")))
        }
    }
}

/// Reject arguments that are neither known flags nor their values.
pub fn known_flags(args: &[String], with_value: &[&str], bare: &[&str]) -> Result<(), Failure> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if with_value.contains(&a) {
            i += 2;
        } else if bare.contains(&a) {
            i += 1;
        } else {
            return Err(Failure::Usage(format!("unexpected argument {a}")));
        }
    }
    Ok(())
}

fn run_one(args: &[String]) -> Result<ExitCode, Failure> {
    known_flags(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let name: String =
        flag(args, "--workload")?.ok_or_else(|| Failure::Usage("--workload is required".into()))?;
    let workload =
        workloads::find(&name).ok_or_else(|| Failure::Usage(format!("unknown workload {name}")))?;
    let seed = flag(args, "--seed")?.unwrap_or(workloads::DEFAULT_SEED);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(suite::RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(Failure::Usage(format!(
            "--seconds must be in (0, 3600], got {seconds}"
        )));
    }
    let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => {
            return Err(Failure::Usage(format!(
                "--trace must be 0 or 1, got {other}"
            )))
        }
    };
    let p = Params {
        seed,
        seconds,
        trace,
    };

    let host = host::host_record();
    let conditions = host::Conditions::start();
    let mut out = (workload.run)(&p).map_err(Failure::Run)?;
    let conditions = conditions.finish();
    let peak_rss_mib = host::peak_rss_mib();

    if let Some(check) = workloads::pin_check(workload.name, seed, out.digest) {
        out.checks.push(check);
    }
    if out.checks.iter().any(|c| !c.ok) {
        out.failed = out.attempted;
    }
    if trace {
        let traced = stats::median(&out.traced_throughput) / stats::median(&out.timed.throughput);
        out.layer("trace.overhead_pct", 100.0 * (1.0 - traced), "%");
    }
    let correct = out.failed == 0;
    let metrics = report::metrics(&p, &out, peak_rss_mib);

    eprint!(
        "{}",
        report::describe(
            workload.name,
            &p,
            correct,
            &out,
            &metrics,
            &host,
            &conditions
        )
    );
    let record = report::record(workload.name, &p, correct, &out, &metrics, host, conditions);
    let runs = std::path::Path::new(OUT_DIR).join("runs");
    let stem = format!("{}-seed{}-trace{}", workload.name, seed, u8::from(trace));
    write(&runs.join(format!("{stem}.json")), &json::render(&record))?;
    if let Some(tracer) = &out.tracer {
        let mut events = vec![trace::track_name(1, workload.name)];
        events.extend(tracer.chrome_events(1));
        let path = runs.join(format!("{stem}.trace.json"));
        write(&path, &json::render(&trace::chrome_document(events)))?;
        eprintln!("  trace: {}", path.display());
    }
    // A run that got this far exits 0 and reports failed checks in its
    // result line.
    println!(
        "{}",
        json::render(&report::result_line(correct, &out, &metrics))
    );
    Ok(ExitCode::SUCCESS)
}

/// Write `text` to `path`, creating its directory.
pub fn write(path: &std::path::Path, text: &str) -> Result<(), Failure> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Failure::Run(format!("create {}: {e}", dir.display())))?;
    }
    std::fs::write(path, text).map_err(|e| Failure::Run(format!("write {}: {e}", path.display())))
}
