//! Hostile input files and specs fail with a typed error and an exit
//! code, never a crash or a hang. The binaries run as child processes,
//! so a stack overflow fails the test instead of aborting the test
//! binary, and a run that hangs is killed at a deadline.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `serve --log-in` on a file of 200,000 `[`: the JSON parser stops at
/// its depth limit and the run exits 1 with a message, where unbounded
/// recursion overflowed the stack (exit 134).
#[test]
fn deeply_nested_log_in_exits_1_with_a_message() {
    let path = std::env::temp_dir().join(format!("mhw-deep-log-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write the hostile log");
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--smoke", "--log-in"])
        .arg(&path)
        .output()
        .expect("run serve");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than 128 levels at byte 128"), "stderr: {stderr}");
}

/// Run `bin` with `args` and assert it exits 2 with a usage error that
/// names `entry`. A child still running at the deadline is killed and
/// fails the test, so a hang cannot stall the suite.
fn assert_usage_error(bin: &str, args: &[&str], entry: &str) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still ran after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("read stderr");
    assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage error") && stderr.contains(entry), "{args:?}: {stderr}");
}

/// A seeded engine count past the run's shard-days is refused before a
/// single fault is drawn; unbounded, 4e9 draws spun for seconds.
#[test]
fn seeded_engine_counts_past_the_run_exit_2() {
    let spec = "seeded:panics=4000000000";
    let args = ["--users", "200", "--days", "2", "--workers", "1", "--fault-plan", spec];
    assert_usage_error(env!("CARGO_BIN_EXE_scenario"), &args, spec);
}

/// Repeated seeded keys add up with checked addition; a plain `+=`
/// overflowed (a panic in debug builds, a wrap to zero in release).
#[test]
fn repeated_seeded_keys_past_u64_exit_2() {
    let spec = "seeded:geo=18446744073709551615,geo=1";
    assert_usage_error(env!("CARGO_BIN_EXE_serve"), &["--smoke", "--fault-plan", spec], spec);
}

/// A shard past `u16` is refused, not truncated onto a real shard.
#[test]
fn out_of_range_shards_exit_2() {
    for entry in ["panic@1.65536", "panic@1.65537"] {
        let args = ["--users", "200", "--days", "2", "--workers", "1", "--fault-plan", entry];
        assert_usage_error(env!("CARGO_BIN_EXE_scenario"), &args, entry);
    }
}
