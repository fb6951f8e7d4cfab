//! Hostile input files fail with a typed error and an exit code, never a
//! crash. The binaries run as child processes, so a stack overflow fails
//! the test instead of aborting the test binary.

use std::process::Command;

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
