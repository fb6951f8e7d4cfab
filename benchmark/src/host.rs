//! What a result was recorded on, and under which run conditions.
//!
//! The host record names the machine (cores, CPU model, L3 size), the
//! compiler and the source revision. The run conditions of one timed
//! phase compare its wall time with the time this thread actually spent
//! on a CPU (`/proc/thread-self/schedstat`) and with the CPU time the
//! hypervisor stole (`/proc/stat`), and time two fixed references
//! before and after it, so a result that misses its steadiness bound can
//! be blamed on the host or on the program: a cache-resident loop that
//! only the CPU's speed moves, and a pointer chase over main memory that
//! contention for the shared caches and memory moves.

use crate::json::{float, obj, string, uint};
use serde::Value;
use std::process::{Command, Stdio};
use std::time::Instant;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A `Key: value kB` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    read("/proc/self/status")
        .and_then(|status| {
            status.lines().find(|l| l.starts_with(key)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (VmRSS), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// The first `field: value` line of `/proc/cpuinfo` for `field`.
fn cpuinfo(field: &str) -> Option<String> {
    read("/proc/cpuinfo")?
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The source revision of the checkout, read from `.git` in the working
/// directory without calling git (a checkout without `.git` is
/// "unknown").
fn git_revision() -> String {
    let head = match read(".git/HEAD") {
        Some(head) => head.trim().to_string(),
        None => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record attached to every result.
pub fn host_record() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .or_else(|| cpuinfo("cache size"))
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        ("cores", uint(cores as u64)),
        (
            "cpu_model",
            string(&cpuinfo("model name").unwrap_or_else(|| "unknown".to_string())),
        ),
        ("l3", string(&l3)),
        (
            "kernel",
            string(
                read("/proc/sys/kernel/osrelease")
                    .as_deref()
                    .unwrap_or("unknown")
                    .trim(),
            ),
        ),
        ("rustc", string(env!("BENCH_RUSTC_VERSION"))),
        ("git_revision", string(&git_revision())),
    ])
}

/// The host record as one line of text.
pub fn host_line(host: &Value) -> String {
    let field = |k: &str| {
        host.get(k).map_or_else(String::new, |v| match v {
            Value::Str(s) => s.clone(),
            other => crate::json::render(other),
        })
    };
    format!(
        "host: {} cores, {}, L3 {}, kernel {}, {}, git {}",
        field("cores"),
        field("cpu_model"),
        field("l3"),
        field("kernel"),
        field("rustc"),
        field("git_revision")
    )
}

/// This thread's on-CPU time so far, ns (first schedstat field).
fn oncpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Steal and total jiffies over all CPUs (`cpu` line of `/proc/stat`).
fn cpu_jiffies() -> (u64, u64) {
    let fields: Vec<u64> = read("/proc/stat")
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|line| {
            line.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so the total stops at steal.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Milliseconds a fixed computation takes on this thread now: FNV-1a
/// over 16 MiB of a cache-resident buffer, best of three. It does not
/// touch the program under test, so when it slows down, the host did.
fn reference_ms() -> f64 {
    let buffer = vec![0x5au8; 256 * 1024];
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut h = mhw_types::fnv::OFFSET;
            for _ in 0..64 {
                h = mhw_types::fnv::fnv1a(h, std::hint::black_box(&buffer));
            }
            std::hint::black_box(h);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Bytes of the memory reference's chase: past the L3 of the hosts
/// this runs on, so that most steps wait on main memory.
const CHASE_BYTES: usize = 128 << 20;
const CHASE_STEPS: usize = 1 << 20;

/// Nanoseconds per step of a dependent pointer chase over
/// [`CHASE_BYTES`]. Slot `i` holds the next slot of a full-period
/// linear congruential sequence, so the chase visits slots in an order
/// no prefetcher follows, and each load waits for the one before.
pub fn chase_ns() -> f64 {
    let mask = (CHASE_BYTES / 8 - 1) as u64;
    let next: Vec<u64> = (0..=mask)
        .map(|i| {
            i.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                & mask
        })
        .collect();
    let mut slot = 0u64;
    let t0 = Instant::now();
    for _ in 0..CHASE_STEPS {
        slot = next[std::hint::black_box(slot) as usize];
    }
    std::hint::black_box(slot);
    t0.elapsed().as_nanos() as f64 / CHASE_STEPS as f64
}

/// [`chase_ns`] in a child process of this binary, so its buffer never
/// counts towards this process's peak resident set. `None` when the
/// child cannot run.
fn chase_in_child() -> Option<f64> {
    let out = Command::new(std::env::current_exe().ok()?)
        .arg("chase")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn optional(v: Option<f64>) -> Value {
    v.map_or(Value::Null, float)
}

/// Clocks read at the start of a timed phase.
pub struct Conditions {
    wall: Instant,
    oncpu_ns: u64,
    jiffies: (u64, u64),
    reference_ms: f64,
    chase_ns: Option<f64>,
}

impl Conditions {
    pub fn start() -> Self {
        let reference_ms = reference_ms();
        let chase_ns = chase_in_child();
        Conditions {
            wall: Instant::now(),
            oncpu_ns: oncpu_ns(),
            jiffies: cpu_jiffies(),
            reference_ms,
            chase_ns,
        }
    }

    /// Wall time, on-CPU time and steal since [`Conditions::start`], and
    /// both references' times before and after.
    pub fn finish(&self) -> Value {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let oncpu_s = oncpu_ns().saturating_sub(self.oncpu_ns) as f64 / 1e9;
        let (steal, total) = cpu_jiffies();
        let total = total.saturating_sub(self.jiffies.1);
        let steal_pct = if total == 0 {
            0.0
        } else {
            100.0 * steal.saturating_sub(self.jiffies.0) as f64 / total as f64
        };
        obj([
            ("wall_s", float(wall_s)),
            ("oncpu_s", float(oncpu_s)),
            (
                "oncpu_ratio",
                float(if wall_s > 0.0 { oncpu_s / wall_s } else { 0.0 }),
            ),
            ("steal_pct", float(steal_pct)),
            ("reference_ms_before", float(self.reference_ms)),
            ("reference_ms_after", float(reference_ms())),
            ("chase_ns_before", optional(self.chase_ns)),
            ("chase_ns_after", optional(chase_in_child())),
        ])
    }
}
