#!/usr/bin/env bash
# Full pre-merge gate: release build, the whole test suite, and a
# warning-free clippy pass. Run from anywhere inside the repo.
#
# The build environment is fully offline (external deps are vendored
# stand-ins under vendor/), so every cargo invocation passes --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the working tree as it found it; the last step
# compares against this.
status_before=$(git status --porcelain)

echo "== cargo build --release =="
cargo build --offline --release --workspace

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== cargo clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== cargo test --doc =="
cargo test --offline --workspace --doc -q

echo "== chaos =="
# Crash-safety gate, explicitly: panic isolation, checkpoint/resume
# byte-identity, corrupt-checkpoint rejection, fault reproducibility.
# (Also runs as part of the workspace suite above; kept as its own
# step so a crash-safety regression is named at the gate.)
cargo test --offline -q --test chaos

echo "== fidelity =="
# Paper-fidelity gate: score the quick-scale worlds against the
# calibration-target registry (docs/FIGURES.md). `--validate` exits 1
# if any of the 14 targets FAILs its tolerance band; WARNs are
# small-sample drift and do not fail the gate.
fidelity_tmp=$(mktemp -d)
trap 'rm -rf "$fidelity_tmp"' EXIT
cargo run --offline --release -p mhw-experiments --bin repro -- \
    --quick --validate \
    --fidelity-out "$fidelity_tmp/FIDELITY.json" \
    --scorecard "$fidelity_tmp/FIDELITY.md"

echo "== docs links =="
# Every intra-repo markdown link (and anchor) must resolve.
scripts/check_links.sh

echo "== serve-smoke =="
# Serve-mode gate: generate the small workload, replay it through
# per-thread RiskService instances on 1 and 2 threads, and verify the
# written BENCH_serve.json parses with nonzero throughput. Usage
# errors exit 2, runtime failures exit 1 (shared cli contract).
cargo run --offline --release -p mhw-experiments --bin serve -- \
    --smoke --out "$fidelity_tmp/BENCH_serve.json"

echo "== serve-chaos =="
# Overload gate: the same smoke workload with a seeded fault plan (one
# geo outage window, two deadline-busting slow signals) through the
# resilient path — zero panics, every event scored or shed, shed rate
# bounded (≤ 0.5), and each fault arm replayed twice to assert a
# byte-identical verdict digest.
cargo run --offline --release -p mhw-experiments --bin serve -- \
    --smoke --fault-plan seeded:geo=1,slow=2 --queue-cap 8 \
    --out "$fidelity_tmp/BENCH_serve_chaos.json"

echo "== sweep-smoke =="
# Posture-sweep gate: a tiny defense × recovery grid forked twice off
# freshly built snapshots — the run errors unless both passes produce
# identical per-cell digests and the written BENCH_sweep.json re-reads
# with the same fingerprint. Does not rewrite the committed
# BENCH_sweep.json — that comes from a full `sweep` run (docs/SWEEPS.md).
cargo run --offline --release -p mhw-experiments --bin sweep -- \
    --smoke --out "$fidelity_tmp/BENCH_sweep.json"

echo "== bench-smoke =="
# Scaling smoke: profile the engine at 1/2/4/8 workers on a small
# scenario, write BENCH_scaling.json into the temp dir and read it
# back. Does not rewrite the committed BENCH_scaling.json. The bench
# itself prints a non-fatal warning if a multi-worker shard_day exceeds
# the 1-worker baseline (CI timing is noisy, so this never fails the
# gate).
TMPDIR="$fidelity_tmp" cargo bench --offline -p mhw-bench --bench engine_scaling -- --smoke

echo "== bench-scale =="
# Scale-ladder smoke: one miniature rung through the ladder's
# child-process machinery (VmHWM sampling, row parsing, and the fatal
# cross-worker digest assertion). Does not rewrite BENCH_scale.json —
# the committed ladder comes from a full `cargo bench --bench
# scale_ladder` run (see docs/SCALING.md).
cargo bench --offline -p mhw-bench --bench scale_ladder -- --smoke

echo "== bench-fork =="
# Fork-sweep smoke: a miniature 4-cell grid through both sweep arms —
# fork continuations off a shared prefix vs build each cell from
# scratch — including the fatal baseline-digest cross-check (a fork
# must never change semantics). Does not rewrite BENCH_fork.json —
# the committed artifact comes from a full `cargo bench --bench
# fork_sweep` run (see docs/REPRODUCING.md).
cargo bench --offline -p mhw-bench --bench fork_sweep -- --smoke

echo "== clean tree =="
status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
    echo "the gate changed the working tree:" >&2
    diff <(echo "$status_before") <(echo "$status_after") >&2 || true
    exit 1
fi

echo "all checks passed"
