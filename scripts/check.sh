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

echo "== vendored stand-ins =="
# The stand-ins under vendor/ are patch dependencies, not workspace
# members, so the step above never runs their own unit tests (the JSON
# parser's depth limit, proptest's strategies).
cargo test --offline -q -p serde -p serde_json -p serde_derive -p proptest -p rand -p parking_lot

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

echo "== experiments =="
# The full battery must write the committed EXPERIMENTS.md byte for
# byte. Its worlds run every table and figure at full scale, so a
# change that moves any world moves this file; the digest pins below
# cover the benchmark's worlds only. About a minute.
cargo run --offline --release -q -p mhw-experiments --bin repro -- \
    --out "$fidelity_tmp/EXPERIMENTS.md" >/dev/null
cmp EXPERIMENTS.md "$fidelity_tmp/EXPERIMENTS.md"

echo "== restore =="
# Crash and restore through the CLI: a checkpointed scenario killed by
# an injected panic exits 1, and restoring it from its day-2 checkpoint
# with --fork-from writes a --report byte-identical to the uninterrupted
# run's. A diverged restore cannot write checkpoints: usage error, exit 2.
scenario() {
    cargo run --offline --release -q -p mhw-experiments --bin scenario -- \
        --users 400 --days 6 --workers 1 "$@" >/dev/null
}
scenario --shards 2 --report "$fidelity_tmp/uninterrupted.json"
status=0
scenario --shards 2 --checkpoint-dir "$fidelity_tmp/ckpts" --checkpoint-every 2 \
    --fault-plan panic@3.0 2>"$fidelity_tmp/crash.log" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "injected fault" "$fidelity_tmp/crash.log"; then
    echo "the injected panic should exit 1, got $status:" >&2
    cat "$fidelity_tmp/crash.log" >&2
    exit 1
fi
scenario --shards 2 --fork-from "$fidelity_tmp/ckpts/ckpt-day00002.mhw" \
    --report "$fidelity_tmp/restored.json"
cmp "$fidelity_tmp/uninterrupted.json" "$fidelity_tmp/restored.json"
status=0
scenario --shards 2 --fork-from "$fidelity_tmp/ckpts/ckpt-day00002.mhw" --fork-seed 7 \
    --checkpoint-dir "$fidelity_tmp/ckpts" 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "--fork-seed with --checkpoint-dir should be a usage error (exit 2), got $status" >&2
    exit 1
fi
# --validate scores one world. At one shard the plain run skips the
# engine and a checkpointed or restored run goes through it; all three
# must write the same scorecard.
scenario --shards 1 --validate --fidelity-out "$fidelity_tmp/plain.fidelity.json"
scenario --shards 1 --checkpoint-dir "$fidelity_tmp/ckpts1" --checkpoint-every 2 \
    --validate --fidelity-out "$fidelity_tmp/uninterrupted.fidelity.json"
scenario --shards 1 --fork-from "$fidelity_tmp/ckpts1/ckpt-day00002.mhw" \
    --validate --fidelity-out "$fidelity_tmp/restored.fidelity.json"
cmp "$fidelity_tmp/plain.fidelity.json" "$fidelity_tmp/uninterrupted.fidelity.json"
cmp "$fidelity_tmp/plain.fidelity.json" "$fidelity_tmp/restored.fidelity.json"

echo "== docs links =="
# Every intra-repo markdown link (and anchor) must resolve.
scripts/check_links.sh

echo "== serve-smoke =="
# Serve-mode gate: generate the small workload, replay it through
# per-thread RiskService instances on 1 and 2 threads, and check the
# written BENCH_serve.json: on every arm, scored plus shed events equal
# all events, and the clean arm sheds and degrades nothing. The report
# reads no wall clock, so a second run must write the same bytes.
# Usage errors exit 2, runtime failures exit 1 (shared cli contract).
for run in 1 2; do
    cargo run --offline --release -q -p mhw-experiments --bin serve -- \
        --smoke --out "$fidelity_tmp/BENCH_serve.$run.json"
done
cmp "$fidelity_tmp/BENCH_serve.1.json" "$fidelity_tmp/BENCH_serve.2.json"

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
# with the same fingerprint. The report reads no wall clock, so a
# second run must write the same bytes. Does not rewrite the committed
# BENCH_sweep.json — that comes from a full `sweep` run (docs/SWEEPS.md).
for run in 1 2; do
    cargo run --offline --release -q -p mhw-experiments --bin sweep -- \
        --smoke --out "$fidelity_tmp/BENCH_sweep.$run.json"
done
cmp "$fidelity_tmp/BENCH_sweep.1.json" "$fidelity_tmp/BENCH_sweep.2.json"

echo "== digest pins =="
# Absolute digests. Every test above compares dataset digests across
# worker counts, forks and reruns, so an encoding slip in
# `ShardedRun::dataset_digest` that is deterministic would pass them
# all. The benchmark pins the output of its workloads at two seeds
# each, and a run reports "correct":true only when its output matches
# the pin. posture-sweep and scale-world call the dataset digest;
# paper-world pins the unsharded path with seeded mailboxes, where the
# mail store does most of its work; serve-replay pins the streaming
# risk service's verdict digest over 3M logins, the per-account
# history, IP cache and geolocation that score every login. Runs start
# in the temp dir so their records (.bench_out/) stay out of the tree.
cargo build --offline --release --manifest-path benchmark/Cargo.toml
repo_root=$(pwd)
for workload in posture-sweep scale-world paper-world serve-replay; do
    for seed in 1 20141105; do
        result=$(cd "$fidelity_tmp" && cargo run --offline --release --quiet \
            --manifest-path "$repo_root/benchmark/Cargo.toml" -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
            2>"$fidelity_tmp/pin.log" | tail -n 1)
        case "$result" in
            *'"correct":true'*'"failed":0,'*) echo "$workload seed $seed: pinned" ;;
            *)
                echo "$workload seed $seed does not match its pinned digest: $result" >&2
                cat "$fidelity_tmp/pin.log" >&2
                exit 1
                ;;
        esac
    done
done

echo "== clean tree =="
status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
    echo "the gate changed the working tree:" >&2
    diff <(echo "$status_before") <(echo "$status_after") >&2 || true
    exit 1
fi

echo "all checks passed"
