#!/usr/bin/env bash
# Tier-1 verification, run fully offline to prove the build is hermetic:
# a clean checkout with an empty cargo registry must build and pass every
# test. tests/hermetic.rs additionally asserts no manifest can reintroduce
# a registry dependency.
#
# Usage:
#   scripts/verify.sh            # offline release build + full test suite
#   FIREFLY_VERIFY_LINT=1 scripts/verify.sh   # also run fmt + clippy
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release --offline (workspace)"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

# The repo benchmark is a package of its own (not a workspace member) and
# compiles against the runtime's public API — `shard::WorkQueues`,
# `calltable::{ShardedCallTable, Wait}`, the `RpcStats` accessors,
# `Endpoint::{tracer, trace_report, pool, stats}`. Build and test it
# here, so a change that breaks it fails locally and not in the
# pipeline's benchmark run. (Its tests refuse to measure in a debug
# build; they only drive every workload for a moment.)
echo "==> cargo test --offline (rpcbench, the repo benchmark)"
cargo test -q --offline --manifest-path rpcbench/Cargo.toml

# Always-on static analysis: the in-tree linter needs no extra
# components, so unlike fmt/clippy below it is not opt-in. The JSON
# report must parse (python3 ships in the image) and the analysis —
# tokenizing the workspace, building the call graph, walking
# reachability — must stay interactive: under 5 seconds.
echo "==> firefly-lint --json (flow-aware rules + machine report)"
lint_started=$(date +%s%N)
cargo run --release --offline -q -p firefly-lint -- --json > target/lint-report.json
lint_elapsed_ms=$(( ($(date +%s%N) - lint_started) / 1000000 ))
python3 -c '
import json, sys
with open("target/lint-report.json") as f:
    report = json.load(f)
for key in ("diagnostics", "fast_path", "lock_graph", "protocol"):
    if key not in report:
        sys.exit(f"lint JSON missing {key!r}")
if not report["fast_path"]["files"]:
    sys.exit("lint JSON reports an empty fast-path file set")
if len(report["protocol"]["transitions"]) < 32:
    sys.exit("lint JSON protocol section lost the spec transition table")
'

# Spec drift: every PacketType variant declared in the wire crate must
# be named in protocol.toml [packet-types] — adding a packet type
# without extending the spec (and therefore the conformance pass and
# the coverage gate) must fail loudly here, not rot silently.
python3 -c '
import re, sys
src = open("crates/wire/src/rpc.rs").read()
m = re.search(r"pub enum PacketType \{(.*?)\n\}", src, re.S)
if not m:
    sys.exit("cannot find PacketType enum in crates/wire/src/rpc.rs")
declared = set(re.findall(r"^\s*([A-Z]\w*)\s*=\s*\d+", m[1], re.M))
spec = open("protocol.toml").read()
t = re.search(r"\[packet-types\]\s*\ntypes\s*=\s*\[(.*?)\]", spec, re.S)
if not t:
    sys.exit("protocol.toml lacks a [packet-types] types list")
listed = set(re.findall(r"\"(\w+)\"", t[1]))
missing = declared - listed
if missing:
    sys.exit(f"PacketType variant(s) {sorted(missing)} not declared in protocol.toml")
extra = listed - declared
if extra:
    sys.exit(f"protocol.toml names packet type(s) {sorted(extra)} the wire crate lacks")
print(f"    spec drift: {len(declared)} packet types match protocol.toml")
'
echo "    lint runtime: ${lint_elapsed_ms} ms ($(python3 -c 'import json; print(len(json.load(open("target/lint-report.json"))["fast_path"]["functions"]))') fast-path fns)"
if (( lint_elapsed_ms >= 5000 )); then
    echo "verify: FAIL — firefly-lint took ${lint_elapsed_ms} ms (budget 5000 ms)" >&2
    exit 1
fi

# Dynamic concurrency checking: bounded schedule exploration of the
# structure models (call table, pool, trace ring, channel, install gate,
# sharded call table, activity-slot retention), plus the seeded-bug
# fixtures (each must be caught with a replayable schedule). Exploration
# is deterministic, so the budget is generous headroom, not slack.
echo "==> firefly-check --smoke (schedule exploration + seeded bugs)"
check_started=$(date +%s%N)
cargo run --release --offline -q -p firefly-check -- --smoke --json-edges target/check-edges.json
check_elapsed_ms=$(( ($(date +%s%N) - check_started) / 1000000 ))
echo "    firefly-check runtime: ${check_elapsed_ms} ms"
if (( check_elapsed_ms >= 10000 )); then
    echo "verify: FAIL — firefly-check took ${check_elapsed_ms} ms (budget 10000 ms)" >&2
    exit 1
fi

# Cross-validation (scripts/cross_diff.py): every class-level lock edge
# observed dynamically by firefly-check must already be in firefly-lint's
# static lock graph with the configured rank order (parametric
# `class[index]` instances collapse to annotated class edges on both
# sides); every release->acquire publication class the race detector
# consumed must map to a statically paired atomic location (via the
# [publication-labels] table in lint.toml); every auditing model's
# quiescent pool accounting must balance outstanding against retained;
# and every protocol transition observed dynamically must be spec-legal
# while every legal row is observed or allowlisted (the fourth gate).
echo "==> static-vs-dynamic cross-diff (lock edges, publications, accounting, protocol)"
python3 scripts/cross_diff.py target/lint-report.json target/check-edges.json

# The fourth gate must have teeth: a doctored check report claiming a
# transition outside the spec's legal table must fail the cross-diff.
echo "==> cross-diff negative fixture (doctored illegal transition)"
python3 -c '
import json
report = json.load(open("target/check-edges.json"))
report["transitions"].append("server-new Call - -> explode")
json.dump(report, open("target/check-edges-doctored.json", "w"))
'
if python3 scripts/cross_diff.py target/lint-report.json target/check-edges-doctored.json >/dev/null 2>&1; then
    echo "verify: FAIL — cross_diff.py accepted an off-spec protocol transition" >&2
    exit 1
fi
echo "    doctored report rejected as expected"

# Partial-order reduction gate: the 4-shard call table model must stay
# exhaustible under DPOR inside a tight budget (plain DFS drowns in its
# interleaving space — tests/check.rs proves that contrast). A jump in
# the explored+pruned count means the sleep-set/source-set pruning
# regressed toward unpruned DFS.
echo "==> firefly-check --model sharded-calltable --dpor (pruning gate)"
dpor_started=$(date +%s%N)
dpor_out=$(cargo run --release --offline -q -p firefly-check -- --model sharded-calltable --dpor)
dpor_elapsed_ms=$(( ($(date +%s%N) - dpor_started) / 1000000 ))
echo "$dpor_out" | sed 's/^/    /'
echo "    dpor runtime: ${dpor_elapsed_ms} ms"
if (( dpor_elapsed_ms >= 15000 )); then
    echo "verify: FAIL — sharded-calltable DPOR took ${dpor_elapsed_ms} ms (budget 15000 ms)" >&2
    exit 1
fi
echo "$dpor_out" | python3 -c '
import re, sys
for line in sys.stdin:
    m = re.match(r"dpor (\S+) explored (\d+) schedule\(s\), pruned (\d+), exhausted (true|false)", line)
    if m:
        model, explored, pruned, exhausted = m[1], int(m[2]), int(m[3]), m[4]
        break
else:
    sys.exit("no dpor summary line in firefly-check output")
if exhausted != "true":
    sys.exit(f"DPOR did not exhaust {model} (explored {explored}, pruned {pruned})")
if explored + pruned > 100:
    sys.exit(f"DPOR pruning regressed on {model}: {explored} explored + {pruned} pruned (gate: 100)")
print(f"    {model}: exhausted in {explored} explored + {pruned} pruned schedule(s)")
'

# The live latency account must produce a complete per-step table (the
# ±10% accounted-vs-measured bound itself is asserted by
# tests/latency_account.rs above; this proves the binary end to end).
echo "==> latency_account --smoke"
cargo run --release --offline -q -p firefly-bench --bin latency_account -- --smoke

# The perf trajectory (docs/BENCH.md): a smoke snapshot proves the
# bench_snapshot pipeline end to end — real UDP stack, every section
# emitted, all-finite JSON — under a CI time budget. The gate then
# validates it and diffs the committed BENCH_*.json trajectory in
# check-only mode (report regressions without failing the hermetic
# build on machine-to-machine noise; the full gate runs on demand via
# scripts/bench_gate.sh).
echo "==> bench_snapshot --smoke + bench_gate --check"
snapshot_started=$(date +%s%N)
cargo run --release --offline -q -p firefly-bench --bin bench_snapshot -- --smoke --out target/bench-smoke.json
snapshot_elapsed_ms=$(( ($(date +%s%N) - snapshot_started) / 1000000 ))
echo "    bench_snapshot runtime: ${snapshot_elapsed_ms} ms"
if (( snapshot_elapsed_ms >= 30000 )); then
    echo "verify: FAIL — bench_snapshot --smoke took ${snapshot_elapsed_ms} ms (budget 30000 ms)" >&2
    exit 1
fi
python3 -c '
import json
s = json.load(open("target/bench-smoke.json"))["shard_scaling"]
single, multi = s["single_caller_null_rps"], s["multi_caller_null_rps"]
threads, ratio = s["threads"], s["null_scaling_ratio"]
print(f"    shard scaling: 1 thread {single:.0f} rps, "
      f"{threads:.0f} threads {multi:.0f} rps -> x{ratio:.2f}")
'
scripts/bench_gate.sh --check target/bench-smoke.json
scripts/bench_gate.sh --check

# Lint gates are opt-in: rustfmt/clippy components may be absent from a
# minimal toolchain, and their absence must not fail the hermetic check.
if [[ "${FIREFLY_VERIFY_LINT:-0}" == "1" ]]; then
    if command -v rustfmt >/dev/null 2>&1; then
        echo "==> cargo fmt --check"
        cargo fmt --all --check
    else
        echo "==> rustfmt not installed; skipping fmt check"
    fi
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping lint"
    fi
fi

echo "verify: OK"
