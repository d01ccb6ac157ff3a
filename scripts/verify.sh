#!/usr/bin/env bash
# The whole verification, run fully offline to prove the build is
# hermetic: a clean checkout with an empty cargo registry must build and
# pass every step. This script only launches cargo and holds each tool
# to a wall-time budget; every check itself is Rust (tests/hermetic.rs
# keeps it that way).
#
# Usage:
#   scripts/verify.sh            # offline release build + full test suite + tools + clippy
#   FIREFLY_VERIFY_LINT=1 scripts/verify.sh   # also run cargo fmt --check
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
verify_started=$(date +%s%N)
run() { local tool=$1; shift; cargo run --release --offline -q -p "$tool" -- "$@"; }

# budgeted LIMIT_MS CMD...: runs CMD and fails if it took LIMIT_MS or more.
budgeted() {
    local limit_ms=$1 started elapsed_ms
    shift
    started=$(date +%s%N)
    "$@"
    elapsed_ms=$(( ($(date +%s%N) - started) / 1000000 ))
    echo "    runtime: ${elapsed_ms} ms (budget ${limit_ms} ms)"
    if (( elapsed_ms >= limit_ms )); then
        echo "verify: FAIL — $* took ${elapsed_ms} ms (budget ${limit_ms} ms)" >&2
        exit 1
    fi
}

echo "==> cargo build --release --offline (workspace)"
cargo build --release --offline --workspace

# Includes tier-1's root suite: the two static-vs-dynamic gates on the
# live workspace (tests/verify.rs), DPOR's reduction on the call-table
# model (DFS given five times DPOR's runs does not exhaust it,
# tests/check.rs) and the ledger's gate on typed values
# (tests/bench_gate.rs).
echo "==> cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

# The repo benchmark is a package of its own (not a workspace member)
# that compiles against the runtime's public API; build and test it here
# so a change that breaks it fails locally, not in the benchmark run.
# Its 27 tests drive every workload and the traced pass.
echo "==> cargo test --offline (rpcbench, the repo benchmark)"
cargo test -q --offline --manifest-path rpcbench/Cargo.toml

# Static analysis must stay interactive: tokenizing the workspace,
# building the call graph and walking reachability in under 5 seconds.
echo "==> firefly-lint --summary"
budgeted 5000 run firefly-lint --summary

# Dynamic checking plus cross-validation in one process: bounded
# schedule exploration of the structure models, the seeded-bug fixtures
# (each caught with a replayable schedule), the caller drill and the
# wire scenario, and the two gates against firefly-lint's analysis
# (docs/CHECKING.md). The standalone release binary on a 2-vCPU VM
# took 437-786 ms over 8 runs (median 702 ms); the budget is under
# three times that median. In a phase of heavy host CPU steal, single
# runs took up to 4.1 s.
echo "==> firefly-check verify"
budgeted 2000 run firefly-check verify

# The live latency account must produce a complete per-step table (the
# ±10% accounted-vs-measured bound itself is asserted by
# tests/latency_account.rs above; this proves the executable end to end).
echo "==> firefly-bench latency_account --smoke"
run firefly-bench latency_account --smoke

# The performance ledger (docs/BENCH.md): the newest committed
# BENCH_NNNN.json held against its predecessor under BENCHMARK.json's
# bounds. It measures nothing, so it cannot flake, and it is hard.
echo "==> firefly-bench gate"
run firefly-bench gate

# Clippy runs whenever it is installed: the workspace is clean under
# -D warnings. It may be absent from a minimal toolchain, and its absence
# must not fail the hermetic check.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

# Opt-in: the tree is not rustfmt-clean yet (a mechanical reformat is a
# change of its own), and rustfmt may be absent too.
if [[ "${FIREFLY_VERIFY_LINT:-0}" == "1" ]]; then
    if command -v rustfmt >/dev/null 2>&1; then
        echo "==> cargo fmt --check"
        cargo fmt --all --check
    else
        echo "==> rustfmt not installed; skipping fmt check"
    fi
fi

echo "verify: OK in $(( ($(date +%s%N) - verify_started) / 1000000000 )) s"
