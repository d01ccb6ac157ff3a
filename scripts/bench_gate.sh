#!/usr/bin/env bash
# The ±10% performance-trajectory gate over BENCH_*.json snapshots.
#
# The paper holds its latency account to "all but a few percent"; this
# repo holds its own perf numbers to the same discipline: each snapshot
# (written by `bench_snapshot`, schema in docs/BENCH.md) is diffed
# against its predecessor, metric by metric, and a regression beyond the
# tolerance fails the gate loudly with a per-metric table.
#
# Usage:
#   scripts/bench_gate.sh                 # gate newest BENCH_NNNN.json vs predecessor
#   scripts/bench_gate.sh FILE            # gate FILE vs newest earlier same-mode snapshot
#   scripts/bench_gate.sh --check [FILE]  # validate + report, never fail on regression
#
# Environment:
#   FIREFLY_BENCH_TOLERANCE_PCT  relative tolerance per metric (default 10)
#   FIREFLY_BENCH_NOISE_US       absolute noise floor for µs-unit metrics
#                                (default 5): a sub-tolerance-sized jitter on
#                                a ~12 µs loopback RTT is scheduler noise, not
#                                a regression, so µs metrics must exceed BOTH
#                                bounds to fail
#   FIREFLY_BENCH_DIR            where the snapshot trajectory lives
#                                (default: repo root)
#
# Exit status: 0 = no regression (or bootstrap: no comparable baseline,
# or --check mode); 1 = regression or invalid snapshot; 2 = usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=gate
CANDIDATE=""
for arg in "$@"; do
    case "$arg" in
        --check) MODE=check ;;
        --help|-h)
            sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        -*)
            echo "bench_gate: unknown option $arg" >&2
            exit 2
            ;;
        *)
            if [[ -n "$CANDIDATE" ]]; then
                echo "bench_gate: more than one snapshot argument" >&2
                exit 2
            fi
            CANDIDATE="$arg"
            ;;
    esac
done

BENCH_GATE_MODE="$MODE" BENCH_GATE_CANDIDATE="$CANDIDATE" python3 - <<'PY'
import json, math, os, re, sys

mode = os.environ["BENCH_GATE_MODE"]
candidate_arg = os.environ["BENCH_GATE_CANDIDATE"]
tol_pct = float(os.environ.get("FIREFLY_BENCH_TOLERANCE_PCT", "10"))
noise_us = float(os.environ.get("FIREFLY_BENCH_NOISE_US", "5"))
bench_dir = os.environ.get("FIREFLY_BENCH_DIR", ".")

SCHEMA = "firefly-bench-snapshot/1"
NAME_RE = re.compile(r"^BENCH_(\d{4})\.json$")


def fail(msg):
    print(f"bench_gate: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def finite_everywhere(node, path="$"):
    """The snapshot must be all-finite: Json::num writes non-finite
    measurements as null, so any null (or a NaN/inf a foreign writer
    smuggled in) marks a broken measurement."""
    if node is None:
        fail(f"non-finite measurement at {path} (serialized as null)")
    elif isinstance(node, float) and not math.isfinite(node):
        fail(f"non-finite number at {path}")
    elif isinstance(node, dict):
        for k, v in node.items():
            finite_everywhere(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            finite_everywhere(v, f"{path}[{i}]")


def load_snapshot(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path} has schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in ("mode", "latency_us", "throughput", "trace", "ablations", "gate_metrics"):
        if section not in doc:
            fail(f"{path} is missing section {section!r}")
    if len(doc["ablations"]) < 2:
        fail(f"{path} has {len(doc['ablations'])} ablation rows, need >= 2")
    if not doc["gate_metrics"]:
        fail(f"{path} has no gate metrics")
    for name, m in doc["gate_metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"{path} gate metric {name!r} has no numeric value")
        if m.get("direction") not in ("lower", "higher"):
            fail(f"{path} gate metric {name!r} has direction {m.get('direction')!r}")
    finite_everywhere(doc, f"$({os.path.basename(path)})")
    return doc


def trajectory():
    """[(number, path)] of the snapshot trajectory, oldest first."""
    entries = []
    try:
        names = os.listdir(bench_dir)
    except OSError:
        names = []
    for name in names:
        m = NAME_RE.match(name)
        if m:
            entries.append((int(m.group(1)), os.path.join(bench_dir, name)))
    return sorted(entries)


traj = trajectory()
if candidate_arg:
    cand_path = candidate_arg
else:
    if not traj:
        print(f"bench_gate: no BENCH_*.json in {bench_dir} — nothing to gate (bootstrap)")
        sys.exit(0)
    cand_path = traj[-1][1]

cand = load_snapshot(cand_path)
m = NAME_RE.match(os.path.basename(cand_path))
cand_number = int(m.group(1)) if m else None

# Baseline: the highest-numbered snapshot in the trajectory that is
# older than the candidate and ran in the same mode (smoke numbers are
# CI-sized and must never be compared against full runs).
baseline = None
for number, path in reversed(traj):
    if cand_number is not None and number >= cand_number:
        continue
    if os.path.abspath(path) == os.path.abspath(cand_path):
        continue
    doc = load_snapshot(path)
    if doc["mode"] == cand["mode"]:
        baseline = (path, doc)
        break

if baseline is None:
    print(f"bench_gate: {cand_path} is valid; no earlier {cand['mode']}-mode "
          f"snapshot to compare against (bootstrap) — OK")
    sys.exit(0)

base_path, base = baseline
print(f"bench_gate: {cand_path} vs {base_path} "
      f"(tolerance ±{tol_pct:g}%, µs noise floor {noise_us:g})")

rows = []
regressions = 0
for name, bm in base["gate_metrics"].items():
    cm = cand["gate_metrics"].get(name)
    if cm is None:
        # A snapshot may decline to gate a metric it cannot measure
        # meaningfully on its host, saying why (`ungated_metrics`).
        why = cand.get("ungated_metrics", {}).get(name)
        if why is None:
            regressions += 1
        rows.append((name, bm["value"], None, None,
                     f"not gated ({why})" if why else "MISSING"))
        continue
    old, new = bm["value"], cm["value"]
    direction = bm["direction"]
    unit = bm.get("unit", "")
    delta_pct = (new - old) / old * 100.0 if old else 0.0
    worse_pct = delta_pct if direction == "lower" else -delta_pct
    regressed = worse_pct > tol_pct
    if regressed and unit == "us" and abs(new - old) <= noise_us:
        regressed = False  # within the absolute noise floor
    if regressed:
        regressions += 1
        verdict = "REGRESSED"
    elif worse_pct < -tol_pct:
        verdict = "improved"
    else:
        verdict = "ok"
    rows.append((name, old, new, delta_pct, verdict))

# Metrics the candidate introduces (no baseline value yet) bootstrap:
# they are reported, never compared, and start gating only once a
# baseline snapshot carries them.
for name, cm in cand["gate_metrics"].items():
    if name not in base["gate_metrics"]:
        rows.append((name, None, cm["value"], None, "NEW (bootstrap)"))

name_w = max(len(r[0]) for r in rows)
print(f"    {'metric':<{name_w}}  {'baseline':>12}  {'current':>12}  {'delta':>8}  verdict")
for name, old, new, delta, verdict in rows:
    if new is None:
        print(f"    {name:<{name_w}}  {old:>12.2f}  {'—':>12}  {'—':>8}  {verdict}")
    elif old is None:
        print(f"    {name:<{name_w}}  {'—':>12}  {new:>12.2f}  {'—':>8}  {verdict}")
    else:
        print(f"    {name:<{name_w}}  {old:>12.2f}  {new:>12.2f}  {delta:>+7.1f}%  {verdict}")

if regressions:
    msg = (f"{regressions} metric(s) regressed beyond ±{tol_pct:g}% "
           f"({cand_path} vs {base_path})")
    if mode == "check":
        print(f"bench_gate: WARNING — {msg} (check mode: not failing)")
        sys.exit(0)
    fail(msg)
print("bench_gate: OK — no metric regressed beyond tolerance")
PY
