#!/usr/bin/env bash
# CI matrix runner over the CMake presets (see CMakePresets.json).
#
#   scripts/ci.sh              # release lane: ctest + the perf gates
#   scripts/ci.sh asan-ubsan   # ASan+UBSan lane: ctest
#   scripts/ci.sh tsan         # TSan lane: ctest + RP_THREADS=8 reruns
#   scripts/ci.sh all          # all three lanes, in that order
#
# Every lane configures and builds its own tree under build/<preset>, so the
# lanes never contaminate each other. The end-to-end smokes
# (scripts/smoke_*.sh) are ctest tests (label `smoke`), so every lane runs
# them; the perf gates run the bench binaries under RP_BENCH_FAST=1.
set -euo pipefail

cd "$(dirname "$0")/.."

# One EXIT trap for the whole script. Registering a second `trap ... EXIT`
# silently replaces the first (an earlier revision leaked its snapshot dir
# exactly that way), so temp dirs are collected here and removed once.
TEMP_DIRS=()
trap 'rm -rf ${TEMP_DIRS[@]+"${TEMP_DIRS[@]}"}' EXIT
tmpdir() {
  local d
  d="$(mktemp -d)"
  TEMP_DIRS+=("$d")
  echo "$d"
}

# Temp dirs are wiped on exit; when RP_CI_ARTIFACTS is set (the GitHub
# workflow points it at an upload dir), copy the named files out first so the
# perf trajectories survive as build artifacts (scripts/smoke_obs.sh does the
# same for the rpstat metrics and trace).
export_artifacts() {
  local src="$1"
  shift
  [[ -n "${RP_CI_ARTIFACTS:-}" ]] || return 0
  mkdir -p "$RP_CI_ARTIFACTS"
  local pattern
  for pattern in "$@"; do
    cp -f "$src"/$pattern "$RP_CI_ARTIFACTS"/ 2> /dev/null || true
  done
}

# Every RP_* environment variable the binaries read. The sed strips the
# getenv("...") / env_value("...", ...) wrapper around each match (env_value
# is the serve daemon's numeric-env helper — it forwards to getenv).
env_vars_read() {
  grep -rhoE '(getenv|env_value)\("RP_[A-Z_]+"' src examples bench |
    sed -e 's/.*("//' -e 's/"$//' | sort -u
}

# Fails unless every env var from env_vars_read has a row in the given
# README's environment-variable reference table (rows look like `| \`RP_X\` |`).
doc_lint_against() {
  local readme="$1" var bad=0
  for var in $(env_vars_read); do
    if ! grep -qE "^\| +\`$var\`" "$readme"; then
      echo "doc-lint: $var is read by the code but has no row in $readme" >&2
      bad=1
    fi
  done
  return "$bad"
}

doc_lint() {
  echo "=== doc lint (RP_* env reads vs README reference table) ==="
  doc_lint_against README.md
  # Self-test: the lint must demonstrably fail when a documented row is
  # removed, otherwise a broken grep would fake a green check forever.
  local scratch
  scratch="$(tmpdir)"
  grep -v '`RP_FAULT`' README.md > "$scratch/README-broken.md"
  if doc_lint_against "$scratch/README-broken.md" 2> /dev/null; then
    echo "FAIL: doc lint did not flag a missing RP_FAULT row" >&2
    return 1
  fi
  echo "doc lint passed (self-test: a removed row fails the lint)"
}

configure_and_build() {
  local preset="$1"
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j
}

run_ctest() {
  local preset="$1"
  echo "=== [$preset] tier-1 tests ==="
  ctest --preset "$preset" -j
}

perf_smoke() {
  local build="$1"
  echo "=== [$build] perf smoke (RP_BENCH_FAST=1) ==="
  local dir bin
  dir="$(tmpdir)"
  for bin in perf_io perf_sim perf_stream; do
    echo "--- $bin ---"
    RP_BENCH_FAST=1 RP_BENCH_JSON_DIR="$dir" \
      "build/$build/bench/$bin" --benchmark_min_time=0.01
  done
  # perf_io must emit valid trajectory JSON (the other two are parsed below).
  python3 -m json.tool "$dir/BENCH_perf_io.json" > /dev/null
  # The event-engine trajectory must carry an events_per_sec rate for every
  # phase, and the all-IXP campaign's wall-time + scale counters.
  python3 - "$dir/BENCH_perf_sim.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
for phase in ("EventSchedule", "EventRun", "EventSteadyState"):
    key = f"BM_{phase}Slab/100000.events_per_sec"
    assert bench.get(key, 0) > 0, (key, sorted(bench))
for key in ("BM_SmallIxpCampaign.events_per_sec",
            "BM_AllIxpCampaign/1/iterations:1.events_per_sec",
            "BM_AllIxpCampaign/1/iterations:1.campaign_wall_s",
            "BM_AllIxpCampaign/1/iterations:1.ixps",
            "BM_AllIxpCampaign/1/iterations:1.interfaces"):
    assert bench.get(key, 0) > 0, (key, sorted(bench))
EOF
  # The streaming trajectory must carry the ingest rate and the incremental
  # what-if's head-to-head speedup over the batch recompute.
  python3 - "$dir/BENCH_perf_stream.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
for key in ("BM_StreamIngestBins.bins_per_sec",
            "BM_BinLogReplay.bins_per_sec",
            "BM_WhatIfDeltaVsRecompute.delta_speedup",
            "BM_WhatIfDeltaVsRecompute.whatifs_per_sec"):
    assert bench.get(key, 0) > 0, (key, sorted(bench))
EOF
  # The epoch-overlay gate is a standalone arm-vs-arm harness (no
  # google-benchmark flags); it fails itself when the overlay is not at
  # least 5x faster than per-epoch rebuilds.
  echo "--- perf_evolve ---"
  RP_BENCH_FAST=1 RP_BENCH_JSON_DIR="$dir" "build/$build/bench/perf_evolve"
  python3 - "$dir/BENCH_perf_evolve.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
for key in ("epochs", "events", "base_build_ms", "overlay_ms", "rebuild_ms",
            "epochs_per_sec", "overlay_speedup"):
    assert bench.get(key, 0) > 0, (key, sorted(bench))
assert bench["epochs"] >= 20, bench
assert bench["overlay_speedup"] >= 5.0, bench
EOF
  # Perf-trajectory gate: every throughput key against the committed
  # baselines. The gate must first prove it trips on an injected regression;
  # the tolerance is generous because the smoke runs at min_time=0.01 on
  # shared runners (override CHECK_BENCH_TOL to tighten locally).
  python3 scripts/check_bench.py --self-test
  python3 scripts/check_bench.py --check "$dir" \
    --tolerance "${CHECK_BENCH_TOL:-0.6}"
  export_artifacts "$dir" 'BENCH_*.json'
}

# The perf_serve load-generator gate (DESIGN.md §14).
serve_perf() {
  local build="$1"
  echo "=== [$build] perf_serve (RP_BENCH_FAST=1) ==="
  local dir
  dir="$(tmpdir)"
  RP_BENCH_FAST=1 RP_BENCH_JSON_DIR="$dir" RP_SNAPSHOT_CACHE="$dir/cache" \
    "build/$build/bench/perf_serve"
  python3 - "$dir/BENCH_perf_serve.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
for key in ("requests_per_sec", "p50_us", "p99_us", "clients",
            "requests_total", "batch_occupancy_mean", "batch_occupancy_max",
            "phase_connect_s", "phase_issue_s", "phase_drain_s"):
    assert bench.get(key, 0) > 0, (key, sorted(bench))
assert bench.get("requests_failed", 1) == 0, bench
assert bench["p50_us"] <= bench["p99_us"], bench
EOF
  # The daemon's throughput also feeds the perf-trajectory gate.
  python3 scripts/check_bench.py --check "$dir" \
    --tolerance "${CHECK_BENCH_TOL:-0.6}"
  export_artifacts "$dir" 'BENCH_*.json'
}

# The concurrency-sensitive suites again at a fixed high thread count, so the
# TSan lane actually exercises contended pool/metrics/fault paths (the default
# pool sizes itself to the machine and may be serial on small runners).
tsan_thread_stress() {
  local build="$1"
  echo "=== [$build] RP_THREADS=8 reruns (obs, pool, fault, serve, stream, evolve, campaigns) ==="
  local suite
  for suite in test_obs test_util test_fault test_serve test_stream \
               test_evolve; do
    echo "--- $suite ---"
    RP_THREADS=8 "build/$build/tests/$suite" --gtest_brief=1
  done
  # The campaign fan-out again with real contention: 8 workers over the
  # per-IXP campaigns must still produce byte-identical measurements.
  echo "--- test_measure (campaign batches) ---"
  RP_THREADS=8 "build/$build/tests/test_measure" --gtest_brief=1
}

run_lane() {
  local preset="$1"
  configure_and_build "$preset"
  run_ctest "$preset"
  case "$preset" in
    release)
      serve_perf "$preset"
      perf_smoke "$preset"
      ;;
    tsan)
      tsan_thread_stress "$preset"
      ;;
  esac
  echo "ci.sh: lane '$preset' passed"
}

LANE="${1:-release}"
# The doc lint needs no build; run it up front so every lane invocation
# checks the docs before spending minutes compiling.
doc_lint
case "$LANE" in
  release|asan-ubsan|tsan)
    run_lane "$LANE"
    ;;
  all)
    for preset in release asan-ubsan tsan; do
      run_lane "$preset"
    done
    ;;
  *)
    echo "usage: scripts/ci.sh [release|asan-ubsan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "ci.sh: all requested lanes passed"
