#!/usr/bin/env bash
# CI matrix runner over the CMake presets (see CMakePresets.json).
#
#   scripts/ci.sh              # release lane: tier-1 + every smoke
#   scripts/ci.sh asan-ubsan   # ASan+UBSan lane: ctest + fault smoke
#   scripts/ci.sh tsan         # TSan lane: ctest + RP_THREADS=8 reruns
#   scripts/ci.sh all          # all three lanes, in that order
#
# Every lane configures and builds its own tree under build/<preset>, so the
# lanes never contaminate each other. Smokes run the example binaries under
# RP_BENCH_FAST=1 / --fast so a full matrix stays in fast-mode runtime.
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

# Smoke temp dirs are wiped on exit; when RP_CI_ARTIFACTS is set (the GitHub
# workflow points it at an upload dir), copy the named files out first so the
# perf trajectories and traces survive as build artifacts.
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

# rpworld end to end (save/info/verify/diff and the per-class exit codes).
# The smoke lives in its own script so ctest runs it too (label `smoke`).
snapshot_smoke() {
  local build="$1"
  echo "=== [$build] snapshot smoke (scripts/smoke_snapshot.sh) ==="
  scripts/smoke_snapshot.sh "build/$build/examples"
}

obs_smoke() {
  local build="$1"
  echo "=== [$build] obs smoke (rpstat metrics + trace) ==="
  local dir
  dir="$(tmpdir)"
  RP_SNAPSHOT_CACHE="$dir/cache" "build/$build/examples/rpstat" --fast \
    --json "$dir/metrics.json" --trace "$dir/trace.json" \
    > "$dir/rpstat.log"
  # Both exports must be well-formed JSON...
  python3 -m json.tool "$dir/metrics.json" > /dev/null
  python3 -m json.tool "$dir/trace.json" > /dev/null
  # ...and the metrics must cover every instrumented layer.
  local metric
  for metric in rp.core.scenario.builds rp.pool.parallel_for.calls \
                rp.bgp.routes.computed rp.measure.probes.sent \
                rp.offload.greedy.steps rp.io.bytes_written; do
    grep -q "\"$metric\"" "$dir/metrics.json"
    grep -q "$metric" "$dir/rpstat.log"
  done
  export_artifacts "$dir" metrics.json trace.json
}

# Graceful degradation end to end: with the first snapshot read injected to
# fail, the pipeline must still succeed — the cache falls back to a clean
# rebuild, the absorbed failure shows up in rp.io.fallbacks / rp.fault.*,
# and the rewritten cache entry verifies clean.
fault_smoke() {
  local build="$1"
  echo "=== [$build] fault smoke (RP_FAULT=io.read:nth=1) ==="
  local dir
  dir="$(tmpdir)"
  # Warm the cache so the armed run exercises the load-then-fallback path.
  RP_SNAPSHOT_CACHE="$dir/cache" "build/$build/examples/rpstat" --fast \
    > /dev/null
  RP_FAULT=io.read:nth=1 RP_SNAPSHOT_CACHE="$dir/cache" \
    "build/$build/examples/rpstat" --fast --json "$dir/metrics.json" \
    > "$dir/rpstat.log"
  python3 - "$dir/metrics.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
for name in ("rp.io.fallbacks", "rp.fault.fires", "rp.fault.fires.io.read"):
    assert metrics.get(name, 0) >= 1, (name, metrics)
EOF
  # The fallback rewrote the cache entry cleanly.
  "build/$build/examples/rpworld" verify "$dir/cache/"world-*.rpsnap
}

perf_smoke() {
  local build="$1"
  echo "=== [$build] perf smoke (RP_BENCH_FAST=1) ==="
  local dir bin
  dir="$(tmpdir)"
  for bin in perf_io perf_net perf_topology perf_bgp perf_sim perf_offload \
             perf_stream; do
    echo "--- $bin ---"
    RP_BENCH_FAST=1 RP_BENCH_JSON_DIR="$dir" \
      "build/$build/bench/$bin" --benchmark_min_time=0.01
  done
  # The instrumented perf binaries must emit valid trajectory JSON.
  python3 -m json.tool "$dir/BENCH_perf_io.json" > /dev/null
  python3 -m json.tool "$dir/BENCH_perf_offload.json" > /dev/null
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

# The query daemon end to end (rpserve-daemon + rpq; the script is also the
# ctest test `smoke.serve`, label `smoke`), then the perf_serve
# load-generator gate (DESIGN.md §14).
serve_smoke() {
  local build="$1"
  echo "=== [$build] serve smoke (scripts/smoke_serve.sh + perf_serve) ==="
  scripts/smoke_serve.sh "build/$build/examples"
  local dir
  dir="$(tmpdir)"
  echo "--- perf_serve (RP_BENCH_FAST=1) ---"
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

figure_smoke() {
  local build="$1"
  echo "=== [$build] figure harness smoke (RP_BENCH_FAST=1) ==="
  local bin
  for bin in table1_ixp_properties fig2_rtt_cdf fig9_remaining_transit; do
    echo "--- $bin ---"
    RP_BENCH_FAST=1 "build/$build/bench/$bin" > /dev/null
  done
}

# rpsweep, rpevolve and rpstream kill/resume byte-identity (DESIGN.md §12,
# §16, §17). The smokes live in their own script so ctest runs them too
# (label `smoke`).
resume_smoke() {
  local build="$1"
  echo "=== [$build] resume smokes (scripts/smoke_resume.sh) ==="
  scripts/smoke_resume.sh "build/$build/examples"
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
      snapshot_smoke "$preset"
      obs_smoke "$preset"
      fault_smoke "$preset"
      resume_smoke "$preset"
      serve_smoke "$preset"
      perf_smoke "$preset"
      figure_smoke "$preset"
      ;;
    asan-ubsan)
      fault_smoke "$preset"
      ;;
    tsan)
      fault_smoke "$preset"
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
