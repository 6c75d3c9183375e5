#!/usr/bin/env bash
# Kill/resume byte-identity smokes for the resumable studies and the stream:
#
#   scripts/smoke_resume.sh <examples-bin-dir>
#
# rpsweep, rpevolve and rpstream each run once uninterrupted at
# RP_THREADS=1, then again at RP_THREADS=8 killed mid-run by an injected
# fault, are resumed from their completion records (or stream checkpoint),
# and the results (epoch snapshots, stream summaries) are compared byte for
# byte: the resume + determinism contract of DESIGN.md §12, §16 and §17.
# Registered with ctest as `smoke.resume` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_resume.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."

# A caller's fault or cache settings must not leak into the reference runs.
unset RP_FAULT RP_SNAPSHOT_CACHE

TEMP_DIRS=()
trap 'rm -rf ${TEMP_DIRS[@]+"${TEMP_DIRS[@]}"}' EXIT
tmpdir() {
  local d
  d="$(mktemp -d)"
  TEMP_DIRS+=("$d")
  echo "$d"
}

# Asserts that a command exits with $1 (under set -e).
expect_rc() {
  local want="$1" rc=0
  shift
  "$@" > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != "$want" ]]; then
    echo "FAIL: expected exit $want, got $rc: $*" >&2
    return 1
  fi
}

# rpsweep end to end: the 24-run grid (6 econ.b x 4 econ.h on one fast
# world) runs uninterrupted at RP_THREADS=1, then again at RP_THREADS=8 with
# a fault injected at the 9th run, is resumed, and the two results tables
# compared byte for byte — the resume + determinism contract of DESIGN.md §12.
sweep_smoke() {
  echo "=== sweep smoke (rpsweep run/kill/resume byte-identity) ==="
  local dir rpsweep="$BIN/rpsweep"
  dir="$(tmpdir)"
  cat > "$dir/grid.spec" <<'EOF'
name ci-grid
group 4
steps 20
fast 1
base seed 11
axis econ.b lin:0.2:1.2:6
axis econ.h 0.002 0.006 0.01 0.016
EOF
  "$rpsweep" plan "$dir/grid.spec" --dir "$dir/a" > "$dir/plan.log"
  grep -q "24 runs" "$dir/plan.log"
  # Reference: single-threaded, uninterrupted.
  RP_THREADS=1 RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpsweep" run "$dir/grid.spec" --dir "$dir/a" > /dev/null
  # The same grid at 8 threads, killed mid-sweep at the 9th run...
  expect_rc 1 env RP_THREADS=8 RP_FAULT=sweep.run:nth=9 \
    RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpsweep" run "$dir/grid.spec" --dir "$dir/b"
  # ...resumes from the surviving completion records...
  RP_THREADS=8 RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpsweep" resume --dir "$dir/b" > "$dir/resume.log"
  grep -q "skipped via completion records" "$dir/resume.log"
  # ...to byte-identical results.
  cmp "$dir/a/results.csv" "$dir/b/results.csv"
  cmp "$dir/a/results.json" "$dir/b/results.json"
}

# rpevolve end to end: the decade example timeline replays over its fast
# base world, the first and last epoch snapshots must describe different
# worlds (membership grew), then the same replay is killed mid-timeline by an
# evolve.apply fault and resumed to byte-identical records and snapshots —
# the overlay determinism contract of DESIGN.md §17.
evolve_smoke() {
  echo "=== evolve smoke (rpevolve replay/kill/resume byte-identity) ==="
  local dir rpevolve="$BIN/rpevolve" rpworld="$BIN/rpworld"
  dir="$(tmpdir)"
  "$rpevolve" plan examples/timelines/decade.timeline --dir "$dir/a" \
    > "$dir/plan.log"
  grep -q "8 epochs, 27 events" "$dir/plan.log"
  # Rows depend only on the timeline its digest names: there is no flag that
  # could change them between a replay and its resume.
  expect_rc 2 "$rpevolve" replay examples/timelines/decade.timeline \
    --dir "$dir/flag" --group 1
  expect_rc 2 "$rpevolve" replay examples/timelines/decade.timeline \
    --dir "$dir/flag" --steps 3
  RP_THREADS=1 RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpevolve" replay examples/timelines/decade.timeline --dir "$dir/a" \
    > /dev/null
  # A decade of churn: epoch 0 and epoch 7 are different worlds...
  expect_rc 1 "$rpworld" diff "$dir/a/epochs/epoch-0000.rpsnap" \
    "$dir/a/epochs/epoch-0007.rpsnap"
  # ...and the epoch diff shows membership growth (a positive interface
  # delta; the new-ixp epoch also added an exchange).
  "$rpevolve" diff --dir "$dir/a" 0 7 > "$dir/diff.log"
  grep -qE 'ixps .*\(\+1\)' "$dir/diff.log"
  grep -qE 'interfaces .*\(\+[1-9]' "$dir/diff.log"
  # The same replay at 8 threads, killed at the 11th applied event...
  expect_rc 1 env RP_THREADS=8 RP_FAULT=evolve.apply:nth=11 \
    RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpevolve" replay examples/timelines/decade.timeline --dir "$dir/b"
  # ...resumes from the surviving epoch records...
  RP_THREADS=8 RP_SNAPSHOT_CACHE="$dir/cache" \
    "$rpevolve" resume --dir "$dir/b" > "$dir/resume.log"
  grep -q "skipped via completion records" "$dir/resume.log"
  # ...to byte-identical results and per-epoch snapshots.
  cmp "$dir/a/results.csv" "$dir/b/results.csv"
  cmp "$dir/a/results.json" "$dir/b/results.json"
  local k
  for k in 0000 0003 0007; do
    cmp "$dir/a/epochs/epoch-$k.rpsnap" "$dir/b/epochs/epoch-$k.rpsnap"
  done
}

# rpstream end to end: a 400-bin fast-world flow log ingested uninterrupted
# at RP_THREADS=1 (the reference), then again at 8 threads killed by a
# stream.bin fault at the 300th frame (two checkpoints survive), resumed,
# and the %.17g summaries — billing p95s, live offload, greedy curve —
# compared byte for byte: the streaming determinism contract of DESIGN.md §16.
stream_smoke() {
  echo "=== stream smoke (rpstream ingest/kill/resume byte-identity) ==="
  local dir rpstream="$BIN/rpstream"
  dir="$(tmpdir)"
  # A span under one day is rejected up front, not turned into an empty or
  # endless log.
  expect_rc 2 "$rpstream" log --fast --span-days 0 --cache-dir "$dir/cache" \
    --out "$dir/empty.rpsnap"
  expect_rc 2 timeout 20 "$rpstream" log --fast --span-days -3 \
    --cache-dir "$dir/cache" --out "$dir/negative.rpsnap"
  "$rpstream" log --fast --span-days 2 --cache-dir "$dir/cache" \
    --out "$dir/bins.rpsnap" --bins 400 2> /dev/null
  # Reference: single-threaded, uninterrupted.
  RP_THREADS=1 "$rpstream" ingest --fast --span-days 2 \
    --cache-dir "$dir/cache" --log "$dir/bins.rpsnap" \
    > "$dir/full.txt" 2> /dev/null
  # The same log at 8 threads, killed mid-ingest at the 300th frame...
  expect_rc 9 env RP_THREADS=8 RP_FAULT=stream.bin:nth=300 \
    "$rpstream" ingest --fast --span-days 2 --cache-dir "$dir/cache" \
    --log "$dir/bins.rpsnap" --checkpoint "$dir/ckpt.rpsnap" --every 100
  # ...leaving a checkpoint of only the four aggregate sketches (~7 KB; the
  # bound is 1/50 of the 1,020,804 bytes it took with per-network
  # sketches)...
  local ckpt_bytes
  ckpt_bytes="$(wc -c < "$dir/ckpt.rpsnap")"
  if (( ckpt_bytes > 20416 )); then
    echo "FAIL: checkpoint is $ckpt_bytes bytes, bound 20416" >&2
    return 1
  fi
  # ...resumes from the last checkpoint (bin 200)...
  RP_THREADS=8 "$rpstream" ingest --fast --span-days 2 \
    --cache-dir "$dir/cache" --log "$dir/bins.rpsnap" \
    --checkpoint "$dir/ckpt.rpsnap" --resume \
    > "$dir/resumed.txt" 2> "$dir/resume.log"
  grep -q "resumed at bin 200" "$dir/resume.log"
  # ...to a byte-identical summary.
  cmp "$dir/full.txt" "$dir/resumed.txt"
}

sweep_smoke
evolve_smoke
stream_smoke
echo "smoke_resume.sh: sweep, evolve and stream resume smokes passed"
