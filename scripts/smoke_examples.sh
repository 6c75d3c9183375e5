#!/usr/bin/env bash
# The library examples run end to end:
#
#   scripts/smoke_examples.sh <examples-bin-dir>
#
# quickstart, detect_remote_peering, economic_planner and export_dataset
# must each exit 0, print the same bytes at RP_THREADS=1 and 4, and print
# the claim it exists to show. A first run warms the private snapshot cache,
# so quickstart reports a cache hit at both widths.
# Registered with ctest as `smoke.examples` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_examples.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault settings must not leak into the runs.
unset RP_FAULT

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
export RP_SNAPSHOT_CACHE="$dir/cache"

# Runs example $1 (with the rest as its arguments) at RP_THREADS 1 and 4,
# requires exit 0 and identical stdout, and leaves it in $dir/$1.txt.
run_example() {
  local name="$1" threads
  shift
  "$BIN/$name" "$@" > /dev/null 2>&1
  for threads in 1 4; do
    RP_THREADS=$threads "$BIN/$name" "$@" > "$dir/$name-$threads.txt" \
      2> /dev/null
  done
  cmp "$dir/$name-1.txt" "$dir/$name-4.txt"
  mv "$dir/$name-1.txt" "$dir/$name.txt"
}

# Requires `grep -c $2` on example $1's output to count exactly $3 lines.
expect_lines() {
  local name="$1" pattern="$2" want="$3" got
  got="$(grep -cE -- "$pattern" "$dir/$name.txt" || true)"
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $name printed $got lines matching '$pattern', want $want" >&2
    return 1
  fi
}

echo "=== examples smoke (RP_THREADS 1 vs 4) ==="
run_example quickstart
expect_lines quickstart 'remote peering viable: yes' 1
run_example detect_remote_peering
expect_lines detect_remote_peering '198\.18\.0\.8 .*REMOTE' 1
run_example economic_planner
expect_lines economic_planner 'remote peering is VIABLE' 1
run_example export_dataset "$dir/dataset.txt"
expect_lines export_dataset 'bit-identical after round trip' 5
echo "smoke_examples.sh: examples smoke passed"
