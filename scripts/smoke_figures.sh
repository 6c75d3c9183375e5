#!/usr/bin/env bash
# The paper-figure harnesses run end to end on the fast world:
#
#   scripts/smoke_figures.sh <bench-bin-dir>
#
# table1_ixp_properties (§3 campaigns), fig2_rtt_cdf (§3 RTT filters) and
# fig9_remaining_transit (§4 RIB, analyzer, greedy) must each exit 0 under
# RP_BENCH_FAST=1, and table1_ixp_properties, fig2_rtt_cdf and fig5_traffic
# (§4 Fig. 5b series) must print the same bytes at RP_THREADS=1 and 4. The
# world is cached in a private temp dir, so parallel ctest runs never share
# a cache file.
# Registered with ctest as `smoke.figures` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_figures.sh <bench-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault settings must not leak into the runs.
unset RP_FAULT

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "=== figure harness smoke (RP_BENCH_FAST=1) ==="
echo "--- fig9_remaining_transit ---"
RP_BENCH_FAST=1 RP_SNAPSHOT_CACHE="$dir/cache" \
  "$BIN/fig9_remaining_transit" > /dev/null
for bin in table1_ixp_properties fig2_rtt_cdf fig5_traffic; do
  echo "--- $bin (RP_THREADS 1 vs 4) ---"
  for threads in 1 4; do
    RP_BENCH_FAST=1 RP_THREADS=$threads RP_SNAPSHOT_CACHE="$dir/cache" \
      "$BIN/$bin" > "$dir/$bin-$threads.txt" 2> /dev/null
  done
  cmp "$dir/$bin-1.txt" "$dir/$bin-4.txt"
done
echo "smoke_figures.sh: figure smoke passed"
