#!/usr/bin/env bash
# The observability exports end to end (DESIGN.md §10):
#
#   scripts/smoke_obs.sh <examples-bin-dir>
#
# rpstat runs every instrumented layer once on a fast world and writes its
# metrics snapshot as JSON and its phase spans as a Chrome trace. Both must
# be well-formed JSON, and the metrics must cover every instrumented layer,
# in the JSON and in the printed table. When RP_CI_ARTIFACTS names a
# directory, the two files are copied there before the temp dir goes.
# Registered with ctest as `smoke.obs` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_obs.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault or cache settings must not leak into the run.
unset RP_FAULT RP_SNAPSHOT_CACHE

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "=== obs smoke (rpstat metrics + trace) ==="
RP_SNAPSHOT_CACHE="$dir/cache" "$BIN/rpstat" --fast \
  --json "$dir/metrics.json" --trace "$dir/trace.json" > "$dir/rpstat.log"
# Both exports must be well-formed JSON...
python3 -m json.tool "$dir/metrics.json" > /dev/null
python3 -m json.tool "$dir/trace.json" > /dev/null
# ...and the metrics must cover every instrumented layer.
for metric in rp.core.scenario.builds rp.pool.parallel_for.calls \
              rp.bgp.routes.computed rp.measure.probes.sent \
              rp.offload.greedy.steps rp.io.bytes_written; do
  grep -q "\"$metric\"" "$dir/metrics.json"
  grep -q "$metric" "$dir/rpstat.log"
done

if [[ -n "${RP_CI_ARTIFACTS:-}" ]]; then
  mkdir -p "$RP_CI_ARTIFACTS"
  cp -f "$dir/metrics.json" "$dir/trace.json" "$RP_CI_ARTIFACTS"/
fi
echo "smoke_obs.sh: obs smoke passed"
