#!/usr/bin/env bash
# Graceful degradation end to end (DESIGN.md §11):
#
#   scripts/smoke_fault.sh <examples-bin-dir>
#
# With the first snapshot read injected to fail (RP_FAULT=io.read:nth=1),
# the pipeline must still succeed: the cache falls back to a clean rebuild,
# the absorbed failure shows up in rp.io.fallbacks / rp.fault.*, and the
# rewritten cache entry verifies clean.
# Registered with ctest as `smoke.fault` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_fault.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault or cache settings must not leak into the run.
unset RP_FAULT RP_SNAPSHOT_CACHE

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "=== fault smoke (RP_FAULT=io.read:nth=1) ==="
# Warm the cache so the armed run exercises the load-then-fallback path.
RP_SNAPSHOT_CACHE="$dir/cache" "$BIN/rpstat" --fast > /dev/null
RP_FAULT=io.read:nth=1 RP_SNAPSHOT_CACHE="$dir/cache" \
  "$BIN/rpstat" --fast --json "$dir/metrics.json" > "$dir/rpstat.log"
python3 - "$dir/metrics.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
for name in ("rp.io.fallbacks", "rp.fault.fires", "rp.fault.fires.io.read"):
    assert metrics.get(name, 0) >= 1, (name, metrics)
PY
# The fallback rewrote the cache entry cleanly.
"$BIN/rpworld" verify "$dir/cache/"world-*.rpsnap
echo "smoke_fault.sh: fault smoke passed"
