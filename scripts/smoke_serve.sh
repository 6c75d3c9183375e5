#!/usr/bin/env bash
# The query daemon end to end (DESIGN.md §14):
#
#   scripts/smoke_serve.sh <examples-bin-dir>
#
# Starts rpserve-daemon on an ephemeral loopback port and drives it with rpq:
# ping, world-info, viability and offload-curve against a warm fast world;
# the stats surface as JSON, Prometheus text and `rpq top`; an unknown config
# field (soft error) and a poisoned frame the daemon must survive; then a
# protocol-driven shutdown that must exit 0. Numeric flags that do not fit
# their field must be usage errors (exit 2), not wrapped values.
# Registered with ctest as `smoke.serve` (label `smoke`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_serve.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault, cache or daemon settings must not leak into the run.
unset RP_FAULT RP_SNAPSHOT_CACHE RP_SERVE_PORT RP_SERVE_WORLDS RP_SERVE_QUEUE

TEMP_DIRS=()
DAEMON_PID=""
cleanup() {
  if [[ -n "$DAEMON_PID" ]]; then kill "$DAEMON_PID" 2> /dev/null || true; fi
  rm -rf ${TEMP_DIRS[@]+"${TEMP_DIRS[@]}"}
}
trap cleanup EXIT
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

# A daemon that accepted a wrapped value would start serving, so each run is
# bounded: a hang ends as timeout's 124, not as the expected 2.
flag_checks() {
  echo "=== numeric flags out of range (exit 2) ==="
  local daemon="$BIN/rpserve-daemon" rpq="$BIN/rpq"
  expect_rc 2 timeout 10 "$daemon" --port 70000
  expect_rc 2 timeout 10 "$daemon" --port -1
  expect_rc 2 timeout 10 "$daemon" --worlds -1
  expect_rc 2 timeout 10 "$daemon" --queue 12x
  expect_rc 2 timeout 10 "$daemon" --batch ''
  expect_rc 2 timeout 10 "$rpq" --port 70000 ping
  expect_rc 2 timeout 10 env RP_SERVE_PORT=70000 "$rpq" ping
}

serve_smoke() {
  echo "=== serve smoke (rpserve-daemon + rpq) ==="
  local dir rpq="$BIN/rpq"
  dir="$(tmpdir)"
  RP_SNAPSHOT_CACHE="$dir/cache" "$BIN/rpserve-daemon" \
    --port 0 --port-file "$dir/port" > "$dir/daemon.log" &
  DAEMON_PID=$!
  local tries=0
  until [[ -s "$dir/port" ]]; do
    if ((++tries > 100)); then
      echo "FAIL: daemon never wrote its port file" >&2
      cat "$dir/daemon.log" >&2
      return 1
    fi
    sleep 0.1
  done
  local port
  port="$(cat "$dir/port")"

  "$rpq" --port "$port" ping ci-token | grep -q "token = ci-token"
  "$rpq" --port "$port" --fast world-info | tee "$dir/info.log" |
    grep -q "world.digest"
  grep -q "world.ases" "$dir/info.log"
  "$rpq" --port "$port" --fast viability | grep -q "viability.decay"
  "$rpq" --port "$port" --fast offload-curve --steps 3 |
    grep -q "offload.steps = 3"
  # A query flag that does not fit its field stops rpq before it sends:
  # group 257 must not travel as the u8 value 1.
  expect_rc 2 "$rpq" --port "$port" --fast offload-curve --group 257
  expect_rc 2 "$rpq" --port "$port" --fast offload-curve --steps 3x

  # The stats surface: --json must be machine-parseable and carry the
  # load-bearing keys (occupancy, per-world memory, per-type latencies)...
  "$rpq" --port "$port" stats --json > "$dir/stats.json"
  python3 - "$dir/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
for key in ("stats.uptime_s", "stats.completed", "stats.ring_capacity",
            "queue.depth", "queue.capacity", "queue.high_water",
            "pool.capacity", "pool.resident", "pool.worlds",
            "pool.world.0.digest", "pool.world.0.resident_bytes",
            "req.ping.count", "req.ping.p50_us", "req.ping.p99_us",
            "ts.samples", "ts.interval_ms"):
    assert key in stats, (key, sorted(stats))
assert stats["req.ping.count"] >= 1, stats
assert stats["pool.world.0.resident_bytes"] > 0, stats
EOF
  # ...--prom must be well-formed text exposition: TYPE line + matching
  # numeric sample, nothing else, and only numeric rows exported.
  "$rpq" --port "$port" stats --prom > "$dir/stats.prom"
  python3 - "$dir/stats.prom" <<'EOF'
import re, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert lines and len(lines) % 2 == 0, "exposition must pair TYPE+sample"
for i in range(0, len(lines), 2):
    m = re.fullmatch(r"# TYPE (rp_[a-zA-Z0-9_:]+) gauge", lines[i])
    assert m, lines[i]
    sample = re.fullmatch(r"([a-zA-Z0-9_:]+) (\S+)", lines[i + 1])
    assert sample and sample.group(1) == m.group(1), lines[i + 1]
    float(sample.group(2))  # every exported value parses as a number
text = open(sys.argv[1]).read()
for needle in ("rp_queue_capacity", "rp_stats_completed"):
    assert needle in text, needle
assert "digest" not in text, "non-numeric rows must not be exported"
EOF
  # ...and `rpq top` renders live request rates (the polls themselves
  # complete requests, so the second refresh must show a non-zero rate).
  "$rpq" --port "$port" top --interval 200 --count 2 > "$dir/top.log"
  grep -q "queue" "$dir/top.log"
  python3 - "$dir/top.log" <<'EOF'
import re, sys
rates = [float(m.group(1)) for m in
         re.finditer(r"([0-9.]+) req/s", open(sys.argv[1]).read())]
assert len(rates) == 2, rates
assert rates[-1] > 0, rates
EOF

  # An unknown config field is a soft error (exit 1), not a dead daemon.
  expect_rc 1 "$rpq" --port "$port" --fast --set no.such.field=1 world-info
  # A poisoned length prefix kills that one connection (rpq badframe exits 0
  # when the daemon hangs up on it) — and the daemon keeps serving.
  "$rpq" --port "$port" badframe
  "$rpq" --port "$port" ping still-alive | grep -q "token = still-alive"
  "$rpq" --port "$port" shutdown
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  DAEMON_PID=""
  if [[ "$rc" != 0 ]]; then
    echo "FAIL: daemon exited $rc after rpq shutdown" >&2
    cat "$dir/daemon.log" >&2
    return 1
  fi
}

flag_checks
serve_smoke
echo "smoke_serve.sh: serve smoke passed"
