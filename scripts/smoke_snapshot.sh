#!/usr/bin/env bash
# rpworld end to end: save/info/verify/diff on a healthy snapshot, cache-hit
# on rerun, and the documented per-class exit codes on damaged ones
# (0 OK, 1 differ, 3 io, 4 corrupt, 5 truncated, 6 future version):
#
#   scripts/smoke_snapshot.sh <examples-bin-dir>
#
# Registered with ctest as `smoke.snapshot` (label `smoke`); scripts/ci.sh
# runs it too.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/smoke_snapshot.sh <examples-bin-dir>" >&2
  exit 2
fi
BIN="$(cd "$1" && pwd)"

# A caller's fault or cache settings must not leak into the runs.
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

snapshot_smoke() {
  echo "=== snapshot smoke (rpworld save/info/verify/diff) ==="
  local dir rpworld="$BIN/rpworld"
  dir="$(tmpdir)"
  "$rpworld" save --fast --cache-dir "$dir" --out "$dir/world.rpsnap"
  "$rpworld" info "$dir/world.rpsnap"
  "$rpworld" verify "$dir/world.rpsnap"
  # A rerun with the same config must load the cached snapshot, not rebuild.
  "$rpworld" save --fast --cache-dir "$dir" | tee "$dir/rerun.log"
  grep -q "cache hit" "$dir/rerun.log"
  # The explicit save and the cache entry must describe identical worlds.
  "$rpworld" diff "$dir/world.rpsnap" "$dir"/world-*.rpsnap

  echo "--- rpworld exit-code classes ---"
  # Corrupt: flip a byte mid-file.
  python3 - "$dir/world.rpsnap" "$dir/corrupt.rpsnap" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0x40
open(sys.argv[2], 'wb').write(data)
EOF
  expect_rc 4 "$rpworld" verify "$dir/corrupt.rpsnap"
  # Truncated: drop the tail.
  python3 - "$dir/world.rpsnap" "$dir/trunc.rpsnap" <<'EOF'
import sys
data = open(sys.argv[1], 'rb').read()
open(sys.argv[2], 'wb').write(data[: len(data) * 3 // 4])
EOF
  expect_rc 5 "$rpworld" verify "$dir/trunc.rpsnap"
  # Future format version: bump the version field after the 8-byte magic.
  python3 - "$dir/world.rpsnap" "$dir/future.rpsnap" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[8] += 1
open(sys.argv[2], 'wb').write(data)
EOF
  expect_rc 6 "$rpworld" verify "$dir/future.rpsnap"
  # Io: the file is not there.
  expect_rc 3 "$rpworld" verify "$dir/missing.rpsnap"
  # diff classifies a damaged operand the same way verify does...
  expect_rc 5 "$rpworld" diff "$dir/world.rpsnap" "$dir/trunc.rpsnap"
  expect_rc 6 "$rpworld" diff "$dir/world.rpsnap" "$dir/future.rpsnap"
  # ...and a healthy pair still reports identical worlds.
  expect_rc 0 "$rpworld" diff "$dir/world.rpsnap" "$dir/world.rpsnap"
}


snapshot_smoke
echo "smoke_snapshot.sh: snapshot smoke passed"
