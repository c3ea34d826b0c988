#!/usr/bin/env bash
# Daemon smoke (ctest): start hcsimd on a scratch socket, drive it with
# hcsim_sweep --connect, and demand the fig06 grid's CSV be byte-identical
# to the in-process run. Also covers the sweep CLI contract: --list prints
# the registry, unknown sweep names and out-of-range --timeout-ms exit 2
# with a diagnostic, and --connect --shutdown stops the daemon.
# Usage: daemon_smoke.sh <hcsimd> <hcsim_sweep> <work_dir>
set -euo pipefail

DAEMON=$1
SWEEP=$2
WORK_DIR=$3

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
SOCK="$WORK_DIR/hcsimd.sock"

# --- CLI contract (no daemon needed) -----------------------------------------
"$SWEEP" --list | grep -q "^fig06 "
"$SWEEP" list | grep -q "^smoke "

set +e
"$SWEEP" no_such_sweep --quiet 2> "$WORK_DIR/unknown.err"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "unknown sweep: expected exit 2, got $rc" >&2
  exit 1
fi
grep -q "unknown sweep 'no_such_sweep'" "$WORK_DIR/unknown.err"

set +e
"$SWEEP" fig06 --shutdown --quiet 2> "$WORK_DIR/shutdown.err"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "--shutdown without --connect: expected exit 2, got $rc" >&2
  exit 1
fi

# --timeout-ms is an int millisecond deadline, so values above INT_MAX are a
# usage error rather than a wrapped deadline (4294967296 would become 0 ms,
# 3000000000 a negative "block forever"). INT_MAX itself is accepted: the
# dead socket then falls back in-process.
for bad in 2147483648 3000000000 4294967296; do
  set +e
  "$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --timeout-ms "$bad" \
    2> "$WORK_DIR/timeout.err" > /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "--timeout-ms $bad: expected exit 2, got $rc" >&2
    exit 1
  fi
  grep -q "exceeds the limit" "$WORK_DIR/timeout.err"
done
"$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --timeout-ms 2147483647 \
  --retry 1 --retry-backoff-ms 10 2> /dev/null > /dev/null

# --connect to a socket nobody listens on: the fault-tolerant client retries,
# then falls back to in-process execution (exit 0). With --no-fallback the
# transport failure is surfaced as exit 3. Neither may hang.
"$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --retry 2 \
  --retry-backoff-ms 10 2> "$WORK_DIR/fallback.err" > /dev/null
grep -q "daemon unreachable; computing" "$WORK_DIR/fallback.err"

set +e
"$SWEEP" smoke --quiet --connect "$WORK_DIR/nope.sock" --no-fallback --retry 2 \
  --retry-backoff-ms 10 2> "$WORK_DIR/refused.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "--connect dead socket with --no-fallback: expected exit 3, got $rc" >&2
  exit 1
fi
grep -q "fallback disabled" "$WORK_DIR/refused.err"

# --- daemon round trip --------------------------------------------------------
"$DAEMON" --socket "$SOCK" --threads 2 2> "$WORK_DIR/hcsimd.log" &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

for _ in $(seq 1 200); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "hcsimd never came up" >&2; cat "$WORK_DIR/hcsimd.log" >&2; exit 1; }

# ISSUE 7 acceptance: the fig06 grid over --connect, byte-identical CSV.
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/local.csv" > /dev/null
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/remote.csv" --connect "$SOCK" > /dev/null
cmp "$WORK_DIR/local.csv" "$WORK_DIR/remote.csv"

# A second request on the warm daemon (cached traces) must agree too.
"$SWEEP" fig06 --len 6000 --quiet --csv "$WORK_DIR/remote2.csv" --connect "$SOCK" > /dev/null
cmp "$WORK_DIR/local.csv" "$WORK_DIR/remote2.csv"

"$SWEEP" --connect "$SOCK" --shutdown
wait "$DPID"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "hcsimd exited with $rc" >&2
  cat "$WORK_DIR/hcsimd.log" >&2
  exit 1
fi
[ ! -e "$SOCK" ] || { echo "socket not unlinked on shutdown" >&2; exit 1; }

echo "daemon smoke OK"
