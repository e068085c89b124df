#!/bin/sh
# Socket-mode serving smoke test: spawn `an5d serve --socket`, drive it
# with two `an5d client` sessions (the second must be served from the
# first one's cache), stop the server with SIGTERM and check the clean
# shutdown dumped its caches, then restart from the dump and check the
# very first request of the new process is already warm, with the same
# grid_digest as the cold and warm replies. The first server runs with
# --metrics: both clients send the same source, so its C front end must
# have run exactly once (frontend_detect_misses 1). Exercises the
# whole production path — wire protocol, admission accounting, cache
# persistence — through the shipped binaries only.
# Run from the repository root; exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

AN5D="_build/default/bin/an5d.exe"
[ -x "$AN5D" ] || { echo "socket_smoke: build first (dune build)"; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/an5d-smoke.XXXXXX")
SOCK="$WORK/serve.sock"
CACHE="$WORK/serve.cache"
SERVER_PID=""

# Idempotent teardown: always reap the server (kill alone leaves a
# zombie and can race socket unlink against rm -rf), never let an
# empty $SERVER_PID fail the trap under `set -e`, and preserve the
# script's exit status. Signal traps route through `exit` so EXIT
# runs exactly once.
cleanup() {
  status=$?
  trap - EXIT
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

REQ="simulate j2d5pt bt=2 bs=16 dims=64x64 steps=5 seed=1 device=v100"

wait_for_socket() {
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "socket_smoke: server never bound $SOCK"; exit 1; }
    sleep 0.1
  done
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || { echo "socket_smoke: server exited non-zero"; exit 1; }
  SERVER_PID=""
}

# --- round 1: cold server, two clients ------------------------------
"$AN5D" serve --socket "$SOCK" --cache "$CACHE" --metrics \
  --admit-burst 32 --admit-rate 100 >"$WORK/server1.log" 2>&1 &
SERVER_PID=$!
wait_for_socket

echo "$REQ" | "$AN5D" client --socket "$SOCK" --id smoke-a >"$WORK/a.log" 2>&1
grep -q "^connected as smoke-a" "$WORK/a.log"
grep -q "^done .*cold" "$WORK/a.log" \
  || { echo "socket_smoke: first client not served cold"; cat "$WORK/a.log"; exit 1; }

# the second client shares the session: same request comes back warm,
# and the stats verb reports both clients' admission accounting
{ echo "$REQ"; echo "stats"; } \
  | "$AN5D" client --socket "$SOCK" --id smoke-b >"$WORK/b.log" 2>&1
grep -q "^done .*warm" "$WORK/b.log" \
  || { echo "socket_smoke: second client not served warm"; cat "$WORK/b.log"; exit 1; }
grep -q "2 requests" "$WORK/b.log" \
  || { echo "socket_smoke: stats did not count both requests"; cat "$WORK/b.log"; exit 1; }

# --- clean shutdown dumps the caches --------------------------------
stop_server
[ -s "$CACHE" ] || { echo "socket_smoke: shutdown left no cache dump"; exit 1; }
grep -q "dumped" "$WORK/server1.log" \
  || { echo "socket_smoke: server did not report the dump"; cat "$WORK/server1.log"; exit 1; }
# one source text served twice: the front end detected it once
MISSES=$(awk '$1 == "counter" && $2 == "frontend_detect_misses" { print $3 }' "$WORK/server1.log")
[ "$MISSES" = 1 ] \
  || { echo "socket_smoke: frontend_detect_misses is '$MISSES', not 1 (a warm request ran the C front end again)"; cat "$WORK/server1.log"; exit 1; }

# --- round 2: warm restart from the dump ----------------------------
"$AN5D" serve --socket "$SOCK" --cache "$CACHE" >"$WORK/server2.log" 2>&1 &
SERVER_PID=$!
wait_for_socket
grep -q "loaded" "$WORK/server2.log" \
  || { echo "socket_smoke: restarted server did not load the dump"; cat "$WORK/server2.log"; exit 1; }

echo "$REQ" | "$AN5D" client --socket "$SOCK" --id smoke-c >"$WORK/c.log" 2>&1
grep -q "^done .*warm" "$WORK/c.log" \
  || { echo "socket_smoke: restart did not serve warm"; cat "$WORK/c.log"; exit 1; }

# --- the served digest is the same bits cold, warm and after restart:
# a stale or corrupted digest memo carried through the dump fails here
digest_of() {
  sed -n 's/.*"grid_digest": *"\([0-9a-f]*\)".*/\1/p' "$1"
}
DA=$(digest_of "$WORK/a.log")
DB=$(digest_of "$WORK/b.log")
DC=$(digest_of "$WORK/c.log")
[ -n "$DA" ] && [ "$DA" = "$DB" ] && [ "$DA" = "$DC" ] \
  || { echo "socket_smoke: grid_digest differs (cold '$DA', warm '$DB', restart '$DC')"; exit 1; }

stop_server
echo "socket_smoke: OK (cold -> warm -> dump -> warm restart, one digest)"
