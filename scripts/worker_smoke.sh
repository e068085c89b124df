#!/bin/sh
# Multi-process serving smoke test: spawn `an5d serve --socket
# --workers 2`, drive it with `an5d client`. A sharded request
# (shards=4 workers=2) must be served cold through the worker
# registry and come back warm from cache on repeat; then SIGKILL one
# worker process and check the next request is still served correctly
# (the registry discovers the death, respawns the worker and never
# drops a request — docs/SHARDING.md phase 2). At shutdown the
# server's --metrics snapshot must show no in-process fallback
# (worker_retries 0, so every request really crossed the workers) and
# exactly one crash, the SIGKILL. Exercises the shipped binaries only:
# wire protocol, worker hello, binary halo frames, crash repair.
# Run from the repository root; exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

AN5D="_build/default/bin/an5d.exe"
[ -x "$AN5D" ] || { echo "worker_smoke: build first (dune build)"; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/an5d-wsmoke.XXXXXX")
SOCK="$WORK/serve.sock"
SERVER_PID=""

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

REQ1="simulate j2d5pt bt=2 bs=16 dims=64x64 steps=6 seed=1 device=v100 shards=4 workers=2"
REQ2="simulate j2d5pt bt=2 bs=16 dims=64x64 steps=8 seed=2 device=v100 shards=4 workers=2"

wait_for_socket() {
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "worker_smoke: server never bound $SOCK"; exit 1; }
    sleep 0.1
  done
}

worker_pids() {
  # The registry execs `<an5d> worker` per shard worker; all are
  # children of the server.
  pgrep -P "$SERVER_PID" -f "worker" || true
}

# --- cold then warm through the worker registry ---------------------
"$AN5D" serve --socket "$SOCK" --workers 2 --metrics >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_for_socket
grep -q "spawned 2 shard workers" "$WORK/server.log" \
  || { echo "worker_smoke: registry not spawned"; cat "$WORK/server.log"; exit 1; }
[ "$(worker_pids | wc -l)" -eq 2 ] \
  || { echo "worker_smoke: expected 2 worker processes"; exit 1; }

echo "$REQ1" | "$AN5D" client --socket "$SOCK" --id wsmoke-a >"$WORK/a.log" 2>&1
grep -q "^done .*cold" "$WORK/a.log" \
  || { echo "worker_smoke: sharded request not served cold"; cat "$WORK/a.log"; exit 1; }

echo "$REQ1" | "$AN5D" client --socket "$SOCK" --id wsmoke-b >"$WORK/b.log" 2>&1
grep -q "^done .*warm" "$WORK/b.log" \
  || { echo "worker_smoke: repeat not served warm"; cat "$WORK/b.log"; exit 1; }

# --- kill one worker, re-serve --------------------------------------
VICTIM=$(worker_pids | head -n 1)
[ -n "$VICTIM" ] || { echo "worker_smoke: no worker to kill"; exit 1; }
kill -KILL "$VICTIM"
sleep 0.2

echo "$REQ2" | "$AN5D" client --socket "$SOCK" --id wsmoke-c >"$WORK/c.log" 2>&1
grep -q "^done .*cold" "$WORK/c.log" \
  || { echo "worker_smoke: request after worker death failed"; cat "$WORK/c.log"; exit 1; }

# the registry must have replaced the killed worker with a fresh pid
sleep 0.1
ALIVE=$(worker_pids | wc -l)
[ "$ALIVE" -eq 2 ] \
  || { echo "worker_smoke: expected 2 workers after respawn, have $ALIVE"; exit 1; }
worker_pids | grep -qx "$VICTIM" \
  && { echo "worker_smoke: killed worker pid still listed"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "worker_smoke: server exited non-zero"; exit 1; }
SERVER_PID=""

# --- accounting: no fallback, one crash -----------------------------
counter() {
  awk -v n="$1" '$1 == "counter" && $2 == n { print $3 }' "$WORK/server.log"
}
[ "$(counter worker_retries)" = 0 ] \
  || { echo "worker_smoke: worker_retries is '$(counter worker_retries)', not 0 (a request fell back in-process)"; cat "$WORK/server.log"; exit 1; }
[ "$(counter worker_crashes)" = 1 ] \
  || { echo "worker_smoke: worker_crashes is '$(counter worker_crashes)', not 1 (the SIGKILL)"; cat "$WORK/server.log"; exit 1; }
echo "worker_smoke: OK (cold -> warm -> kill one worker -> re-serve, no fallback)"
