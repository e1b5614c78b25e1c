#!/usr/bin/env bash
# Socket smoke test: a real multi-process agreement fleet on localhost.
#
# Launches n=4 example_agreement_cluster daemons as separate OS processes,
# each binding one TCP endpoint of the fleet, and asserts that every
# replica prints a decision and that all decisions agree.  This is the
# end-to-end check that the socket transport (src/net/) carries the
# protocol stack — ABA votes, plus the coin's sharing, G-sets and
# reconstruction whenever a round falls through to the coin (it is dealt
# on demand) — over actual connections, not just the in-process loopback
# the unit tests use.
#
# Usage: scripts/socket_smoke.sh [path-to-example_agreement_cluster]
# Env:   SOCKET_SMOKE_BASE_PORT (default 45200), SOCKET_SMOKE_SEED (3),
#        SOCKET_SMOKE_TIMEOUT seconds (90).
set -euo pipefail

BIN="${1:-build/examples/example_agreement_cluster}"
BASE_PORT="${SOCKET_SMOKE_BASE_PORT:-45200}"
SEED="${SOCKET_SMOKE_SEED:-3}"
TIMEOUT="${SOCKET_SMOKE_TIMEOUT:-90}"
N=4

if [[ ! -x "$BIN" ]]; then
  echo "socket_smoke: binary not found or not executable: $BIN" >&2
  exit 2
fi

PEERS=""
for ((i = 0; i < N; i++)); do
  PEERS+="${PEERS:+,}127.0.0.1:$((BASE_PORT + i))"
done

WORKDIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "socket_smoke: fleet of $N on ports $BASE_PORT-$((BASE_PORT + N - 1))," \
     "seed $SEED"
for ((i = 0; i < N; i++)); do
  "$BIN" --id "$i" --peers "$PEERS" --seed "$SEED" \
    >"$WORKDIR/replica-$i.log" 2>&1 &
  PIDS+=($!)
done

# Wait for every replica to exit, with a wall-clock budget.  A replica that
# times out internally (60 s) exits non-zero, which we catch below either
# way; the outer budget guards against a hung process.
deadline=$((SECONDS + TIMEOUT))
for idx in "${!PIDS[@]}"; do
  pid="${PIDS[$idx]}"
  while kill -0 "$pid" 2>/dev/null; do
    if ((SECONDS >= deadline)); then
      echo "socket_smoke: FAIL — replica $idx still running after" \
           "${TIMEOUT}s" >&2
      for ((i = 0; i < N; i++)); do
        echo "--- replica $i ---"; cat "$WORKDIR/replica-$i.log"
      done
      exit 1
    fi
    sleep 0.2
  done
  if ! wait "$pid"; then
    echo "socket_smoke: FAIL — replica $idx exited non-zero" >&2
    for ((i = 0; i < N; i++)); do
      echo "--- replica $i ---"; cat "$WORKDIR/replica-$i.log"
    done
    exit 1
  fi
done
PIDS=()

# Every replica decided, and on the same value.
VALUES=""
for ((i = 0; i < N; i++)); do
  line="$(grep -o 'decided value=[01] round=[0-9]*' \
          "$WORKDIR/replica-$i.log" || true)"
  if [[ -z "$line" ]]; then
    echo "socket_smoke: FAIL — replica $i printed no decision" >&2
    cat "$WORKDIR/replica-$i.log"
    exit 1
  fi
  v="${line#decided value=}"
  v="${v%% *}"
  VALUES+="${VALUES:+ }$v"
  echo "replica $i: $line"
done

first="${VALUES%% *}"
for v in $VALUES; do
  if [[ "$v" != "$first" ]]; then
    echo "socket_smoke: FAIL — replicas disagreed: $VALUES" >&2
    exit 1
  fi
done

echo "socket_smoke: PASS — all $N replicas decided value=$first"
