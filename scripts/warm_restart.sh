#!/usr/bin/env sh
# warm_restart.sh — the two-process crash-safe warm-restart wall.
#
# Boots a real htdserve with -store-dir, feeds it decompositions, kills
# the process dead (kill -9, no graceful shutdown, no final flush),
# boots a second process on the same directory, and asserts the
# disk-backed store's whole contract:
#
#   (a) every repeat request is answered "cache_hit":true, and
#   (b) the restarted server's /stats reports SolverRuns == 0 —
#       the warm process never ran a solver at all.
#
# Usage: scripts/warm_restart.sh
set -eu

ADDR="127.0.0.1:18233"
URL="http://$ADDR"

WORK="$(mktemp -d)"
SRV_PID=""
trap 'kill -9 "$SRV_PID" 2>/dev/null || true; wait "$SRV_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

echo "warm_restart: building htdserve"
go build -o "$WORK/htdserve" ./cmd/htdserve

boot() {
  "$WORK/htdserve" -addr "$ADDR" -store-dir "$WORK/store" >"$WORK/server.log" 2>&1 &
  SRV_PID=$!
  # Wait for the listener.
  i=0
  until curl -sf "$URL/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      echo "warm_restart: FAIL: server did not come up; log:" >&2
      cat "$WORK/server.log" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# The job set: three distinct structures, decide and optimal modes.
JOBS='{"hypergraph":"r1(x,y), r2(y,z), r3(z,x).","k":2}
{"hypergraph":"a(x,y), b(y,z), c(z,w), d(w,x).","k":2}
{"hypergraph":"e1(a,b), e2(b,c), e3(c,d), e4(d,e), e5(e,a).","k":2,"mode":"optimal"}'

submit_all() {
  # $1 = the phase name; prints one response JSON per job.
  printf '%s\n' "$JOBS" | while IFS= read -r job; do
    RESP=$(curl -sf "$URL/decompose" -d "$job") || {
      echo "warm_restart: FAIL: $1 request failed: $job" >&2
      exit 1
    }
    printf '%s\n' "$RESP"
    case "$RESP" in
    *'"ok":true'*) ;;
    *)
      echo "warm_restart: FAIL: $1 request not ok: $RESP" >&2
      exit 1
      ;;
    esac
  done
}

echo "warm_restart: boot #1 (cold) on $ADDR, store in $WORK/store"
boot
submit_all cold >"$WORK/cold.out"

echo "warm_restart: kill -9 $SRV_PID (no graceful shutdown)"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true

echo "warm_restart: boot #2 (warm) on the same store"
boot
submit_all warm >"$WORK/warm.out"

# (a) Every warm response must be a cache hit.
HITS=$(grep -c '"cache_hit":true' "$WORK/warm.out" || true)
WANT=$(printf '%s\n' "$JOBS" | grep -c .)
if [ "$HITS" -ne "$WANT" ]; then
  echo "warm_restart: FAIL: $HITS/$WANT warm responses were cache hits" >&2
  cat "$WORK/warm.out" >&2
  exit 1
fi

# (b) The warm process must have run zero solvers. service.Stats has no
# json tags, so the field name on the wire is the Go name.
STATS=$(curl -sf "$URL/stats")
case "$STATS" in
*'"SolverRuns":0'*) ;;
*)
  echo "warm_restart: FAIL: warm server ran solvers; /stats:" >&2
  printf '%s\n' "$STATS" >&2
  exit 1
  ;;
esac

echo "warm_restart: PASS ($HITS/$WANT cache hits after kill -9, SolverRuns=0)"
