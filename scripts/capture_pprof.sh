#!/usr/bin/env sh
# capture_pprof.sh — memory-diet profile capture.
#
# Boots a real htdserve with the -pprof-addr listener enabled, warms it
# up, then captures heap, allocs, goroutine, and CPU profiles from the
# profiling endpoint while a curl loop drives steady traffic (/query
# over an uploaded dataset, every tenth request a /decompose) — so the
# CPU profile shows the executor under load, not an idle accept loop.
# The capture fails when the loop got no request answered: a request
# counts only when its body reads "ok":true, since the server answers
# deadlines, missing plans and row-budget errors with 200 and "ok":false.
# Profiles land in the directory given as $1 (default /tmp/htd-pprof);
# nightly CI uploads that directory as an artifact, giving every night
# a browsable `go tool pprof` snapshot of the columnar executor.
#
# Usage: scripts/capture_pprof.sh [outdir]
set -eu

OUT="${1:-/tmp/htd-pprof}"
ADDR="127.0.0.1:18232"
PPROF_ADDR="127.0.0.1:18233"
URL="http://$ADDR"
PPROF_URL="http://$PPROF_ADDR"
# CPU profile window; the load run lasts slightly longer so the whole
# window sees traffic.
SECONDS_CPU="${PPROF_SECONDS:-10}"

mkdir -p "$OUT"
BIN="$(mktemp -d)"
SRV_PID=
LOAD_PID=
trap 'kill $LOAD_PID $SRV_PID 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

echo "capture_pprof: building htdserve"
go build -o "$BIN/htdserve" ./cmd/htdserve

echo "capture_pprof: starting htdserve on $ADDR (pprof on $PPROF_ADDR)"
"$BIN/htdserve" -addr "$ADDR" -pprof-addr "$PPROF_ADDR" >/dev/null 2>&1 &
SRV_PID=$!

echo "capture_pprof: waiting for /healthz"
i=0
until curl -sf "$URL/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 150 ]; then
    echo "capture_pprof: FAIL: server did not become healthy" >&2
    exit 1
  fi
  sleep 0.1
done

# The triangle over one uploaded dataset is the /query traffic; a
# 5-cycle at width 2 is the /decompose traffic.
printf 'rel R(c1,c2)\n1 2\n1 3\n4 2\nend\nrel S(c1,c2)\n2 5\n3 6\n2 7\nend\nrel T(c1,c2)\n5 1\n6 4\n7 4\nend\n' >"$BIN/tri.db"
curl -sf -X PUT --data-binary @"$BIN/tri.db" "$URL/data/tri" >/dev/null
QUERY='{"query":"R(x,y), S(y,z), T(z,x).","dataset":"tri"}'
DECOMPOSE='{"hypergraph":"r1(a,b), r2(b,c), r3(c,d), r4(d,e), r5(e,a).","k":2}'

# Drive steady traffic in the background for the whole capture window,
# one line per request in $BIN/outcomes: "ok" when its body reads
# "ok":true, "failed" otherwise.
LOAD_SECONDS=$((SECONDS_CPU + 5))
echo "capture_pprof: driving load for ${LOAD_SECONDS}s"
(
  end=$(($(date +%s) + LOAD_SECONDS))
  n=0
  while [ "$(date +%s)" -lt "$end" ]; do
    n=$((n + 1))
    if [ $((n % 10)) -eq 0 ]; then
      path=decompose body="$DECOMPOSE"
    else
      path=query body="$QUERY"
    fi
    if curl -s "$URL/$path" -d "$body" | grep -q '"ok":true'; then
      echo ok
    else
      echo failed
    fi
  done
) >"$BIN/outcomes" &
LOAD_PID=$!

sleep 2 # let traffic ramp before the snapshots
echo "capture_pprof: capturing profiles into $OUT"
curl -sf "$PPROF_URL/debug/pprof/heap" -o "$OUT/heap.pb.gz"
curl -sf "$PPROF_URL/debug/pprof/allocs" -o "$OUT/allocs.pb.gz"
curl -sf "$PPROF_URL/debug/pprof/goroutine" -o "$OUT/goroutine.pb.gz"
curl -sf "$PPROF_URL/debug/pprof/profile?seconds=$SECONDS_CPU" -o "$OUT/cpu.pb.gz"

wait "$LOAD_PID"
LOAD_PID=
SENT=$(wc -l <"$BIN/outcomes")
ANSWERED=$(grep -c '^ok$' "$BIN/outcomes" || true)
if [ "$ANSWERED" -eq 0 ]; then
  echo "capture_pprof: FAIL: none of $SENT requests answered: the profiles show an idle server" >&2
  exit 1
fi

# A capture that produced empty files is a broken capture.
for f in heap allocs goroutine cpu; do
  if [ ! -s "$OUT/$f.pb.gz" ]; then
    echo "capture_pprof: FAIL: $f profile is empty" >&2
    exit 1
  fi
done
echo "capture_pprof: PASS ($ANSWERED of $SENT requests answered; profiles in $OUT: heap, allocs, goroutine, cpu@${SECONDS_CPU}s)"
