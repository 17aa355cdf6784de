#!/usr/bin/env bash
# Builds htdserve and the benchmark driver from this checkout, then runs
# the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and run records stay under
# .bench_build/ in the checkout (CARGO_TARGET_DIR is honoured as the
# build directory when set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/htdserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/htdserve and perfbench/ not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

# Everything the go command writes (build cache, temporary files,
# module cache, telemetry counters under the config directory) stays
# in the build directory, and nothing is fetched from the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off GOFLAGS=

go build -o "$out/bin/htdserve" ./cmd/htdserve
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -server "$out/bin/htdserve" -record "$out/records" "$@"
