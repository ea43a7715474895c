#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from anywhere:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds this package and ./cmd/egobwd from the checkout's sources into
# .bench_build/ (the Go build cache and the go command's own config and
# telemetry directory too, so nothing outside the checkout is written),
# rebuilds only when a source file is newer than the binary, and
# hands every argument to the benchmark. In a directory that is not a
# checkout of the repository it fails without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f go.mod ] || [ ! -d cmd/egobwd ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (go.mod, cmd/egobwd or internal/ missing)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

# stale BIN: true when BIN is missing or older than any Go source of the
# module it is built from.
stale() {
	[ ! -x "$1" ] || [ -n "$(find benchmark cmd internal ./*.go go.mod \( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$out/bin/bench"; then
	go build -C benchmark -o "$out/bin/bench" .
fi
if stale "$out/bin/egobwd"; then
	go build -o "$out/bin/egobwd" ./cmd/egobwd
fi

exec "$out/bin/bench" -daemon "$out/bin/egobwd" -out "$out" "$@"
