#!/usr/bin/env bash
# Builds the benchmark driver from the sources of the checkout it sits
# in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table2-exact --seed 1 --seconds 25 --trace 0
#
# Build caches, the binary and trace files go under .bench_build/ at the
# checkout root, so nothing is written outside the checkout, and module
# downloads are off: the driver needs only the standard library and the
# checkout's own packages. Build output goes to stderr; the last line of
# stdout is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
