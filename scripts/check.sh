#!/bin/sh
# check.sh — the repository's verification gate, also available as
# `make check`. Runs the tier-1 build, formatting and static checks,
# the fast test suite, and the race-detector pass over the
# concurrency-bearing packages (the harness worker pool, the
# context-cancellable MILP search, the observability layer, the
# bench-diff report helpers read concurrently by tooling, the
# corpus generator whose sweeps are sharded across processes, the
# synthesis layer whose checkpointed scheduler aborts race deadline
# expiry from the context's timer goroutine, and the solve service's
# admission/cache/coalescing machinery plus its scaled-down soak), then
# vet and tests of the nested benchmark module under perfbench/.
#
# The full (non-short) suite, including the complete Table II sweeps,
# is `go test ./...` and takes many minutes on a small machine.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not gofmt-formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -short ./..."
go test -short ./...

echo "==> go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service"
go test -race -short ./internal/harness ./internal/milp ./internal/obs ./internal/obs/prof ./internal/obs/reqlog ./internal/report ./internal/corpus ./internal/synth ./internal/service

# perfbench/ is a nested module (the benchmark driver), so the root
# ./... patterns above never compile it; vet and test it on its own,
# offline, against this checkout.
echo "==> (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && export GOPROXY=off GOWORK=off && go vet ./... && go test ./...)

echo "All checks passed."
