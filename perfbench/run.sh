#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1993 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ (the Go
# build cache included), so the run touches nothing outside the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ are missing here)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" -work "$build" "$@"
