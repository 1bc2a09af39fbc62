#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, stores and span dumps
# under .bench_work/. No module is fetched; the benchmark module replaces
# apspark with the checkout root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an apspark checkout (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export XDG_CONFIG_HOME="$build/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
