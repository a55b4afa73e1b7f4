#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# checkout: the Go build cache, the binary and the run's span files.
set -euo pipefail

root=$(pwd)
state="$root/.perfbench"
mkdir -p "$state/gocache" "$state/gopath" "$state/config" "$state/tmp" "$state/bin"

export GOCACHE="$state/gocache"
export GOPATH="$state/gopath"
export GOMODCACHE="$state/gopath/pkg/mod"
export GOTMPDIR="$state/tmp"
export XDG_CONFIG_HOME="$state/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$state/bin/perfbench" .)
exec "$state/bin/perfbench" "$@"
