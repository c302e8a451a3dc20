#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload heap --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Every build and run artifact lands
# under ${CARGO_TARGET_DIR:-.bench_build} in the current directory,
# including the Go build cache and temporary files, so nothing is
# written outside the tree.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench" "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/go-path XDG_CONFIG_HOME=$build/config \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" -workdir "$build/perfbench" "$@"
