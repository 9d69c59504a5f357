#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 25 --trace 0
#
# Every build artifact (Go build cache, module cache, tool config and the
# binary itself) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# The official Go distribution installs to /usr/local/go; use it when the
# caller's PATH does not name a Go toolchain.
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH=$PATH:/usr/local/go/bin
fi

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOENV=off

go -C perfbench build -o "$build/perfbench" .

# Taken after the build, so setup_s counts process start, not compilation.
PERFBENCH_LAUNCH_NS=$(date +%s%N)
export PERFBENCH_LAUNCH_NS
exec "$build/perfbench" "$@"
