#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload fig6-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache, temporary data directories and
# trace files stay under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$build" "$@"
