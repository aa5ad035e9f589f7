#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, temporary files)
# goes under .bench_build/ in the repository root, so the run touches
# nothing outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= CGO_ENABLED=0

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --commit "$commit" "$@"
