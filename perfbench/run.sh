#!/usr/bin/env bash
# Builds the benchmark and coopsimd from source into .bench_build/ and
# runs one workload. Run it from anywhere; it works from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Every file it writes (Go build cache, binaries, temporary daemon
# directories, span files) stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config" "$build/cache"

export GOCACHE=$build/cache/go-build
export GOMODCACHE=$build/gopath/pkg/mod
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export XDG_CACHE_HOME=$build/cache
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
go build -o "$build/coopsimd" ./cmd/coopsimd
exec "$build/perfbench" -coopsimd "$build/coopsimd" -spans "$build/spans" \
	-digests perfbench/digests.json -root . "$@"
