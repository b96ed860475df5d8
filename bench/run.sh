#!/usr/bin/env bash
# Builds fredbench from the checkout it is run in and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload paper-all --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, the binary, traced spans and CPU
# profiles.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) build=$out ;;
*) build=$root/$out ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C "$root/bench" build -o "$build/fredbench" ./fredbench
exec "$build/fredbench" -artifacts "$out" "$@"
