#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload soak-256 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) and the traced run's span files stay under .bench_build/ in the
# directory it is run from. Without the repository's sources next to the
# benchmark the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
