#!/usr/bin/env bash
# Builds cmd/locbench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/locbench/run.sh --workload cluster-query --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the shards' scratch store all live
# under .bench_build/ in the repository root; nothing is written
# elsewhere and nothing is downloaded.
set -euo pipefail

root=$PWD
if [ ! -f "$root/cmd/locbench/go.mod" ]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/work"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/cmd/locbench" && go build -o "$out/locbench" .)
exec "$out/locbench" -workdir "$out/work" "$@"
