#!/usr/bin/env bash
# Builds the GEM benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#
#   bash gembench/run.sh --workload matrix|rw-deep|campaign --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary and the
# campaign's stores. The build needs no network; it fails (and the run
# with it) when the checkout holds no GEM sources next to gembench/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd "$root/gembench" && go build -o "$out/gembench" .)
cd "$root"
exec "$out/gembench" "$@"
