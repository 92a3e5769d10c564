#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cluster-1m --seed 42 --seconds 40 --trace 0
#
# Every build product, the Go build cache and the toolchain's config
# files stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
