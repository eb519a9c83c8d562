#!/usr/bin/env bash
# Builds the end-to-end OLTP benchmark from source and runs it.
#
#   bash cmd/oltpbench/run.sh --workload oltp-single --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run leave behind (Go build cache, binary, DASD data directories, unix
# sockets, logs, spans) goes under .bench_build/ there.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the go command's cache, temporary files and its user
# configuration (telemetry counters) inside the checkout too; the
# benchmark needs nothing outside the repository and the toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$bench_dir" build -o "$out/oltpbench" .
exec "$out/oltpbench" "$@"
