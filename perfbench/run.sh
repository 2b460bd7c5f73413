#!/usr/bin/env bash
# Builds the k-Shape benchmark from source and runs it. Run it from the
# repository root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload kshape-cbf-long --seed 1 --seconds 30 --trace 0
#
# The toolchain's cache and the binaries (the benchmark and its reference
# kernel, refkernel/) live in .bench_build/, so the build
# writes nothing outside the checkout, and it never reaches for a network
# toolchain or module proxy.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-buildvcs=false -trimpath"

(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/refkernel" ./refkernel)
exec "$build/perfbench" "$@"
