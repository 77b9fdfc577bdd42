#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload dataset-cold --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache, binary, span files) goes
# under $CARGO_TARGET_DIR, or .bench_build when it is unset, so nothing is
# written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export PERFBENCH_OUT="$out"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
