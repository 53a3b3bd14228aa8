#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload build|churn|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. The Go build cache and the binary live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout,
# so the benchmark writes nowhere else. Without the overlay module
# next to perfbench/ the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
