#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload steady-oracle --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
