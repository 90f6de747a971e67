#!/usr/bin/env bash
# Builds the benchmark against the checkout this script sits in and runs it,
# passing every argument through. Everything the build and the run write
# stays inside the checkout: the Go build cache and the binary under
# .bench_build/, result and trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hetbench" .)
exec "$build/hetbench" -outdir "$here/out" "$@"
