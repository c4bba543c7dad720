#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json). Everything the Go toolchain writes —
# build cache, temporary files, telemetry — is kept under .bench_build/ so
# that a run reads and writes only inside its checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
