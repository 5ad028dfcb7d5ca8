#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the ledger from
# source into .bench_build/ at the root of the checkout — with Go's build
# cache, temporary files and configuration directory there too, so that
# nothing is written outside the checkout — then run it with the driver's
# arguments. exec leaves no process behind, and neither does go: with a fresh
# configuration directory the go command would start a detached telemetry
# child that outlives a short (failing) build, so telemetry is turned off in
# that directory before go first runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
