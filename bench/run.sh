#!/usr/bin/env bash
# Builds the load generator with every Go cache and temp file kept inside
# the checkout (bench/out), then runs it. The generator builds nsd itself.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/bench/out
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config # where the go command keeps its own counters
export GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/bench" build -o "$out/bin/nsload" ./nsload
exec "$out/bin/nsload" -root "$root" "$@"
