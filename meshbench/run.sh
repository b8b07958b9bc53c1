#!/usr/bin/env bash
# Builds meshbench from this checkout and runs it with the given arguments
# (see meshbench/README.md). The binary, every Go cache and the go
# command's config and telemetry directory live under .bench_build/ at the
# checkout root, so the build writes nothing outside the checkout. The
# compiler's output goes to stderr: the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/meshbench" && go build -o "$out/meshbench" .) >&2
exec "$out/meshbench" "$@"
