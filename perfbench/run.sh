#!/usr/bin/env bash
# Builds the benchmark and the server from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read-lowdim --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dblsh-server ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/dblsh-server not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# Keep every file the Go toolchain writes (build cache, temp files, module
# paths, telemetry under the user config dir) inside the build directory,
# and build offline from the vendored modules.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -buildvcs=false -o "$out/perfbench" ./perfbench
go build -buildvcs=false -o "$out/dblsh-server" ./cmd/dblsh-server

sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" -server "$out/dblsh-server" -work "$out/work" -git-sha "$sha" "$@"
