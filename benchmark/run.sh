#!/usr/bin/env bash
# Builds the benchmark and the two commands it drives (cmd/optd,
# cmd/opttri) from the checkout's source into .bench_build/, then runs the
# benchmark with the arguments given. Everything the build writes — the Go
# build cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Rebuild only when a source file is newer than the last build.
stamp="$out/bin/.stamp"
if [ ! -e "$stamp" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]; then
	go build -o "$out/bin/" ./cmd/optd ./cmd/opttri >&2
	(cd benchmark && go build -o "$out/bin/benchmark" .) >&2
	touch "$stamp"
fi
exec "$out/bin/benchmark" "$@"
