#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload engine-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temp files) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOPROXY=off GOTELEMETRY=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (the benchmark needs the whole repository checkout)" >&2
	exit 3
fi
exec "$out/perfbench" "$@"
