#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is
# run in, then runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload exact-small --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces
# and profiles) stays under .bench_build/ in the checkout.
set -euo pipefail

top=$(pwd)
if [[ ! -f "$top/go.mod" || ! -d "$top/internal/engine" || ! -f "$top/perfbench/go.mod" ]]; then
	echo "perfbench: not at the root of a wrsn checkout (go.mod, internal/engine or perfbench/go.mod missing)" >&2
	exit 2
fi
go_bin=$(command -v go || true)
if [[ -z "$go_bin" ]]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
fi

out="$top/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

"$go_bin" -C "$top/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
