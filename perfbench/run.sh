#!/usr/bin/env bash
# Builds the benchmark harness and cmd/sweepd from source, then runs one
# workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sweepd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/sweepd here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/bin/sweepd" ./cmd/sweepd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --sweepd "$out/bin/sweepd" --workdir "$out/work" "$@"
