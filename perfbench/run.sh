#!/usr/bin/env bash
# Builds relcli and the benchmark from this checkout and runs one
# workload. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/relcli || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/relcli and internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/relcli" ./cmd/relcli
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -relcli "$out/relcli" -scratch "$out/run" "$@"
