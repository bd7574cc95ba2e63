#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload http-fresh --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, per-request trace records) stays under
# .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/deploy.go" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (go.mod, deploy.go and internal/ are missing here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -records "$out/records" "$@"
