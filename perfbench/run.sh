#!/usr/bin/env bash
# Builds the benchmark from source, generates the inputs of one workload
# for one seed, and measures it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-shp2 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, the per-run inputs (removed
# when the run ends) and the span files of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/shpbench" .)

args=("$@")
workload="" seed=""
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload) workload="${2:-}"; shift 2 ;;
	--seed) seed="${2:-}"; shift 2 ;;
	*) shift ;;
	esac
done
if [[ -z "$workload" || -z "$seed" ]]; then
	echo "perfbench: --workload and --seed are required" >&2
	exit 2
fi

work=$(mktemp -d "$out/run.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/shpbench" gen --workload "$workload" --seed "$seed" --dir "$work"
"$out/shpbench" run "${args[@]}" --dir "$work"
