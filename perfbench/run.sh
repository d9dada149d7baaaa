#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload http-steady --seed 1 --seconds 10 --trace 0
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
