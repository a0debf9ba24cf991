#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs one
# workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root.  Everything the build leaves behind (the
# binary, the Go build cache and configuration, trace files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
