#!/usr/bin/env bash
# Builds pipebench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash pipebench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch stores and span files.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/pipebench" && go build -buildvcs=false -o "$out/pipebench" .)
# The commit goes into the environment record; a checkout that is not a
# repository of its own reports "unknown".
PIPEBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export PIPEBENCH_COMMIT
exec "$out/pipebench" --work "$out/work" --spans "$out/spans" "$@"
