#!/usr/bin/env bash
# Builds texsim, texserve and the benchmark from this source tree into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/: the Go build cache, temporary files, and the go
# command's own configuration and telemetry directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/texsim ./cmd/texserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
