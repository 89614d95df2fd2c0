#!/usr/bin/env bash
# Builds the benchmark (and the asyncft module it measures) from source into
# the build directory, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build directory is $CARGO_TARGET_DIR
# when set, .bench_build otherwise; the Go build cache lives inside it, so
# the first run compiles the standard library too.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the Go toolchain's caches, temporary files and local telemetry inside
# the build directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
