#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload neworder --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

# /usr/local/go/bin is where the official Go distribution installs.
export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOFLAGS= \
	GOTOOLCHAIN=local GOTELEMETRY=off

# The measured process runs with a larger GC target than Go's default.
# At GOGC=100 the analytics workload spends ~40% of wall time inside GC
# cycles, so every latency class is bimodal near its median and medians
# flip between the modes from run to run. go.gc_cpu_frac and
# go.alloc_bytes_per_op still report the garbage collector's share.
export GOGC=200

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) 1>&2
export CARGO_TARGET_DIR="$out"
exec "$out/perfbench-bin" "$@"
