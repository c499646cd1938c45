#!/bin/sh
# Builds the end-to-end benchmark from the checkout it is run in and
# executes it, passing every argument through. Run from the repository
# root:
#
#	sh perfbench/run.sh --workload suite-cold --seed 1 --seconds 10 --trace 0
#	sh perfbench/run.sh compare DIR_A DIR_B
#	sh perfbench/run.sh report DIR
#
# Every file the Go toolchain writes (build cache, temporaries, the
# binary) stays under .bench_build/ in the checkout.
set -eu
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/goconfig"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/goconfig" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
