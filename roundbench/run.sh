#!/usr/bin/env bash
# Builds the round benchmark from the surrounding checkout's sources and
# runs it with the given arguments, from the checkout root:
#
#   bash roundbench/run.sh --workload round-alexnet --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. Outside a
# checkout of the repository the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/roundbench" && go build -o "$out/roundbench" .)
exec "$out/roundbench" -out "$out" "$@"
