#!/usr/bin/env bash
# Builds the served-solve benchmark from the checkout's sources and runs
# it; every argument passes through (see main.go). Run it from the
# repository root. The binary, the Go build cache, journals and traces
# all stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build).
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the user config dir) inside the build dir.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# Stamp the commit and dirty flag into the binary when the checkout is a
# git work tree; a plain source tree builds without them.
vcs=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then vcs=auto; fi
(cd perfbench && go build -buildvcs=$vcs -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
