#!/usr/bin/env bash
# Builds the benchmark and the trustnewsd daemon from the source tree this
# script sits in, then runs one benchmark invocation. Every file it
# writes stays under .bench_build/ at the root of the tree:
#
#   bash newsbench/run.sh --workload publish_heavy --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/trustnewsd || ! -d internal ]]; then
	echo "newsbench: $root does not hold the program's sources" >&2
	exit 1
fi

build="$root/.bench_build/newsbench"
mkdir -p "$build/home" "$build/tmp"
# Keep the Go toolchain's caches and any config writes inside the tree.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home/cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off GOPROXY=off

go build -o "$build/trustnewsd" ./cmd/trustnewsd
(cd newsbench && go build -o "$build/newsbench" .)

# Identify the program by its git revision when its Go sources are
# committed; otherwise (the tree is not a git checkout, or has edits) by
# a digest of its Go sources, so a saved result is never taken for
# another program's.
commit=""
if [[ -z "$(git -C "$root" status --porcelain -- '*.go' 'go.mod' 'go.sum' 2>&1)" ]]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
if [[ -z "$commit" ]]; then
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

exec "$build/newsbench" --out "$build" --daemon "$build/trustnewsd" --commit "$commit" "$@"
