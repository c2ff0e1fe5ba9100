#!/usr/bin/env bash
# Builds clusterbench from this checkout and runs it from the repository root
# with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# The Go build cache, GOPATH and the binary live under bench/.build, so the
# benchmark writes nothing outside the checkout. The build happens before the
# binary starts, so compile time is never measured.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/clusterbench" .)
cd "$root"
exec "$build/clusterbench" "$@"
