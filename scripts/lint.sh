#!/usr/bin/env sh
# lint.sh — gating static-analysis entry point.
#
# Builds the repository's custom vet tool (shlint: detflow,
# barrierguard, allocguard — see tools/analyzers/) and runs two layers
# over every package:
#
#   1. `go vet -vettool=bin/shlint ./...` — the three analyzers, each
#      package fully type-checked against the same export data the
#      build uses, with cross-package facts (detflow taint,
#      barrierguard reachability) flowing through the go command's
#      vetx files.
#   2. `bin/shlint -allocgate ./...` — the escape-analysis layer of
#      the hot-path allocation proof: recompiles annotated packages
#      with -gcflags=-m=2 and fails on heap allocations or lost
#      inlines in //shsim:noalloc functions.
#
# Exits nonzero on any finding; CI gates merges on this script.
#
# Usage:  scripts/lint.sh [-run analyzer[,analyzer...]] [-json]
#
#   -run   run only the named vet analyzers (e.g. -run detflow); the
#          allocgate step is skipped unless allocguard is selected.
#   -json  emit vet diagnostics as JSON (one object per package).
#
# bin/shlint is rebuilt on every run; go build's cache makes a warm
# rebuild take a fraction of a second.
set -eu

cd "$(dirname "$0")/.."

RUN=""
JSON=""
while [ $# -gt 0 ]; do
    case "$1" in
        -run)
            [ $# -ge 2 ] || { echo "lint.sh: -run needs an analyzer list" >&2; exit 1; }
            RUN="$2"; shift 2 ;;
        -run=*)
            RUN="${1#-run=}"; shift ;;
        -json)
            JSON=1; shift ;;
        *)
            echo "usage: scripts/lint.sh [-run analyzer[,analyzer...]] [-json]" >&2
            exit 1 ;;
    esac
done

now_ms() {
    # POSIX date has no sub-second precision everywhere; prefer %N when
    # the platform has it, fall back to whole seconds.
    t=$(date +%s%N 2>/dev/null)
    case "$t" in
        *N) echo "$(($(date +%s) * 1000))" ;;
        *)  echo "$((t / 1000000))" ;;
    esac
}

mkdir -p bin
BIN="$(pwd)/bin/shlint"
echo "== building shlint =="
go build -o "$BIN" repro/tools/analyzers/shlint

VET_FLAGS=""
[ -n "$RUN" ] && VET_FLAGS="$VET_FLAGS -run=$RUN"
[ -n "$JSON" ] && VET_FLAGS="$VET_FLAGS -json"

echo "== go vet -vettool=shlint${RUN:+ [$RUN]} =="
t0=$(now_ms)
# shellcheck disable=SC2086
go vet -vettool="$BIN" $VET_FLAGS ./...
t1=$(now_ms)
echo "vet: all packages clean ($((t1 - t0)) ms)"

# The allocgate is allocguard's second layer: run it when no -run
# filter is given, or when allocguard is in the list.
run_gate=1
if [ -n "$RUN" ]; then
    case ",$RUN," in
        *,allocguard,*) ;;
        *) run_gate="" ;;
    esac
fi
if [ -n "$run_gate" ]; then
    echo "== shlint -allocgate =="
    t0=$(now_ms)
    "$BIN" -allocgate ./...
    t1=$(now_ms)
    echo "allocgate: all //shsim:noalloc functions clean ($((t1 - t0)) ms)"
fi
