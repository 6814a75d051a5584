#!/usr/bin/env sh
# bench.sh — benchmark-trajectory guardrail for the simulator hot path.
#
# Runs the hot-path benchmarks and compares them against the most recent
# recorded trajectory (the highest-numbered BENCH_PR*.json in the repo
# root). Three lines are drawn:
#
#   - allocation count (hard): steady-state stepping (BenchmarkCoreStep)
#     and block retire (BenchmarkCoreBlock) must both report 0 allocs/op,
#     or the allocation-free hot path regressed;
#   - compose bytes (hard): BenchmarkComposeDefault must stay under
#     4 MiB/op on the default 256 MiB machine, or the demand-backed
#     memory image regressed to a dense one;
#   - step rate (gated, tolerant, drift-aware): measured ns/op must be
#     within BENCH_TOLERANCE_PCT (default 15%) of the recorded ns_per_op
#     scaled by the host drift ratio. The drift ratio is measured at gate
#     time from BenchmarkHostDriftReference — a frozen kernel that no
#     product change touches, so its movement against the trajectory's
#     recording is pure host drift (the ~21% swing documented in
#     BENCH_PR6.json would otherwise fail healthy trees). Trajectories
#     recorded before the reference existed gate un-scaled, as before.
#     Set BENCH_SKIP_RATE_GATE=1 to disable on machines unlike the
#     recording host (CI shared runners keep it on but the job is
#     non-gating).
#
# Usage:  scripts/bench.sh [benchtime]     (default 2s; CI uses 1x)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"

trajectory=$(ls BENCH_PR*.json | sort -V | tail -1)
if [ -z "$trajectory" ]; then
    echo "FAIL: no BENCH_PR*.json trajectory file found" >&2
    exit 1
fi

echo "== hot-path benchmarks (benchtime=$benchtime) =="
out=$(go test -run '^$' -bench 'BenchmarkCoreSimulator' -benchmem -benchtime "$benchtime" .)
echo "$out"
step=$(go test -run '^$' -bench 'BenchmarkCoreStep$|BenchmarkCoreBlock$' -benchmem -benchtime "$benchtime" ./internal/cpu/)
echo "$step"

echo
echo "== many-core machine scaling (benchtime=$benchtime) =="
# Aggregate step rate of the cycle-quantum kernel at 1/2/4/8 simulated
# cores. The absolute multi-core rates only mean something on a host with
# that much parallelism (nproc below records the context); the recorded
# trajectory file documents the host they were measured on.
echo "host parallelism: $(nproc 2>/dev/null || echo unknown) cpu(s)"
scaling=$(go test -run '^$' -bench 'BenchmarkMachineScaling' -benchmem -benchtime "$benchtime" .)
echo "$scaling"

echo
echo "== open-loop service harness (benchtime=$benchtime) =="
# End-to-end serving-loop throughput (arrivals, admission, dispatch,
# sojourn recording) plus the simulated p99 of the event-aware cell.
# Informational for the rate (a whole-pipeline figure, too noisy to
# gate), but the run itself is a hard check: the benchmark fails if the
# event-aware policy leaves requests unserved.
if ! serve=$(go test -run '^$' -bench 'BenchmarkServiceThroughput$' -benchtime "$benchtime" .); then
    echo "$serve"
    echo "FAIL: BenchmarkServiceThroughput failed (event-aware cell incomplete?)" >&2
    exit 1
fi
echo "$serve"

echo
echo "== multi-core serving (benchtime=$benchtime) =="
# One open-loop arrival stream load-balanced across 1/2/4/8 per-core
# policy engines by the quantum dispatcher. The req/s figure is
# wall-clock: it only scales with simulated cores on a host with that
# much parallelism (nproc above records the context; a 1-CPU host runs
# the extra simulated cores serially, so req/s drops as cores rise).
# Informational for the rate; the run is a hard conservation check.
if ! multicore=$(go test -run '^$' -bench 'BenchmarkServeMulticore' -benchtime "$benchtime" .); then
    echo "$multicore"
    echo "FAIL: BenchmarkServeMulticore failed (requests lost?)" >&2
    exit 1
fi
echo "$multicore"

# Hard check: the machine kernel's steady-state Step must not allocate
# (the same 0-alloc line the single-core step path is held to).
if ! go test -run 'TestMachineSteadyStateAllocs' -count=1 ./internal/machine/ >/dev/null; then
    echo "FAIL: machine steady-state Step allocates (TestMachineSteadyStateAllocs)" >&2
    exit 1
fi
echo "OK: machine steady-state Step is allocation-free (TestMachineSteadyStateAllocs)"

# Hard check: a steady-state dispatch round (admit → balance → quantum
# barrier) of the multi-core serving dispatcher must not allocate.
if ! go test -run 'TestDispatcherSteadyStateAllocs' -count=1 ./internal/service/ >/dev/null; then
    echo "FAIL: service dispatcher allocates per quantum (TestDispatcherSteadyStateAllocs)" >&2
    exit 1
fi
echo "OK: multi-core dispatch round is allocation-free (TestDispatcherSteadyStateAllocs)"

# Hard check: composing on the default 256 MiB machine must cost the bytes
# the scenario touches (~1.4 MB for BenchmarkComposeDefault's 1 MiB chase),
# not the image's logical size. The ceiling is 4 MiB/op (doubling regrowth
# costs at most 4x the footprint); a dense image is 268 MB/op.
compose=$(go test -run '^$' -bench 'BenchmarkComposeDefault$' -benchmem -benchtime "$benchtime" .)
echo "$compose"
compose_bytes=$(echo "$compose" | awk '/BenchmarkComposeDefault-|BenchmarkComposeDefault / { for (i=2; i<NF; i++) if ($(i+1) == "B/op") print $i }')
if [ -z "$compose_bytes" ] || [ "$compose_bytes" -gt 4194304 ]; then
    echo "FAIL: BenchmarkComposeDefault allocates ${compose_bytes:-?} B/op (ceiling 4194304): dense memory image is back?" >&2
    exit 1
fi
echo "OK: default-machine compose costs touched bytes only (${compose_bytes} B/op <= 4194304)"

echo
echo "== recorded trajectory ($trajectory) =="
grep -E '"(ns_per_op|ns_per_instr|allocs_per_op|minstrs_per_sec|speedup)"' "$trajectory"

# Hard checks: neither steady-state stepping nor block retire may allocate.
allocs=$(echo "$step" | awk '/BenchmarkCoreStep-|BenchmarkCoreStep / { print $(NF-1) }')
if [ "${allocs:-1}" != "0" ]; then
    echo "FAIL: BenchmarkCoreStep reports $allocs allocs/op (want 0)" >&2
    exit 1
fi
block_allocs=$(echo "$step" | awk '/BenchmarkCoreBlock-|BenchmarkCoreBlock / { print $(NF-1) }')
if [ "${block_allocs:-1}" != "0" ]; then
    echo "FAIL: BenchmarkCoreBlock reports $block_allocs allocs/op (want 0)" >&2
    exit 1
fi
echo
echo "OK: steady-state step and block retire are allocation-free (0 allocs/op)"

# Step-rate gate: measured ns/op vs the recorded trajectory, ±tolerance.
if [ "${BENCH_SKIP_RATE_GATE:-0}" = "1" ]; then
    echo "SKIP: step-rate gate disabled (BENCH_SKIP_RATE_GATE=1)"
    exit 0
fi
case "$benchtime" in
*x)
    # An iteration-count benchtime (CI's 1x smoke) times a single pass —
    # cold caches, no warmup — which says nothing about steady-state rate.
    echo "SKIP: step-rate gate needs a duration benchtime (got $benchtime)"
    exit 0
    ;;
esac
tol="${BENCH_TOLERANCE_PCT:-15}"
# BenchmarkCoreStep output:  name  iters  X ns/op  Y B/op  Z allocs/op
measured=$(echo "$step" | awk '/BenchmarkCoreStep-|BenchmarkCoreStep / { for (i=2; i<NF; i++) if ($(i+1) == "ns/op") print $i }')
recorded=$(awk '/"BenchmarkCoreStep":/ { found=1 } found && /"current"/ { cur=1 } cur && /"ns_per_op"/ { gsub(/[",]/,"",$2); print $2; exit }' "$trajectory")
if [ -z "$measured" ] || [ -z "$recorded" ]; then
    echo "FAIL: could not extract step rate (measured='$measured' recorded='$recorded')" >&2
    exit 1
fi

# Host-drift correction: re-measure the frozen reference kernel and take
# the ratio against the trajectory's recording of it. The reference is
# outside every product code path, so the ratio isolates what the host
# contributes to any step-rate movement.
drift=1
ref_recorded=$(awk '/"BenchmarkHostDriftReference":/ { found=1 } found && /"current"/ { cur=1 } cur && /"ns_per_op"/ { gsub(/[",]/,"",$2); print $2; exit }' "$trajectory")
if [ -n "$ref_recorded" ]; then
    ref_out=$(go test -run '^$' -bench 'BenchmarkHostDriftReference$' -benchtime "$benchtime" .)
    ref_measured=$(echo "$ref_out" | awk '/BenchmarkHostDriftReference-|BenchmarkHostDriftReference / { for (i=2; i<NF; i++) if ($(i+1) == "ns/op") print $i }')
    if [ -z "$ref_measured" ]; then
        echo "FAIL: could not measure BenchmarkHostDriftReference for the drift ratio" >&2
        exit 1
    fi
    drift=$(awk -v m="$ref_measured" -v r="$ref_recorded" 'BEGIN { printf "%.4f", m / r }')
    echo "host drift: reference ${ref_measured} ns/op vs recorded ${ref_recorded} ns/op (ratio ${drift})"
else
    echo "host drift: trajectory has no BenchmarkHostDriftReference recording; gating un-scaled"
fi

echo "step rate: measured ${measured} ns/op vs recorded ${recorded} ns/op (drift ${drift}, tolerance ±${tol}%)"
awk -v m="$measured" -v r="$recorded" -v d="$drift" -v t="$tol" 'BEGIN {
    c = r * d  # the recorded rate translated onto the gate-time host
    lo = c * (1 - t/100); hi = c * (1 + t/100)
    if (m < lo || m > hi) {
        printf "FAIL: %s ns/op outside drift-adjusted band [%.2f, %.2f]\n", m, lo, hi > "/dev/stderr"
        exit 1
    }
    printf "OK: step rate within ±%s%% of the drift-adjusted trajectory\n", t
}'
