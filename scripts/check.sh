#!/usr/bin/env bash
# Repo check: the active conv backend (native FKW kernel or the numpy
# fallback), tier-1 tests (the serving/chaos/membership/multi-tenant
# suites under their own named headers), a smoke run of the
# latency-budget harness, and a fast benchmark-collection pass.
#
# The benchmark modules are named bench_*.py, which pytest's default
# python_files glob silently skips — so they can rot without anyone
# noticing.  This script runs them with --benchmark-disable (experiment
# logic + assertions execute; no timing calibration) so CI catches
# import errors and stale APIs in benchmarks/ as well.
#
# Every pytest run carries a per-test --timeout (the hand-rolled
# watchdog in the root conftest.py): the serving/chaos suites' failure
# mode is a hang, and a hang must name its test and die, not eat the CI
# budget.
#
# Usage: scripts/check.sh [extra pytest args for the tier-1 run]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# A check run must leave the working tree as it found it: build outputs
# belong in ~/.cache or temp dirs, run outputs in ignored paths.  The
# porcelain status is recorded here and compared at the end.
tree_status() { git status --porcelain 2>/dev/null || true; }
status_before="$(tree_status)"

# The serving, chaos, membership and multi-tenant suites are part of
# tier-1 (bare `pytest` collects them) but run here under their own
# named headers, so the general tier-1 run below skips exactly those
# files: every test file runs once, and a serving regression is still
# unmissable in CI output.
SERVING_SUITES=(
    tests/runtime/test_serving.py tests/runtime/test_arena.py
    tests/runtime/test_transport.py tests/runtime/test_shm_ring.py
    tests/runtime/test_cluster.py tests/runtime/test_resilience.py
    tests/runtime/test_telemetry.py
)
CHAOS_SUITE=tests/runtime/test_chaos.py
MEMBERSHIP_SUITE=tests/runtime/test_membership.py
MULTITENANT_SUITE=tests/runtime/test_multitenant.py

# The production conv level is the native FKW kernel, built once per
# machine into a per-user cache outside the tree.  Where a C compiler is
# on PATH it must load: otherwise every suite below would silently test
# the numpy 'gemm' fallback instead of the production path.  The kernel
# must also compile cleanly with warnings as errors (into a temp file,
# never the cache), and the vector width it was built for is printed so
# AVX2 and AVX-512 numbers are never compared blind.
echo "== conv backend =="
python - <<'PY'
import os, shutil, subprocess, sys, tempfile
from repro.compiler import native
lib = native.library()
print("conv backend:", f"native ({native.library_path()})" if lib else "gemm (numpy fallback)")
if lib is None and shutil.which("cc"):
    sys.exit("cc is on PATH but the native FKW kernel did not build or load")
if lib is not None:
    print("vector width:", lib.fkw_conv_vector_bits(), "bits")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([native._compiler(), *native.FLAGS, "-Wall", "-Wextra", "-Werror",
                        "-o", os.path.join(tmp, "fkw_conv.so"), str(native.SOURCE)], check=True)
    print("fkw_conv.c: clean under -Wall -Wextra -Werror")
PY

echo "== tier-1 tests (named suites below excluded) =="
ignores=()
for path in "${SERVING_SUITES[@]}" "$CHAOS_SUITE" "$MEMBERSHIP_SUITE" "$MULTITENANT_SUITE"; do
    ignores+=("--ignore=$path")
done
python -m pytest -x -q --timeout 300 --durations=10 "${ignores[@]}" "$@"

# Named gate for the serving suites: the in-process micro-batcher +
# arena, the transport protocol (frame codec edge cases + the credit
# gate that is every transport's slot free list), the shm payload
# ring, the multi-process cluster stack (spawned shard workers, shm AND
# loopback-TCP transports, crash recovery), the resilience layer
# (retries, breakers, deadlines, slot hygiene), and the telemetry stack
# (metrics registry and histogram quantiles — the one latency store —,
# cross-transport tracing, admin endpoint).
# The benchmarks pass below picks up the serving throughput benches
# (bench_serving_concurrent.py, bench_serving_cluster.py,
# bench_serving_chaos.py, bench_serving_tcp.py,
# bench_serving_observability.py, bench_serving_elastic.py,
# bench_serving_multitenant.py) via the glob — the observability bench
# gates tracing overhead, the elastic bench gates zero-error membership
# churn, and the multitenant bench gates bitwise per-model correctness
# of the consolidated two-model cluster even in the disabled fast pass.
echo "== serving concurrency + cluster stress tests =="
python -m pytest "${SERVING_SUITES[@]}" -q --timeout 300

# The chaos matrix is the resilience acceptance gate: seeded fault
# injection (crash/stall/slow/corrupt/slot-exhaust) against the full
# stack — every request must resolve as the correct result or a typed
# error, with the run's counters matching the plan's replay exactly,
# over the shm transport and over loopback TCP alike.
echo "== chaos suite (seeded fault injection, shm + tcp) =="
python -m pytest "$CHAOS_SUITE" -q --timeout 300

# Elastic membership is its own named gate: runtime add/remove with
# drain-before-remove must be invisible to clients — remove-under-load
# with zero client-visible errors, add-under-load demonstrably serving
# traffic, SIGKILL-mid-drain resolving futures typed — on the shm
# transport and over loopback TCP alike, plus the shard-file watcher
# and the admin POST routes that drive the same code paths.
echo "== elastic membership suite (runtime add/remove, shm + tcp) =="
python -m pytest "$MEMBERSHIP_SUITE" -q --timeout 300

# Multi-tenancy is its own named gate: a two-model registry served
# concurrently with bitwise per-model correctness, typed unknown-model
# rejection, hot load-then-serve under live load, drained unload with
# zero client-visible errors, and mixed-model SIGKILL recovery through
# the retry budget — on the shm transport and over loopback TCP alike,
# plus the admin model routes and per-model /metrics labels.
echo "== multi-tenant suite (model registry, hot load/unload, shm + tcp) =="
python -m pytest "$MULTITENANT_SUITE" -q --timeout 300

# The latency-budget harness (bench/, declared by BENCHMARK.json) only
# calls public functions and reads public telemetry; the smoke run (1
# round x 2 windows per workload, every reply checked bitwise) keeps it
# from rotting against src/.
echo "== latency-budget harness (bench/run.py --smoke) =="
python3 bench/run.py --smoke

echo "== benchmarks (benchmark-disabled fast pass) =="
python -m pytest benchmarks/ -q --benchmark-disable --timeout 600 \
                 -o python_files='bench_*.py test_*.py'

echo "== working tree unchanged by the run =="
status_after="$(tree_status)"
if [[ "$status_after" != "$status_before" ]]; then
    echo "the check run changed git status --porcelain:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
fi

echo "== check.sh OK =="
