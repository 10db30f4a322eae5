#!/usr/bin/env bash
# Tier-1 verify plus race check for the intra-node parallel pipeline and
# the admission scheduler / query server.
#
#   1. default build + full ctest suite (all tiers: fast, slow, fuzz,
#      fault, dist — dist spawns real adv_node daemons and kill -9s them)
#   2. bounded fuzz + fault smoke with FIXED seeds (deterministic, a few
#      seconds): the differential harness and the property suites invoked
#      directly so the ADV_FUZZ_* overrides apply (see docs/TESTING.md),
#      including interp-loop differential runs (in-process and through
#      the dist daemons), the agg.merge fault campaign, and the
#      scatter/gather dist backend (clean, under the node-death campaign,
#      and under the partial-aggregate-merge campaign)
#   3. serving-layer smoke: tools/adv_load closed loop with two
#      equal-weight tenants gating fair-share deviation and result-cache
#      hits
#   4. ThreadSanitizer build (cmake --preset tsan) of the concurrency-
#      sensitive test binaries — parallel pipeline, scheduler, serving
#      layer, networked server, and the dq differential/fault harness —
#      run with halt_on_error so any data race fails the script
#   5. Address+UndefinedBehaviorSanitizer build (cmake --preset asan) of
#      the whole tree, running the fast test tier (ctest --preset
#      fast-asan) so every layout family / extraction / join path is
#      checked for heap errors and UB on each verify, plus one --dist
#      differential seed through in-process node daemons
#   6. bench_check.sh — scan/pruning/plan-cache/served-query/serving-cache
#      throughput vs the committed BENCH_micro.json (a BENCH_CHECK_TOLERANCE
#      rows_per_sec or queries_per_sec regression, or any
#      identical_to_baseline=false, fails; skips cleanly when no baseline
#      is committed)
#
# Set VERIFY_SKIP_TSAN=1 to skip step 4 (e.g. on hosts without tsan);
# VERIFY_SKIP_ASAN=1 skips step 5; VERIFY_SKIP_BENCH=1 skips the perf
# gate.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

# Bounded fuzz + fault smoke, fixed seeds so a failure here is always
# reproducible with the printed replay command.
ADV_FUZZ_SEED=97 ./build/tests/property_test >/dev/null
ADV_FUZZ_SEED=97 ./build/tests/interval_fuzz_test >/dev/null
./build/tools/adv_fuzz --seed 101 --seeds 3 >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign io >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign net --server >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign node --partial >/dev/null
# The interp reference loop, in-process and inside the dist daemons
# (daemon-side kernel dispatch).  The corpus includes GROUP BY/aggregate/
# top-k shapes, so these runs also cover the fold under the second loop;
# the agg campaign injects faults into the partial-aggregate merge.
./build/tools/adv_fuzz --seed 101 --seeds 3 --kernel interp >/dev/null
./build/tools/adv_fuzz --seed 101 --seeds 2 --dist --kernel interp >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign agg >/dev/null
# Distribution backend: every query also scattered through per-node
# daemons behind a DistCoordinator; the node campaign exercises the
# coordinator's typed-failure retry path under deterministic injection,
# the agg campaign the kAggBatch delta/commit no-double-count contract.
./build/tools/adv_fuzz --seed 101 --seeds 2 --dist >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign node --dist >/dev/null
./build/tools/adv_fuzz --seed 101 --campaign agg --dist >/dev/null
echo "fuzz/fault smoke OK"

# Multi-process distribution smoke: the dist label spawns real adv_node
# processes, kill -9s primaries mid-stream (fixed commit-point triggers),
# and demands byte-identical rows via replica failover.
(cd build && ctest -L dist --output-on-failure -j"$JOBS")
echo "dist chaos smoke OK"

# Serving-layer smoke: the closed-loop load generator against a selfhosted
# server with the result cache on — two equal-weight tenants on one run
# slot must each get ~half the completions (fairness gate) and the hot set
# must produce result-cache hits (docs/SERVING.md §6–7).  Exit 1 = broken
# run, exit 2 = a gate failed; either fails verify.
./build/tools/adv_load --selfhost --duration 2 --seed 11 \
  --tenants a:1:3,b:1:3 --hot-ratio 0.8 --think-ms 0 --max-concurrent 1 \
  --check-fairness 0.15 --check-cache-hits 1 --quiet
echo "adv_load serving smoke OK"

if [[ "${VERIFY_SKIP_TSAN:-0}" != "1" ]]; then
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j"$JOBS" \
    --target storm_test storm_concurrency_test sched_test sched_stress_test \
             net_test serve_test kernels_test agg_test dq_diff_test \
             dq_fault_test dist_chaos_test adv_node
  # Exercise the parallel worker path even on single-core hosts.
  export ADV_THREADS_PER_NODE=4
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/storm_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/storm_concurrency_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/sched_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/sched_stress_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/net_test
  # Serving layer: result-cache single-flight (leader/follower latch),
  # LRU under concurrent inserts, and the tenant-quota client burst.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/serve_test
  # The kernel loops run per-worker arenas over shared file mappings.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/kernels_test
  # Aggregation pushdown: per-worker sinks folding concurrently, then
  # the two-phase merge across worker and node boundaries.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/agg_test
  # Bounded corpora under tsan: the full wall clock stays in seconds.
  ADV_FUZZ_ITERS=6 TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/dq/dq_diff_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/dq/dq_fault_test
  # Distribution layer under tsan: daemon heartbeat/scan/control threads,
  # coordinator gather threads, and real tsan-built adv_node processes.
  ADV_NODE_BIN=./build-tsan/tools/adv_node TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/dist_chaos_test
fi

if [[ "${VERIFY_SKIP_ASAN:-0}" != "1" ]]; then
  # Heap errors and UB (overflow, misaligned loads, bad shifts) across the
  # whole fast tier: layout families, both kernel loops, metadata
  # parsing, and the cross-dataset join path.  -fno-sanitize-recover=all
  # in the preset turns any UBSan diagnostic into a test failure.
  cmake --preset asan >/dev/null
  cmake --build build-asan -j"$JOBS"
  ctest --preset fast-asan -j"$JOBS"
  # fast-asan excludes the dist label, so run one differential seed
  # through in-process node daemons: the daemon scan loop and the
  # coordinator's frame decoding under ASan/UBSan.
  ./build-asan/tools/adv_fuzz --seed 101 --seeds 1 --dist >/dev/null
fi

if [[ "${VERIFY_SKIP_BENCH:-0}" != "1" ]]; then
  scripts/bench_check.sh
fi

echo "verify OK"
