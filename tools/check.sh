#!/usr/bin/env bash
# Repo-wide check runner:
#   1. tier-1: full build + full ctest suite       (build/)
#   2. ASan:   full ctest suite                    (build-asan/)
#   3. TSan:   obs + service + net + dynamic + coord + slo
#              + incremental                         (build-tsan/)
#   4. UBSan:  full ctest suite, fatal             (build-ubsan/)
#   5. bench-smoke: micro_benchmarks --smoke + ext_slo_ladder --smoke
#                   + ext_mutation_apply --smoke
#                   + ext_dynamic_updates at 0.2 scale
#                   + ext_churn_drift (build/)
#                   + perfbench --self-test and a 2 s run of each
#                     BENCHMARK.json workload (.bench_build/)
#   6. flaky:  net + coord + dynamic + slo, each test rerun until it fails
#              (at most FLAKY_REPEAT times) beside one busy loop per
#              hardware thread                      (build/)
#              then service + dynamic + incremental rerun until it fails
#              (at most FLAKY_TSAN_REPEAT times)    (build-tsan/)
#
# The sanitizer passes reuse the persistent build-asan/, build-tsan/ and
# build-ubsan/ trees (configured here on first run). Every test carries at
# least its module label (tests/CMakeLists.txt derives it from the file
# name), and ASan and UBSan run all of them: out-of-bounds reads in the
# byte-level parsers and arena/score-table scratch reuse, undefined behaviour
# in the floating-point scoring kernels and serving arithmetic, anywhere in
# the library. UBSan is built with -fno-sanitize-recover=undefined, so a
# report aborts the test that hit it instead of printing and passing. TSan
# runs the labels that exercise concurrency: the metrics registry (`obs`),
# the concurrent engine and the ladder's lock-free PressureMonitor
# (`service`, `slo`), the epoll server (`net`), mutators racing readers and
# the background repair thread (`dynamic`), the applier publishing
# generations while readers pin them (`incremental`), and the router's
# dispatchers blocking on shard RPCs against the shard servers (`coord`).
# The server answers a single fresh-cache RECOMMEND on its event loop
# through the engine's cache probe, which takes no engine lock; the `net`
# and `dynamic` labels cover that probe racing dispatchers and Publish. A
# test that needs the dispatcher path must use an exclusion list or a cold
# key.
#
# bench-smoke runs the allocation-counting smoke gate of the zero-allocation
# hot path (DESIGN.md §6.6): a warm exact query, a warm all-topic
# exploration and a warm landmark query must report 0 heap allocations,
# else the step fails. It then runs the SLO
# ladder harness (DESIGN.md §6.8) in --smoke form: a tiny ramp that still
# exercises calibration, the exact-tier byte-identity probes (a mismatch
# fails the binary), and the BENCH_slo.json writer. Next, it runs the §6
# refresh study on a 2 000-node graph: churn rounds go through the
# MutationApplier and the LandmarkRepairer spends a fixed budget per round;
# the binary fails if the applier rejects a churn record or the repairer's
# stored-list drift is not below no refresh at some checkpoint. Then it
# runs the live churn-drift study: 5 000 mutations in 100 batches through
# the applier with the repairer marking; the binary fails unless every
# checkpoint reports every landmark slot stale (every applied batch marks
# every slot) and, after Quiesce(), the repaired index serializes
# byte-identically to a fresh build on the live graph. Finally it
# builds the serving benchmark (perfbench/, its own Release tree) against
# the current headers, runs its self-test, and runs every workload that
# BENCHMARK.json lists for 2 s: the step fails unless the result line says
# "correct": true with 0 failed operations (perfbench itself exits 0
# either way). Tier-1 never compiles perfbench's serving code, so this is
# where a header change that breaks it shows up.
#
# The flaky leg hunts timing-sensitive failures before a loaded checker
# finds them: the labels whose tests race sockets, dispatchers, deadlines
# and the repair thread run under `ctest --repeat until-fail`, while the
# script keeps every hardware thread busy. The busy loops are killed by a
# trap on exit, pass or fail. It then reruns the labels that drive the
# publish path (the engine's generations, the applier and the repair
# thread) in the TSan tree, so a rare interleaving of readers and writers
# gets many chances to show a race. A test it shows failing is a defect
# to fix, not one to rerun until green.
#
# Usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|flaky|all]
# (default: all)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"
TSAN_LABELS='obs|service|net|dynamic|coord|slo|incremental'
FLAKY_LABELS='net|coord|dynamic|slo'
FLAKY_REPEAT=20
FLAKY_TSAN_LABELS='service|dynamic|incremental'
FLAKY_TSAN_REPEAT=12
BUSY_PIDS=()
trap 'if [ ${#BUSY_PIDS[@]} -gt 0 ]; then kill "${BUSY_PIDS[@]}" 2>/dev/null; fi' EXIT

run_tier1() {
  echo "==> tier-1: full build + ctest"
  cmake -B "$REPO/build" -S "$REPO" >/dev/null
  cmake --build "$REPO/build" -j "$JOBS"
  (cd "$REPO/build" && ctest --output-on-failure -j "$JOBS")
}

run_sanitized() {  # $1=sanitizer $2=build-dir [$3=label-regex, else all]
  echo "==> $1: ${3:+suites matching -L '$3'}${3:-full suite}"
  cmake -B "$2" -S "$REPO" -DMBR_SANITIZE="$1" >/dev/null
  cmake --build "$2" -j "$JOBS"
  (cd "$2" && ctest ${3:+-L "$3"} --output-on-failure -j "$JOBS")
}

run_bench_smoke() {
  echo "==> bench-smoke: micro_benchmarks --smoke (zero-allocation gate)"
  cmake -B "$REPO/build" -S "$REPO" >/dev/null
  cmake --build "$REPO/build" -j "$JOBS" --target micro_benchmarks
  "$REPO/build/bench/micro_benchmarks" --smoke
  echo "==> bench-smoke: ext_slo_ladder --smoke (degradation ladder gate)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_slo_ladder
  (cd "$REPO/build/bench" && ./ext_slo_ladder --smoke)
  echo "==> bench-smoke: ext_mutation_apply --smoke (O(Δ) apply pipeline)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_mutation_apply
  (cd "$REPO/build/bench" && ./ext_mutation_apply --smoke)
  echo "==> bench-smoke: ext_dynamic_updates (§6 refresh study on the serving path)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_dynamic_updates
  (cd "$REPO/build/bench" && MBR_SCALE=0.2 MBR_TRIALS=4 ./ext_dynamic_updates)
  echo "==> bench-smoke: ext_churn_drift (all slots stale; quiesce matches fresh)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_churn_drift
  (cd "$REPO/build/bench" && ./ext_churn_drift)
  echo "==> bench-smoke: perfbench --self-test"
  (cd "$REPO" && python3 perfbench/run.py --self-test)
  local workloads w out
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$REPO/BENCHMARK.json")"
  for w in $workloads; do
    echo "==> bench-smoke: perfbench --workload $w --seconds 2"
    out="$(cd "$REPO" && python3 perfbench/run.py --workload "$w" --seed 1 \
      --seconds 2 --trace 0)"
    out="${out##*$'\n'}"  # the result object is the last line
    echo "$out"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
      "$out" || {
      echo "perfbench $w: result not correct or operations failed" >&2
      exit 1
    }
  done
}

run_flaky() {
  echo "==> flaky: -L '$FLAKY_LABELS' until-fail:$FLAKY_REPEAT beside $(nproc) busy loops"
  cmake -B "$REPO/build" -S "$REPO" >/dev/null
  cmake --build "$REPO/build" -j "$JOBS"
  local i
  for ((i = 0; i < $(nproc); i++)); do
    (while :; do :; done) &
    BUSY_PIDS+=($!)
  done
  (cd "$REPO/build" && ctest -L "$FLAKY_LABELS" \
    --repeat until-fail:"$FLAKY_REPEAT" --output-on-failure -j "$JOBS")
  kill "${BUSY_PIDS[@]}" 2>/dev/null || true
  BUSY_PIDS=()
  echo "==> flaky: TSan -L '$FLAKY_TSAN_LABELS' until-fail:$FLAKY_TSAN_REPEAT"
  cmake -B "$REPO/build-tsan" -S "$REPO" -DMBR_SANITIZE=thread >/dev/null
  cmake --build "$REPO/build-tsan" -j "$JOBS"
  (cd "$REPO/build-tsan" && ctest -L "$FLAKY_TSAN_LABELS" \
    --repeat until-fail:"$FLAKY_TSAN_REPEAT" --output-on-failure -j "$JOBS")
}

case "$MODE" in
  tier1) run_tier1 ;;
  asan)  run_sanitized address "$REPO/build-asan" ;;
  tsan)  run_sanitized thread "$REPO/build-tsan" "$TSAN_LABELS" ;;
  ubsan) run_sanitized undefined "$REPO/build-ubsan" ;;
  bench-smoke) run_bench_smoke ;;
  flaky) run_flaky ;;
  all)
    run_tier1
    run_sanitized address "$REPO/build-asan"
    run_sanitized thread "$REPO/build-tsan" "$TSAN_LABELS"
    run_sanitized undefined "$REPO/build-ubsan"
    run_bench_smoke
    run_flaky
    ;;
  *)
    echo "usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|flaky|all]" >&2
    exit 2
    ;;
esac
echo "==> check.sh: $MODE OK"
