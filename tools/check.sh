#!/usr/bin/env bash
# Repo-wide check runner:
#   1. tier-1: full build + full ctest suite       (build/)
#   2. ASan:   full ctest suite                    (build-asan/)
#   3. TSan:   obs + service + net + dynamic + coord + slo
#              + incremental                         (build-tsan/)
#   4. UBSan:  full ctest suite, fatal             (build-ubsan/)
#   5. bench-smoke: micro_benchmarks --smoke + ext_slo_ladder --smoke
#                   + ext_mutation_apply --smoke
#                   + ext_dynamic_updates at 0.2 scale (build/)
#
# The sanitizer passes reuse the persistent build-asan/, build-tsan/ and
# build-ubsan/ trees (configured here on first run). Every test carries at
# least its module label (tests/CMakeLists.txt derives it from the file
# name), and ASan and UBSan run all of them: out-of-bounds reads in the
# byte-level parsers and arena/flat-map scratch reuse, undefined behaviour
# in the floating-point scoring kernels and serving arithmetic, anywhere in
# the library. UBSan is built with -fno-sanitize-recover=undefined, so a
# report aborts the test that hit it instead of printing and passing. TSan
# runs the labels that exercise concurrency: the metrics registry (`obs`),
# the concurrent engine and the ladder's lock-free PressureMonitor
# (`service`, `slo`), the epoll server (`net`), mutators racing readers and
# the background repair thread (`dynamic`), the apply/rebind lock split
# against concurrent generation readers (`incremental`), and the router's
# dispatchers blocking on shard RPCs against the shard servers (`coord`).
#
# bench-smoke runs the allocation-counting smoke gate of the zero-allocation
# hot path (DESIGN.md §6.6): a warm exact query and a warm landmark query
# must report 0 heap allocations, else the step fails. It then runs the SLO
# ladder harness (DESIGN.md §6.8) in --smoke form: a tiny ramp that still
# exercises calibration, the exact-tier byte-identity probes (a mismatch
# fails the binary), and the BENCH_slo.json writer. Last, it runs the §6
# refresh study on a 2 000-node graph: churn rounds go through the
# MutationApplier and the LandmarkRepairer spends a fixed budget per round;
# the binary fails if the applier rejects a churn record or the repairer's
# stored-list drift is not below no refresh at some checkpoint.
#
# Usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|all] (default: all)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"
TSAN_LABELS='obs|service|net|dynamic|coord|slo|incremental'

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
}

case "$MODE" in
  tier1) run_tier1 ;;
  asan)  run_sanitized address "$REPO/build-asan" ;;
  tsan)  run_sanitized thread "$REPO/build-tsan" "$TSAN_LABELS" ;;
  ubsan) run_sanitized undefined "$REPO/build-ubsan" ;;
  bench-smoke) run_bench_smoke ;;
  all)
    run_tier1
    run_sanitized address "$REPO/build-asan"
    run_sanitized thread "$REPO/build-tsan" "$TSAN_LABELS"
    run_sanitized undefined "$REPO/build-ubsan"
    run_bench_smoke
    ;;
  *)
    echo "usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|all]" >&2
    exit 2
    ;;
esac
echo "==> check.sh: $MODE OK"
