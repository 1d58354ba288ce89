#!/bin/sh
# Run the tier-1 test suites under every VM configuration the matrix
# covers, each cell forcing its configuration through MJVM_TEST_*
# variables (see test/test_env.ml, which rejects unknown variables and
# values); a differential or monotonicity failure in any cell is a real
# bug in that configuration.
#
# - opt (none / ea / pea) x summaries (on / off) x OSR (on / off) x
#   compile mode (sync / replay). Async stays out of the product: its
#   deterministic counters are pinned bit-for-bit to replay's by
#   test_async.ml, so replay stands in for it cheaply.
# - speculative guarded inlining (on / off) x opt.
# - the correctness tooling (MJVM_TEST_CHECK_LEVEL=every-phase,
#   MJVM_TEST_ORACLE=on) x opt x OSR x compile mode: the verifier audits
#   the deopt metadata after every phase and the oracle bisimulates every
#   deoptimization against a shadow interpreter replay.
# - single cells on the default configuration: stack allocation off,
#   alone and under the tooling; the verifier fully off; a global tracer
#   (MJVM_TEST_TRACE=1); the global sampling + heap profilers
#   (MJVM_TEST_PROFILE=1), which must never change behaviour; and
#   MJVM_TEST_COMPILE_MODE=async, the threaded pipeline end to end on
#   the domain pool.
#
# Cells: 24 (opt x summaries x osr x mode) + 6 (inlining x opt) + 12
# (verify: opt x osr x mode) + 6 single cells = 48.
#
# Failures do not stop the sweep: a failing cell prints its environment
# line (the exact rerun command), then the output tail, and the exit
# code is non-zero iff any cell failed. MJVM_TEST_QCHECK_COUNT scales
# the property-based suites to 500+ random programs per property.
#
# Usage: bench/run_matrix.sh   (from the repository root)

cd "$(dirname "$0")/.."

MJVM_TEST_QCHECK_COUNT=${MJVM_TEST_QCHECK_COUNT:-500}
export MJVM_TEST_QCHECK_COUNT

log=$(mktemp)
trap 'rm -f "$log"' EXIT

failed_cells=0

# run_cell LABEL [VAR=value ...] — one matrix cell. Output is captured;
# on failure the env line is printed first (so the rerun command is the
# first thing in the failure report); the sweep continues and the
# failure is folded into the final exit code.
run_cell() {
  _label=$1
  shift
  echo "=== $_label ==="
  if env "$@" dune runtest --force >"$log" 2>&1; then
    echo "    ok"
  else
    echo ""
    echo "FAILED CELL: $* dune runtest --force"
    echo "last 40 lines of output:"
    tail -n 40 "$log" | sed 's/^/    | /'
    failed_cells=$((failed_cells + 1))
  fi
}

for opt in none ea pea; do
  for summaries in on off; do
    for osr in on off; do
      for mode in sync replay; do
        run_cell "opt=$opt summaries=$summaries osr=$osr compile-mode=$mode" \
          "MJVM_TEST_OPT=$opt" "MJVM_TEST_SUMMARIES=$summaries" \
          "MJVM_TEST_OSR=$osr" "MJVM_TEST_COMPILE_MODE=$mode"
      done
    done
  done
done

# Speculative-inlining sweep: guarded inlining toggled against the
# optimization levels it interacts with (summaries on, the default). With inlining off every virtual call falls back to
# CHA-safe inlining or summaries; results and differential properties
# must not move either way. The inlining=off half doubles as the
# regression cell for the pre-inlining pipeline.
for inlining in on off; do
  for opt in none ea pea; do
    run_cell "inlining=$inlining opt=$opt" \
      "MJVM_TEST_INLINING=$inlining" "MJVM_TEST_OPT=$opt"
  done
done

# Correctness-tooling sweep: the speculation-safety verifier after every
# optimization phase plus the bisimulation deopt oracle, across the
# opt x osr x compile-mode matrix (summaries stay on — the
# verifier cares about the shape of deopt metadata, which summaries only
# make more speculative). A SPEC violation or a replay divergence in any
# cell is a compiler bug caught by the tooling rather than by a wrong
# answer downstream.
for opt in none ea pea; do
  for osr in on off; do
    for mode in sync replay; do
      run_cell "verify: opt=$opt osr=$osr compile-mode=$mode check-level=every-phase oracle=on" \
        "MJVM_TEST_OPT=$opt" "MJVM_TEST_OSR=$osr" "MJVM_TEST_COMPILE_MODE=$mode" \
        "MJVM_TEST_CHECK_LEVEL=every-phase" "MJVM_TEST_ORACLE=on"
    done
  done
done

# Stack-allocation tier off: every frame-bounded materialization falls
# back to a heap allocation. Results, differential properties and the
# interpreted-vs-compiled parity suites must not move; only the
# allocation counters may.
run_cell "stackalloc=off (frame-bounded materializations fall back to the heap)" \
  "MJVM_TEST_STACKALLOC=off"
# And crossed with the correctness tooling: with stack allocation off no
# SPEC12 rule should ever fire and no deopt should ever promote.
run_cell "stackalloc=off check-level=every-phase oracle=on" \
  "MJVM_TEST_STACKALLOC=off" "MJVM_TEST_CHECK_LEVEL=every-phase" "MJVM_TEST_ORACLE=on"

run_cell "check-level=none (verifier fully off: production-shaped config)" \
  "MJVM_TEST_CHECK_LEVEL=none"
run_cell "trace=on (default configuration, global tracer installed)" "MJVM_TEST_TRACE=1"
run_cell "profile=on (default configuration, global sampling + heap profilers installed)" \
  "MJVM_TEST_PROFILE=1"
run_cell "compile-mode=async (default configuration, compiles on the domain pool)" \
  "MJVM_TEST_COMPILE_MODE=async"

if [ "$failed_cells" -gt 0 ]; then
  echo ""
  echo "$failed_cells matrix cell(s) failed"
  exit 1
fi
exit 0
