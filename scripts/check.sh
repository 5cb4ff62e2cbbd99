#!/usr/bin/env bash
# Strict pre-merge gate: configure with -Wall -Wextra -Werror (QUTES_WERROR),
# build everything, and run the full tier-1 test suite. Uses its own build
# directory so it never perturbs the regular dev build.
#
# Modes (combinable with --quick):
#   (none)    -Werror build + full test suite in build-check/, plus the
#             perfbench self-test (python3 perfbench/run.py --selftest) and
#             the unit checks of scripts/bench_compare.py's verdict
#   --asan    AddressSanitizer build + full test suite in build-asan/
#   --ubsan   UndefinedBehaviorSanitizer build + full test suite in build-ubsan/
#   --native  -march=native build (QUTES_NATIVE=ON) + full test suite in
#             build-native/ — validates the tuned-for-this-machine
#             configuration the runtime-dispatch kernels normally make
#             unnecessary
#   --quick   scale the differential/fuzz sweeps down (QUTES_DIFF_QUICK=1)
#             for a fast smoke signal, e.g. `check.sh --asan --quick`
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

BUILD_DIR=build-check
SANITIZE=""
NATIVE=0
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --asan)  SANITIZE=address;   BUILD_DIR=build-asan ;;
    --ubsan) SANITIZE=undefined; BUILD_DIR=build-ubsan ;;
    --native) NATIVE=1;          BUILD_DIR=build-native ;;
    --quick) QUICK=1 ;;
    *) echo "usage: $0 [--asan|--ubsan|--native] [--quick]" >&2; exit 2 ;;
  esac
done
if [[ -n "$SANITIZE" && "$NATIVE" == 1 ]]; then
  echo "check.sh: --native cannot be combined with a sanitizer mode" >&2
  exit 2
fi

CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DQUTES_WERROR=ON)
if [[ "$NATIVE" == 1 ]]; then
  CMAKE_ARGS+=(-DQUTES_NATIVE=ON)
fi
if [[ -n "$SANITIZE" ]]; then
  CMAKE_ARGS+=(-DQUTES_SANITIZE="$SANITIZE")
  # Die on the first report: a sanitizer finding must fail the test, not
  # scroll past it.
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=0:abort_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:abort_on_error=1"
fi
if [[ "$QUICK" == 1 ]]; then
  export QUTES_DIFF_QUICK=1
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Engine parity gate: the pass above ran every suite on the default engine
# (the bytecode VM); re-run the language-level suites on the tree-walk
# reference so both engines stay green under the same build (including the
# sanitizer configurations, where an engine-specific memory bug would hide
# if only one engine ever executed).
QUTES_EXEC_MODE=ast ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
  -R 'test_(interpreter|programs|conformance|stdlib|bytecode|differential|dsl_robustness|program_files|edge_cases|debug_features|casting|printer)|cli_'
echo "check.sh: language suites passed under QUTES_EXEC_MODE=ast (tree-walk reference)."

# Engine parity on the shipped programs: every example runs under both
# engines with one seed, and the outputs must be byte-identical. The VM holds
# classical scalars inline in a union on its operand stack; a read of the
# wrong member is undefined behaviour that neither sanitizer reports, so this
# end-to-end diff is the guard.
PARITY_DIR="$BUILD_DIR/engine-parity"
mkdir -p "$PARITY_DIR"
for prog in examples/programs/*.qut; do
  name="$(basename "$prog" .qut)"
  for mode in vm ast; do
    "$BUILD_DIR"/tools/qutes run "$prog" --seed 9 --exec-mode "$mode" \
      >"$PARITY_DIR/$name.$mode.txt" 2>&1
  done
  diff "$PARITY_DIR/$name.vm.txt" "$PARITY_DIR/$name.ast.txt" \
    || { echo "check.sh: $prog prints differently under --exec-mode vm and ast" >&2; exit 1; }
done
echo "check.sh: example programs print identically under both engines."

# MPS backend smoke sweep: exercises the contraction/SVD kernels and the
# dense-vs-MPS crossover path in this build's instrumentation (most valuable
# under --asan/--ubsan, where the test binaries alone don't drive the bench
# workloads). Quick mode scales the widths/bond caps down.
QUTES_MPS_QUICK="$QUICK" "$BUILD_DIR"/bench/bench_mps --benchmark_filter='^$' >/dev/null
echo "check.sh: MPS backend smoke sweep completed."

# Stabilizer backend smoke sweep: drives the tableau column updates, the
# rank-update measurement path, and the dense-vs-stabilizer crossover under
# this build's instrumentation (the bit-packed word ops are exactly where
# ASan/UBSan would catch an out-of-bounds word index the tests' widths
# might miss). Always quick here; run_experiments.sh --stabilizer does the
# full-width sweep.
QUTES_STAB_QUICK=1 "$BUILD_DIR"/bench/bench_stabilizer --benchmark_filter='^$' >/dev/null
echo "check.sh: stabilizer backend smoke sweep completed."

# Variational smoke sweep: drives the parameter-shift gradient engine, the
# Adam minimize loop, the batched bind-before-run executor path, and the
# one-compile parameter sweep through the qutesd service (the bench asserts
# convergence, bit-identical batch counts, and compiles==1, so this is a
# correctness gate, not a timing). Always quick here — the bind/execute hot
# loops are exactly where ASan/UBSan would catch a stale param-table index.
QUTES_VARIATIONAL_QUICK=1 "$BUILD_DIR"/bench/bench_variational --benchmark_filter='^$' >/dev/null
echo "check.sh: variational smoke sweep completed."

# Observability smoke: a traced GHZ run through the CLI must produce a
# well-formed Chrome trace (per-thread span nesting) with spans from every
# layer, and a metrics snapshot whose schema/invariants hold.
OBS_DIR="$BUILD_DIR/obs-smoke"
mkdir -p "$OBS_DIR"
"$BUILD_DIR"/tools/qutes eval \
  "qubit a = |0>; qubit b = |0>; qubit c = |0>; ghz3(a, b, c); bool x = a; print x;" \
  --replay 50 --pipeline O1 \
  --trace "$OBS_DIR/trace.json" --metrics-json "$OBS_DIR/metrics.json" >/dev/null 2>&1
python3 scripts/check_trace.py "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json" \
  --require lang.parse --require pipeline.run --require executor.run \
  --require backend.prepare --require backend.sample
echo "check.sh: observability trace/metrics smoke passed."

# Trajectory-path smoke: cyclic_shift prints (measures) its register
# mid-program, so its 256-shot replay runs on the shot-group engine. The
# trace must show the engine's group span, and the replay histogram must be
# byte-identical at OpenMP team 1 and 4.
for threads in 1 4; do
  OMP_NUM_THREADS=$threads "$BUILD_DIR"/tools/qutes run examples/programs/cyclic_shift.qut \
    --replay 256 --trace "$OBS_DIR/replay_t$threads.json" 2>&1 >/dev/null \
    | sed -n '/^--- replay/,/^wrote /{/^wrote /!p}' >"$OBS_DIR/replay_t$threads.txt"
done
python3 scripts/check_trace.py "$OBS_DIR/replay_t4.json" --require sv.group
[[ -s "$OBS_DIR/replay_t1.txt" ]] \
  || { echo "check.sh: the cyclic_shift replay printed no histogram" >&2; exit 1; }
diff "$OBS_DIR/replay_t1.txt" "$OBS_DIR/replay_t4.txt" \
  || { echo "check.sh: replay histogram differs between OMP_NUM_THREADS=1 and 4" >&2; exit 1; }
echo "check.sh: trajectory-path replay smoke passed (group spans, thread-invariant histogram)."

# Static-path smoke: ghz.qut measures only at its end, so its 256-shot replay
# evolves once and samples on every backend. The trace must show the
# backend's sample span, and the histogram must be byte-identical at OpenMP
# team 1 and 4 (under the sanitizers this drives the MPS and tableau
# samplers' parallel shot loop).
declare -A SAMPLE_SPAN=([statevector]=sv.sample [density]=density.sample
                        [mps]=mps.sample [stabilizer]=stab.sample)
for backend in statevector density mps stabilizer; do
  for threads in 1 4; do
    OMP_NUM_THREADS=$threads "$BUILD_DIR"/tools/qutes run examples/programs/ghz.qut \
      --replay 256 --backend "$backend" --trace "$OBS_DIR/static_${backend}_t$threads.json" \
      2>&1 >/dev/null \
      | sed -n '/^--- replay/,/^wrote /{/^wrote /!p}' >"$OBS_DIR/static_${backend}_t$threads.txt"
  done
  python3 scripts/check_trace.py "$OBS_DIR/static_${backend}_t4.json" \
    --require "${SAMPLE_SPAN[$backend]}" >/dev/null
  [[ -s "$OBS_DIR/static_${backend}_t1.txt" ]] \
    || { echo "check.sh: the ghz replay on $backend printed no histogram" >&2; exit 1; }
  diff "$OBS_DIR/static_${backend}_t1.txt" "$OBS_DIR/static_${backend}_t4.txt" \
    || { echo "check.sh: $backend replay histogram differs between OMP_NUM_THREADS=1 and 4" >&2; exit 1; }
done
echo "check.sh: static-path replay smoke passed on all four backends (sample spans, thread-invariant histograms)."

# qutesd daemon smoke: boot the daemon on a private socket, issue a
# cold/warm request pair through the CLI client (the warm one must report a
# cache hit), then SIGTERM and require a graceful exit that unlinks the
# socket and writes a metrics snapshot showing the hit. Exercises the whole
# socket server / compile cache / batched scheduler stack under this build's
# instrumentation (under --asan/--ubsan this is the only place the daemon
# threads run). The socket lives in /tmp: sun_path caps at ~107 bytes and a
# deep build tree could overflow it.
QUTESD_SOCK="/tmp/qutesd_check_$$.sock"
QUTESD_METRICS="$BUILD_DIR/obs-smoke/qutesd_metrics.json"
"$BUILD_DIR"/tools/qutesd --socket "$QUTESD_SOCK" \
  --metrics-json "$QUTESD_METRICS" >/dev/null 2>&1 &
QUTESD_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$QUTESD_SOCK" ]] && break
  sleep 0.05
done
[[ -S "$QUTESD_SOCK" ]] || { echo "check.sh: qutesd did not come up" >&2; exit 1; }
COLD=$("$BUILD_DIR"/tools/qutes run examples/programs/ghz.qut \
  --connect "$QUTESD_SOCK" 2>&1 >/dev/null)
WARM=$("$BUILD_DIR"/tools/qutes run examples/programs/ghz.qut \
  --connect "$QUTESD_SOCK" 2>&1 >/dev/null)
grep -q 'cache miss' <<<"$COLD" || { echo "check.sh: expected a cold-cache miss, got: $COLD" >&2; exit 1; }
grep -q 'cache hit' <<<"$WARM" || { echo "check.sh: expected a warm-cache hit, got: $WARM" >&2; exit 1; }
kill -TERM "$QUTESD_PID"
wait "$QUTESD_PID" || { echo "check.sh: qutesd exited non-zero after SIGTERM" >&2; exit 1; }
[[ ! -e "$QUTESD_SOCK" ]] || { echo "check.sh: qutesd left its socket behind" >&2; exit 1; }
grep -q '"service.cache_hits": *1' "$QUTESD_METRICS" \
  || { echo "check.sh: qutesd metrics snapshot missing the cache hit" >&2; exit 1; }
echo "check.sh: qutesd daemon smoke passed (cold miss, warm hit, graceful drain)."

# Source-to-counts benchmark self-test (default mode only): builds perfbench/
# against src/ into .bench_build/ and runs its oracles, so a change that
# breaks the benchmark's build or its oracles fails here instead of in a
# benchmark run. The benchmark always builds its own Release tree, so the
# sanitizer and native modes would only repeat it. The verdict rule of
# scripts/bench_compare.py is plain Python and runs here with it.
if [[ -z "$SANITIZE" && "$NATIVE" == 0 ]]; then
  python3 perfbench/run.py --selftest
  echo "check.sh: perfbench self-test passed."
  python3 scripts/test_bench_compare.py
  echo "check.sh: bench_compare verdict checks passed."
fi

# Perf smoke: fused+reordered SIMD execution must beat the portable unfused
# path by a comfortable floor on a small brickwork circuit. Catches "the fast
# path silently fell back to scalar" regressions that correctness tests can't
# see. Skipped under sanitizers — instrumentation skews timings too much for
# a floor to be meaningful.
if [[ -z "$SANITIZE" ]]; then
  QUTES_PERF_SMOKE=1 "$BUILD_DIR"/bench/bench_simulator
  echo "check.sh: statevector perf smoke passed."
fi

echo
if [[ -n "$SANITIZE" ]]; then
  echo "check.sh: clean -fsanitize=$SANITIZE build and full test suite passed."
else
  echo "check.sh: clean -Werror build and full test suite passed."
fi
