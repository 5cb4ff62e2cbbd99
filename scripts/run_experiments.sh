#!/usr/bin/env bash
# Reproduce everything: configure, build, run the full test suite, and
# regenerate every experiment table (E1..E17, EXPERIMENTS.md). Outputs land
# in test_output.txt and bench_output.txt at the repository root, and the
# machine-readable records in the BENCH_*.json files listed at the end.
#
# Every bench binary runs with OMP_NUM_THREADS=1, the OpenMP team perfbench
# and the perf smoke use, so each BENCH_*.json row means the same thing from
# one regeneration to the next (the fused/unfused ratios move with the team).
#
# Pass --sanitizers to also run the quick differential smoke suite under
# ASan and UBSan (scripts/check.sh --asan/--ubsan --quick); the verdicts
# land in sanitizer_output.txt and are echoed in the final report.
#
# Pass --stabilizer to regenerate only the E15 stabilizer-backend tables
# (bench_stabilizer -> BENCH_stab.json) without rerunning the full suite.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_SANITIZERS=0
STABILIZER_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --sanitizers) RUN_SANITIZERS=1 ;;
    --stabilizer) STABILIZER_ONLY=1 ;;
    *) echo "usage: $0 [--sanitizers] [--stabilizer]" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

collect_stab_json() {
  # Collect the BENCH_JSON_STAB lines (one object per Clifford workload x
  # width, plus the dense-vs-stabilizer crossover rows, emitted by
  # bench_stabilizer) into a single JSON array.
  {
    echo '['
    { grep -h '^BENCH_JSON_STAB ' "$1" || true; } | sed 's/^BENCH_JSON_STAB //' | paste -sd, -
    echo ']'
  } > BENCH_stab.json
  echo "Stabilizer backend results recorded in BENCH_stab.json:"
  grep -o '"workload":"[a-z_]*","qubits":[0-9]*' BENCH_stab.json | sort -u | paste - - - - || true
}

if [[ "$STABILIZER_ONLY" == 1 ]]; then
  OMP_NUM_THREADS=1 build/bench/bench_stabilizer 2>&1 | tee bench_stab_output.txt
  collect_stab_json bench_stab_output.txt
  echo "Done. See bench_stab_output.txt and BENCH_stab.json."
  exit 0
fi

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/bench_*; do
  echo "===== $b =====" | tee -a bench_output.txt
  OMP_NUM_THREADS=1 "$b" 2>&1 | tee -a bench_output.txt
done

# Collect the BENCH_JSON lines (one object per fusion workload, emitted by
# bench_simulator and bench_grover) into a single JSON array.
{
  echo '['
  { grep -h '^BENCH_JSON ' bench_output.txt || true; } | sed 's/^BENCH_JSON //' | paste -sd, -
  echo ']'
} > BENCH_fusion.json
echo "Fusion speedups recorded in BENCH_fusion.json:"
grep -o '"qubits":[0-9]*\|"speedup":[0-9.]*' BENCH_fusion.json | paste - - || true

# Collect the BENCH_JSON_TRANSPILE lines (one object per workload x preset,
# with the per-pass timing breakdown, emitted by bench_transpiler and
# bench_compiler) into a single JSON array.
{
  echo '['
  { grep -h '^BENCH_JSON_TRANSPILE ' bench_output.txt || true; } | sed 's/^BENCH_JSON_TRANSPILE //' | paste -sd, -
  echo ']'
} > BENCH_transpile.json
echo "Pipeline preset results recorded in BENCH_transpile.json:"
grep -o '"workload":"[a-z0-9]*","qubits":[0-9]*,"preset":"[a-z01A-Z]*"' BENCH_transpile.json || true

# Collect the BENCH_JSON_MPS lines (one object per workload x width x bond
# cap, plus the dense-vs-MPS crossover rows, emitted by bench_mps) into a
# single JSON array.
{
  echo '['
  { grep -h '^BENCH_JSON_MPS ' bench_output.txt || true; } | sed 's/^BENCH_JSON_MPS //' | paste -sd, -
  echo ']'
} > BENCH_mps.json
echo "MPS backend results recorded in BENCH_mps.json:"
grep -o '"workload":"[a-z]*","qubits":[0-9]*' BENCH_mps.json | sort -u | paste - - - - || true

collect_stab_json bench_output.txt

# Collect the BENCH_JSON_OBS lines (one metric-registry snapshot per
# executor workload, emitted by bench_simulator, bench_mps, and
# bench_stabilizer with metrics enabled; same names as the CLI's
# --metrics-json) into a single JSON array.
{
  echo '['
  { grep -h '^BENCH_JSON_OBS ' bench_output.txt || true; } | sed 's/^BENCH_JSON_OBS //' | paste -sd, -
  echo ']'
} > BENCH_obs.json
echo "Observability snapshots recorded in BENCH_obs.json:"
grep -o '"bench":"[a-z]*","workload":"[a-z]*","qubits":[0-9]*' BENCH_obs.json || true

# Collect the BENCH_JSON_LANG lines (one object per classical-heavy language
# workload: lowering cost, per-engine execute cost, VM-vs-tree-walk speedup,
# and the artifact-cache-hit cost, emitted by bench_lang) into a single JSON
# array.
{
  echo '['
  { grep -h '^BENCH_JSON_LANG ' bench_output.txt || true; } | sed 's/^BENCH_JSON_LANG //' | paste -sd, -
  echo ']'
} > BENCH_lang.json
echo "Language-engine results recorded in BENCH_lang.json:"
grep -o '"workload":"[a-z_]*"\|"speedup":[0-9.]*' BENCH_lang.json | paste - - || true

# Collect the BENCH_JSON_QUTESD lines (cold-vs-warm request latency,
# warm-cache throughput, and batched-vs-sequential shot-request rows,
# emitted by bench_qutesd) into a single JSON array.
{
  echo '['
  { grep -h '^BENCH_JSON_QUTESD ' bench_output.txt || true; } | sed 's/^BENCH_JSON_QUTESD //' | paste -sd, -
  echo ']'
} > BENCH_qutesd.json
echo "qutesd service results recorded in BENCH_qutesd.json:"
grep -o '"mode":"[a-z]*","workload":"[a-z0-9_]*"\|"speedup":[0-9.]*' BENCH_qutesd.json | paste - - || true

# Collect the BENCH_JSON_VARIATIONAL lines (optimizer-convergence rows,
# the batched-bind-vs-sequential comparison, and the one-compile parameter
# sweep through qutesd, emitted by bench_variational) into a single JSON
# array.
{
  echo '['
  { grep -h '^BENCH_JSON_VARIATIONAL ' bench_output.txt || true; } | sed 's/^BENCH_JSON_VARIATIONAL //' | paste -sd, -
  echo ']'
} > BENCH_variational.json
echo "Variational results recorded in BENCH_variational.json:"
grep -o '"mode":"[a-z_]*"\|"problem":"[a-z0-9_]*"\|"compiles":[0-9]*' BENCH_variational.json | paste - - || true

if [[ "$RUN_SANITIZERS" == 1 ]]; then
  : > sanitizer_output.txt
  for mode in asan ubsan; do
    echo "===== check.sh --$mode --quick =====" | tee -a sanitizer_output.txt
    if scripts/check.sh --"$mode" --quick >> sanitizer_output.txt 2>&1; then
      echo "SANITIZER $mode: PASS" | tee -a sanitizer_output.txt
    else
      echo "SANITIZER $mode: FAIL (see sanitizer_output.txt)" | tee -a sanitizer_output.txt
      exit 1
    fi
  done
fi

echo
echo "Done. See test_output.txt, bench_output.txt, BENCH_fusion.json, BENCH_transpile.json, BENCH_mps.json, BENCH_stab.json, BENCH_obs.json, BENCH_lang.json, BENCH_qutesd.json, and BENCH_variational.json."
if [[ "$RUN_SANITIZERS" == 1 ]]; then
  echo "Sanitizer verdicts:"
  grep '^SANITIZER ' sanitizer_output.txt
fi
