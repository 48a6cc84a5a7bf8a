#!/usr/bin/env bash
# CI entry point: configure with warnings-as-errors, build, run the full
# test suite, the reproduction self-check, every figure bench on the reduced
# budget, and a tracer-overhead micro-bench smoke run.
#
# Usage: tools/ci.sh [build-dir]        full pipeline (default dir: build)
#        tools/ci.sh tsan [build-dir]   ThreadSanitizer build + threaded tests
#                                       (default dir: build-tsan)
#        tools/ci.sh asan [build-dir]   ASan+UBSan build + the full test suite
#                                       (default dir: build-asan)
#        tools/ci.sh bench [build-dir]  hot-path perf gate: rejuv-bench quick
#                                       mode vs bench/baseline.json (exit 3
#                                       on a >2x regression; default: build)
#        tools/ci.sh sweep [build-dir]  parallel-sweep determinism smoke: a
#                                       --threads=4 sweep's CSV must be
#                                       byte-identical to REJUV_SEQUENTIAL=1
#                                       (default dir: build)
#        tools/ci.sh specs [build-dir]  detector-schema gate: the registry's
#                                       describe() defaults for every family
#                                       (rejuv-monitor --list-detectors) must
#                                       be byte-identical to the committed
#                                       tests/golden/detector_specs.txt
#                                       (default dir: build)
#        tools/ci.sh fleet [build-dir]  fleet ingestion gate: the wire-protocol
#                                       and fleet-engine suites (1k-stream
#                                       smoke, text compatibility, 10k-stream
#                                       kill-and-resume bit-exactness), a CLI
#                                       fleet-mode smoke over a pipe, and the
#                                       ingestion benches vs bench/baseline.json
#                                       (default dir: build)
#        tools/ci.sh bank [build-dir]   SoA bank bit-identity gate: the bank
#                                       differential/fuzz/golden suites under
#                                       ASan+UBSan; the suites run both halves
#                                       of the kernel dispatch in-process
#                                       (intrinsics and force_scalar)
#                                       (default dir: build-bank)
set -euo pipefail

cd "$(dirname "$0")/.."

# The tsan stage builds separately (TSan cannot share objects with the plain
# build) and runs the test binaries that exercise real threads: the online
# monitor runtime, the observability registry, the work-stealing execution
# engine (exec_test plus the parallel-sweep harness tests), the cluster
# suite (whose strategy x budget sweep fans out over the shared pool), and
# the fleet engine (threaded shard workers, the journal writers' mutex and
# concurrent compaction).
if [ "${1:-}" = "tsan" ]; then
  BUILD_DIR="${2:-build-tsan}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> tsan configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" -DREJUV_TSAN=ON
  echo "==> tsan build (threaded test binaries)"
  cmake --build "$BUILD_DIR" -j --target monitor_test faults_test obs_test exec_test \
      harness_test property_test bank_differential_test bank_fuzz_test \
      cluster_test cluster_coordinator_test cluster_chaos_test fleet_test
  echo "==> tsan run"
  "$BUILD_DIR"/tests/monitor_test
  "$BUILD_DIR"/tests/faults_test
  "$BUILD_DIR"/tests/obs_test
  "$BUILD_DIR"/tests/exec_test
  "$BUILD_DIR"/tests/harness_test
  "$BUILD_DIR"/tests/property_test
  "$BUILD_DIR"/tests/bank_differential_test
  "$BUILD_DIR"/tests/bank_fuzz_test
  "$BUILD_DIR"/tests/cluster_test
  "$BUILD_DIR"/tests/cluster_coordinator_test
  "$BUILD_DIR"/tests/cluster_chaos_test
  "$BUILD_DIR"/tests/fleet_test
  echo "==> ci.sh tsan: all green"
  exit 0
fi

# The sweep stage is the end-to-end determinism gate for the parallel sweep
# engine: one multi-point, multi-replication sweep fanned out over four pool
# threads must produce a CSV byte-identical to the same sweep forced
# sequential. Any scheduling-dependent result — a racy merge, a stolen RNG
# stream, a reordered reduction — shows up here as a diff.
if [ "${1:-}" = "sweep" ]; then
  BUILD_DIR="${2:-build}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> sweep configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}"
  echo "==> sweep build"
  cmake --build "$BUILD_DIR" -j --target rejuv_sim_cli
  SWEEP_ARGS=('--detector=SARAA(n=2,K=5,D=3)' --loads=2,5,9 --txns=5000 --reps=3 --seed=20060625)
  echo "==> sweep run (--threads=4 vs REJUV_SEQUENTIAL=1)"
  "$BUILD_DIR"/tools/rejuv-sim "${SWEEP_ARGS[@]}" --threads=4 \
      --csv="$BUILD_DIR"/sweep_parallel.csv > /dev/null
  REJUV_SEQUENTIAL=1 "$BUILD_DIR"/tools/rejuv-sim "${SWEEP_ARGS[@]}" \
      --csv="$BUILD_DIR"/sweep_sequential.csv > /dev/null
  echo "==> sweep compare"
  cmp "$BUILD_DIR"/sweep_parallel.csv "$BUILD_DIR"/sweep_sequential.csv
  echo "==> ci.sh sweep: all green"
  exit 0
fi

# The specs stage pins the detector registry's public surface: every
# registered family's canonical defaults (describe() output), checkpoint tag
# and parameter docs, as printed by rejuv-monitor --list-detectors. Any
# schema drift — a renamed key, a changed default, a reordered family —
# shows up as a byte diff against the committed golden. Refresh with:
#   ./build/tools/rejuv-monitor --list-detectors > tests/golden/detector_specs.txt
if [ "${1:-}" = "specs" ]; then
  BUILD_DIR="${2:-build}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> specs configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}"
  echo "==> specs build"
  cmake --build "$BUILD_DIR" -j --target rejuv_monitor_cli
  echo "==> specs compare (describe() defaults vs tests/golden/detector_specs.txt)"
  "$BUILD_DIR"/tools/rejuv-monitor --list-detectors | cmp - tests/golden/detector_specs.txt
  echo "==> ci.sh specs: all green"
  exit 0
fi

# The bank stage is the SIMD bit-identity gate for the SoA detector banks
# (docs/BANKS.md): the differential and structure-fuzz suites plus the
# monitor trace golden run under ASan+UBSan. One build covers both kernel
# paths: the intrinsics are compiled in wherever the target supports them,
# and the suites compare them in-process against force_scalar() banks that
# run the portable loops. A lane-indexing bug, a masked-cascade divergence,
# or UB in an intrinsic path fails here before it can reach the perf numbers.
if [ "${1:-}" = "bank" ]; then
  BUILD_DIR="${2:-build-bank}"
  BANK_TESTS=(bank_differential_test bank_fuzz_test golden_bank_test)
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> bank configure (ASan+UBSan)"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" -DREJUV_SANITIZE=ON
  echo "==> bank build"
  cmake --build "$BUILD_DIR" -j --target "${BANK_TESTS[@]}"
  echo "==> bank run"
  for test in "${BANK_TESTS[@]}"; do
    "$BUILD_DIR"/tests/"$test"
  done
  echo "==> ci.sh bank: all green"
  exit 0
fi

# The fleet stage gates the fleet-scale ingestion path (docs/MONITORING.md):
# the wire-protocol decoder suite (framing, torn frames, fuzz, text
# auto-detect), the fleet engine suite (sequential-twin equivalence at 1k
# observations, legacy text clients, deterministic logical-time traces, the
# 10k-stream kill-and-resume bit-exactness check, journal compaction, and the
# EMFILE accept-backoff regression), a CLI fleet-mode smoke over a pipe, and
# the ingestion benches against the committed baseline so a wire-path or
# stream-table regression fails loudly.
if [ "${1:-}" = "fleet" ]; then
  BUILD_DIR="${2:-build}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> fleet configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}"
  echo "==> fleet build"
  cmake --build "$BUILD_DIR" -j --target wire_test fleet_test \
      rejuv_monitor_cli rejuv_bench_cli
  echo "==> fleet run (wire protocol + engine suites)"
  "$BUILD_DIR"/tests/wire_test
  "$BUILD_DIR"/tests/fleet_test
  echo "==> fleet CLI smoke (text lines over a pipe)"
  seq 1 2000 | "$BUILD_DIR"/tools/rejuv-monitor --fleet \
      --detector='SRAA(n=2,K=5,D=3)' --shards=2 > "$BUILD_DIR"/fleet_smoke.txt 2>&1
  grep -q 'processed=2000' "$BUILD_DIR"/fleet_smoke.txt
  echo "==> fleet ingestion benches + perf gate (quick mode, max-ratio 2.0)"
  "$BUILD_DIR"/tools/rejuv-bench --suite=ingestion --quick \
      --check=bench/baseline.json --max-ratio=2.0
  echo "==> ci.sh fleet: all green"
  exit 0
fi

# The bench stage is the perf regression gate: the full rejuv-bench suite in
# quick mode against the committed baseline. A benchmark more than 2x slower
# than bench/baseline.json fails the stage (exit 3 from rejuv-bench); new
# benchmarks without a baseline entry only warn. Refresh the baseline with:
#   ./build/tools/rejuv-bench --suite=all --quick --out=bench/baseline.json
if [ "${1:-}" = "bench" ]; then
  BUILD_DIR="${2:-build}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> bench configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}"
  echo "==> bench build"
  cmake --build "$BUILD_DIR" -j --target rejuv_bench_cli
  echo "==> bench run + perf gate (quick mode, max-ratio 2.0)"
  "$BUILD_DIR"/tools/rejuv-bench --suite=all --quick \
      --out="$BUILD_DIR"/BENCH.json --check=bench/baseline.json --max-ratio=2.0
  echo "==> ci.sh bench: all green"
  exit 0
fi

# The asan stage runs the ENTIRE test suite (including the chaos suite and
# the CLI smoke tests) under AddressSanitizer + UndefinedBehaviorSanitizer:
# fault-injection code paths — reconnects, torn checkpoint lines, partial
# reads — are exactly where lifetime bugs hide.
if [ "${1:-}" = "asan" ]; then
  BUILD_DIR="${2:-build-asan}"
  GENERATOR_ARGS=()
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    GENERATOR_ARGS=(-G Ninja)
  fi
  echo "==> asan configure"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" -DREJUV_SANITIZE=ON
  echo "==> asan build"
  cmake --build "$BUILD_DIR" -j
  echo "==> asan run (full test suite)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
  echo "==> ci.sh asan: all green"
  exit 0
fi

BUILD_DIR="${1:-build}"

# Pick a generator only on a fresh configure; an existing cache keeps its own
# (CMake refuses to switch generators in place).
GENERATOR_ARGS=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

echo "==> configure"
cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" -DREJUV_WERROR=ON

echo "==> build"
cmake --build "$BUILD_DIR" -j

echo "==> unit / integration tests"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "==> reproduction self-check"
"$BUILD_DIR"/bench/verify_reproduction > /dev/null

echo "==> figure benches (reduced budget)"
for bench in "$BUILD_DIR"/bench/*; do
  case "$(basename "$bench")" in
    micro_*) continue ;;  # google-benchmark binaries run below
  esac
  [ -x "$bench" ] || continue
  "$bench" > /dev/null
done

echo "==> tracer-overhead micro-bench smoke"
"$BUILD_DIR"/bench/micro_obs --benchmark_min_time=0.05 \
    --benchmark_filter='BM_(TracerEmit|EcommerceRun)' > /dev/null

echo "==> ci.sh: all green"
