#!/usr/bin/env bash
# Pre-merge check matrix for the HNS tree. Runs every correctness gate the
# local toolchain supports and prints a PASS/FAIL/SKIP summary:
#
#   default      build + full ctest (the tier-1 gate)
#   asan-ubsan   full ctest under -DHCS_SANITIZE=address,undefined
#   tsan         `ctest -L concurrency` under -DHCS_SANITIZE=thread
#   annotations  clang build with -DHCS_THREAD_SAFETY=ON (-Werror=thread-safety)
#   clang-tidy   .clang-tidy over src/ via the default compile database
#   lint-wire    tools/lint_wire.py encode/decode symmetry
#   lint-failpaths   tools/lint_failpaths.py error-discipline lint + self-test
#   lint-views   tools/lint_views.py view-escape lint + self-test
#   lint-loop    tools/lint_loop.py loop-affinity lint + self-test
#   views-asan   view_lifetime_test + fuzz_test under the asan-ubsan build:
#                the poisoned debug arena and generation stamps made fatal
#                (HCS_SANITIZE compiles them in)
#   decode-sweep-asan  decode_sweep_test alone under the asan-ubsan build:
#                the truncation/bit-flip sweep with over-reads made fatal
#   chaos-asan   `ctest -L chaos` under the asan-ubsan build: the seeded
#                fault-injection scenarios with memory errors made fatal
#   workload-asan  `ctest -L workload` under the asan-ubsan build at three
#                fixed seeds, HCS_WORKLOAD_POPULATION scaled to sanitizer
#                speed: the million-client engine's determinism claims with
#                memory errors made fatal
#   chaos-tsan   `ctest -L chaos` under the tsan build
#   async-tsan   async_client_test under the tsan build: the reactor-driven
#                client engine's loop thread, future completion,
#                pipelining, and reap races
#   bench-smoke  tools/bench_snapshot.py --check over every checked-in
#                BENCH_*.json: schema + embedded trajectory floors (no
#                re-measurement; also runs as the bench_smoke ctest)
#
# Configurations whose toolchain is missing (no clang++, no clang-tidy) are
# SKIPped, not failed: the container bakes in GCC only; the clang gates run
# where clang exists (developer machines, CI images with clang).
#
# Usage: tools/check.sh [build-root]   (default: <repo>/check-builds)
#        tools/check.sh --lints        (quick mode: the four static lints and
#                                       their self-tests only — no compiles)

set -u

REPO="$(cd "$(dirname "$0")/.." && pwd)"
LINTS_ONLY=0
if [[ "${1:-}" == "--lints" ]]; then
  LINTS_ONLY=1
  shift
fi
BUILD_ROOT="${1:-${REPO}/check-builds}"
JOBS="$(nproc 2>/dev/null || echo 4)"

declare -a NAMES RESULTS
note() { printf '\n=== check.sh: %s ===\n' "$*"; }
record() { NAMES+=("$1"); RESULTS+=("$2"); }

run_lints() {
  # 6. Wire encode/decode symmetry lint (also runs as the lint_wire ctest).
  note "lint-wire: tools/lint_wire.py"
  if python3 "${REPO}/tools/lint_wire.py" "${REPO}"; then
    record lint-wire PASS
  else
    record lint-wire FAIL
  fi

  # 7. Failure-path discipline lint: tagged discards, decode-before-ok, RPC
  # handlers that swallow errors. The self-test proves every rule still fires.
  note "lint-failpaths: tools/lint_failpaths.py (+ --self-test)"
  if python3 "${REPO}/tools/lint_failpaths.py" --self-test &&
     python3 "${REPO}/tools/lint_failpaths.py" "${REPO}"; then
    record lint-failpaths PASS
  else
    record lint-failpaths FAIL
  fi

  # 7b. View-escape discipline lint: untagged view members, lambda escapes,
  # returns of locally-backed views, views used across an arena recycle. The
  # self-test proves every rule still fires.
  note "lint-views: tools/lint_views.py (+ --self-test)"
  if python3 "${REPO}/tools/lint_views.py" --self-test &&
     python3 "${REPO}/tools/lint_views.py" "${REPO}"; then
    record lint-views PASS
  else
    record lint-views FAIL
  fi

  # 7c. Loop-affinity discipline lint: loop-only functions called off the
  # loop thread, blocking waits inside loop bodies and posted callbacks,
  # completions invoked under a lock or mid-iteration, empty on-loop
  # reasons. The self-test seeds every rule — including reduced
  # reproductions of the PR 8 review bugs — and checks it fires.
  note "lint-loop: tools/lint_loop.py (+ --self-test)"
  if python3 "${REPO}/tools/lint_loop.py" --self-test &&
     python3 "${REPO}/tools/lint_loop.py" "${REPO}"; then
    record lint-loop PASS
  else
    record lint-loop FAIL
  fi
}

print_summary() {
  printf '\n=== check.sh summary ===\n'
  local failed=0
  for i in "${!NAMES[@]}"; do
    printf '  %-14s %s\n' "${NAMES[$i]}" "${RESULTS[$i]}"
    [[ "${RESULTS[$i]}" == FAIL ]] && failed=1
  done
  exit "${failed}"
}

if [[ ${LINTS_ONLY} -eq 1 ]]; then
  run_lints
  print_summary
fi

configure_build_test() {
  # configure_build_test <name> <src-flags...> -- <ctest-args...>
  local name="$1"; shift
  local -a cmake_flags=() ctest_args=()
  local seen_sep=0
  for arg in "$@"; do
    if [[ "${arg}" == "--" ]]; then seen_sep=1; continue; fi
    if [[ ${seen_sep} -eq 0 ]]; then cmake_flags+=("${arg}"); else ctest_args+=("${arg}"); fi
  done
  local dir="${BUILD_ROOT}/${name}"
  note "${name}: configure + build"
  if ! cmake -B "${dir}" -S "${REPO}" "${cmake_flags[@]}"; then
    record "${name}" FAIL; return 1
  fi
  if ! cmake --build "${dir}" -j "${JOBS}"; then
    record "${name}" FAIL; return 1
  fi
  note "${name}: ctest ${ctest_args[*]-}"
  if ! (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" "${ctest_args[@]}"); then
    record "${name}" FAIL; return 1
  fi
  record "${name}" PASS
}

# 1. Default build, full test suite (the tier-1 gate).
configure_build_test default --

# 2. ASan + UBSan, full suite, failures fatal (-fno-sanitize-recover=all).
configure_build_test asan-ubsan -DHCS_SANITIZE=address,undefined --

# 3. TSan over the multi-threaded / real-socket tests.
configure_build_test tsan -DHCS_SANITIZE=thread -- -L concurrency

# 4. Clang thread-safety annotations as errors (build-only gate).
if command -v clang++ >/dev/null 2>&1; then
  dir="${BUILD_ROOT}/thread-safety"
  note "annotations: clang++ -Werror=thread-safety"
  if cmake -B "${dir}" -S "${REPO}" -DCMAKE_CXX_COMPILER=clang++ \
        -DHCS_THREAD_SAFETY=ON &&
     cmake --build "${dir}" -j "${JOBS}"; then
    record annotations PASS
  else
    record annotations FAIL
  fi
else
  note "annotations: SKIP (no clang++ on PATH)"
  record annotations SKIP
fi

# 5. clang-tidy over src/, driven by the default build's compile database.
if command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy: src/ against .clang-tidy"
  cmake -B "${BUILD_ROOT}/default" -S "${REPO}" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t tidy_sources < <(find "${REPO}/src" -name '*.cc' | sort)
  if clang-tidy -p "${BUILD_ROOT}/default" --quiet "${tidy_sources[@]}"; then
    record clang-tidy PASS
  else
    record clang-tidy FAIL
  fi
else
  note "clang-tidy: SKIP (not on PATH)"
  record clang-tidy SKIP
fi

# 6–7c. The four static lints and their self-tests (shared with --lints mode).
run_lints

# 7c. The runtime half of the view-lifetime gate: under the asan-ubsan build
# (which compiles in HCS_DEBUG_ARENA/HCS_DEBUG_VIEW) the arena poisons
# recycled spans and generation-stamped views abort on stale access, so the
# death tests and the poisoned-arena fuzz leg run with real teeth.
if [[ -x "${BUILD_ROOT}/asan-ubsan/tests/view_lifetime_test" ]]; then
  note "views-asan: view_lifetime_test + fuzz_test under address,undefined"
  if (cd "${BUILD_ROOT}/asan-ubsan" &&
      ctest --output-on-failure -R '^(view_lifetime_test|fuzz_test)$'); then
    record views-asan PASS
  else
    record views-asan FAIL
  fi
else
  note "views-asan: SKIP (asan-ubsan build unavailable)"
  record views-asan SKIP
fi

# 8. The decoder truncation/bit-flip sweep, isolated under ASan+UBSan so a
# one-byte over-read in any Decode path is fatal, not merely undetected.
# Reuses the asan-ubsan build from step 2 when it exists.
if [[ -x "${BUILD_ROOT}/asan-ubsan/tests/decode_sweep_test" ]]; then
  note "decode-sweep-asan: decode_sweep_test under address,undefined"
  if (cd "${BUILD_ROOT}/asan-ubsan" &&
      ctest --output-on-failure -R '^decode_sweep_test$'); then
    record decode-sweep-asan PASS
  else
    record decode-sweep-asan FAIL
  fi
else
  note "decode-sweep-asan: SKIP (asan-ubsan build unavailable)"
  record decode-sweep-asan SKIP
fi

# 9. The seeded chaos scenarios, isolated under ASan+UBSan: injected drops,
# duplicates, reordering, corruption, and partitions with memory errors
# fatal. Reuses the asan-ubsan build from step 2 when it exists.
if [[ -x "${BUILD_ROOT}/asan-ubsan/tests/chaos_test" ]]; then
  note "chaos-asan: ctest -L chaos under address,undefined"
  if (cd "${BUILD_ROOT}/asan-ubsan" && ctest --output-on-failure -L chaos); then
    record chaos-asan PASS
  else
    record chaos-asan FAIL
  fi
else
  note "chaos-asan: SKIP (asan-ubsan build unavailable)"
  record chaos-asan SKIP
fi

# 9b. The workload scenario suite under ASan+UBSan at several fixed seeds:
# the million-client engine's determinism claims (same-seed fingerprints,
# trace replay) re-checked with memory errors fatal. HCS_WORKLOAD_POPULATION
# scales the tentpole scenario to sanitizer speed; the seeds are fixed so a
# failure names its replay command.
if [[ -x "${BUILD_ROOT}/asan-ubsan/tests/workload_test" ]]; then
  note "workload-asan: ctest -L workload under address,undefined (3 seeds)"
  workload_ok=1
  for seed in 0x5eedf00d 0x0ddba11 0xc0ffee42; do
    note "workload-asan: HCS_WORKLOAD_SEED=${seed}"
    if ! (cd "${BUILD_ROOT}/asan-ubsan" &&
          HCS_WORKLOAD_SEED="${seed}" HCS_WORKLOAD_POPULATION=100000 \
          ctest --output-on-failure -L workload); then
      workload_ok=0
    fi
  done
  if [[ ${workload_ok} -eq 1 ]]; then
    record workload-asan PASS
  else
    record workload-asan FAIL
  fi
else
  note "workload-asan: SKIP (asan-ubsan build unavailable)"
  record workload-asan SKIP
fi

# 10. The same scenarios under TSan: the injector's serve-side hooks run on
# reactor workers, and the decision/trace state is shared across every
# calling thread.
if [[ -x "${BUILD_ROOT}/tsan/tests/chaos_test" ]]; then
  note "chaos-tsan: ctest -L chaos under thread"
  if (cd "${BUILD_ROOT}/tsan" && ctest --output-on-failure -L chaos); then
    record chaos-tsan PASS
  else
    record chaos-tsan FAIL
  fi
else
  note "chaos-tsan: SKIP (tsan build unavailable)"
  record chaos-tsan SKIP
fi

# 11. The async client core under TSan: the engine's loop thread completes
# futures that calling threads wait on, the chaos scenarios pipeline ≥8
# calls through it, and the reap timer races new assignments. Reuses the
# tsan build from step 3 when it exists.
if [[ -x "${BUILD_ROOT}/tsan/tests/async_client_test" ]]; then
  note "async-tsan: async_client_test under thread"
  if (cd "${BUILD_ROOT}/tsan" &&
      ctest --output-on-failure -R '^async_client_test$'); then
    record async-tsan PASS
  else
    record async-tsan FAIL
  fi
else
  note "async-tsan: SKIP (tsan build unavailable)"
  record async-tsan SKIP
fi

# 12. Perf-trajectory snapshots: every BENCH_*.json must parse, match the
# schema, and clear the acceptance floors it records against the prior PR's
# numbers. Pure validation — CI boxes are not benchmarks; regenerate
# snapshots with tools/bench_snapshot.py --run on a quiet machine.
note "bench-smoke: tools/bench_snapshot.py --check"
if (cd "${REPO}" && python3 tools/bench_snapshot.py --check); then
  record bench-smoke PASS
else
  record bench-smoke FAIL
fi

print_summary
