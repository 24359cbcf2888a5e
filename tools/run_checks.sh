#!/usr/bin/env bash
# Repo verification driver — the same gate CI runs (.github/workflows/ci.yml).
#
#   tools/run_checks.sh              configure (-Wall -Wextra -Werror),
#                                    build everything, run ctest, then lint
#   tools/run_checks.sh --sanitize   ASan+UBSan build of the whole tree and
#                                    a full ctest run under the sanitizers
#   tools/run_checks.sh --faults     SPECTRAL_FAULTS=ON build and the
#                                    fault-labeled ctest suite (ctest -L
#                                    faults): deterministic fault
#                                    injection, the degradation ladder,
#                                    snapshot crash-safety, and the
#                                    100%-fault serve smoke drills
#   tools/run_checks.sh --lint-only  banned-pattern source lint only (this
#                                    mode is registered as a ctest test, so
#                                    a plain ctest run also lints)
#   tools/run_checks.sh --help       this text
#
# Every phase is timed and a summary is printed at the end. The script
# verifies that the ctest run actually registered the lint target
# (lint_banned_patterns): a build dir configured without tests used to
# skip the lint silently — that is now a hard failure.
#
# ccache is picked up automatically when installed (CI caches it across
# runs). BUILD_DIR overrides the build directory.
#
# The CI bench gate is separate: tools/check_bench_regression.py runs
# the four gated benches (ordering, eigensolver, service, query) and
# diffs the bench_results/BENCH_*.json files against the committed
# baselines (see that script's --help and docs/benchmarks.md for the
# baseline update procedure).
#
# Exit status is non-zero on the first failing stage.

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  # Print the whole header comment (everything up to the first
  # non-comment line), stripped of the leading '# '.
  awk 'NR == 1 { next } /^#/ { sub(/^# ?/, ""); print; next } { exit }' "$0"
  exit 0
fi

phase_names=()
phase_secs=()
lint_ran=0

# run_phase <name> <cmd...>: times the phase, records it for the summary,
# and exits on failure (after printing the summary so partial timings are
# not lost).
run_phase() {
  local name="$1"
  shift
  echo "== ${name} =="
  local start
  start=$(date +%s)
  "$@"
  local status=$?
  local end
  end=$(date +%s)
  phase_names+=("${name}")
  phase_secs+=("$((end - start))")
  if [ "${status}" -ne 0 ]; then
    echo "run_checks: phase '${name}' failed (exit ${status})"
    print_summary
    exit "${status}"
  fi
}

print_summary() {
  echo ""
  echo "== phase timings =="
  local i
  for i in "${!phase_names[@]}"; do
    printf '  %-12s %4ss\n' "${phase_names[$i]}" "${phase_secs[$i]}"
  done
}

lint() {
  local failed=0

  # Build artifacts must never be included.
  if grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
       '#include "build/' src tests bench tools examples 2>/dev/null; then
    echo "FAIL: '#include \"build/...\"' found (see above)"
    failed=1
  fi

  # Headers must not inject namespaces into every includer.
  if grep -rn --include='*.h' 'using namespace std' src bench 2>/dev/null; then
    echo "FAIL: 'using namespace std' in a header (see above)"
    failed=1
  fi

  # Relative includes break the single src/ include root.
  if grep -rn --include='*.cc' --include='*.h' '#include "\.\./' \
       src tests bench tools examples 2>/dev/null; then
    echo "FAIL: relative '../' include found (see above)"
    failed=1
  fi

  # std::cout/cerr in the libraries (fine in benches/tools/examples).
  if grep -rln --include='*.cc' 'std::cout' src 2>/dev/null; then
    echo "FAIL: std::cout in library code (see above)"
    failed=1
  fi

  # Snapshot/state writes in the libraries must flow through the crash-safe
  # path in core/serialization.cc (tmp file + fsync + atomic rename) — a
  # raw ofstream can tear the file on a crash. util/csv_writer.h is the one
  # sanctioned stream writer (bench/tool CSV output, not durable state);
  # tests/bench/tools write scratch files freely.
  local ofstream_uses
  ofstream_uses="$(grep -rn --include='*.cc' --include='*.h' \
       'std::ofstream' src 2>/dev/null \
     | grep -v '^src/core/serialization\.cc:' \
     | grep -v '^src/util/csv_writer\.h:')"
  if [ -n "${ofstream_uses}" ]; then
    echo "${ofstream_uses}"
    echo "FAIL: raw std::ofstream in library code (see above); durable" \
         "state goes through core/serialization.cc's atomic save path"
    failed=1
  fi

  # Leftover seed-scaffolding markers: every layer is live now, so a
  # TODO(seed) means a migration was left half-done.
  if grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
       'TODO(seed)' src tests bench tools examples 2>/dev/null; then
    echo "FAIL: stale 'TODO(seed)' marker found (see above)"
    failed=1
  fi

  # Consumers must ask for orders through OrderingRequest / MappingService /
  # the OrderingEngine registry, never by driving SpectralMapper directly —
  # one way to ask for an order keeps batching and caching in the loop. The
  # unit tests of the mapper and of its direct adapters are grandfathered.
  local mapper_uses
  mapper_uses="$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
       'SpectralMapper' tests bench tools examples 2>/dev/null \
     | grep -v '^tests/spectral_lpm_test\.cc:' \
     | grep -v '^tests/multilevel_test\.cc:' \
     | grep -v '^tests/recursive_bisection_test\.cc:' \
     | grep -v '^tests/ordering_engine_test\.cc:')"
  if [ -n "${mapper_uses}" ]; then
    echo "${mapper_uses}"
    echo "FAIL: direct SpectralMapper use outside core/ (see above);" \
         "go through OrderingRequest + MakeOrderingEngine or MappingService"
    failed=1
  fi

  # Result text is for people and logs: library code branches on typed
  # fields (OrderingResult::cache, FiedlerResult::warm_started, ...), never
  # on a substring search of a `detail` or `method_used` string.
  if grep -rnE --include='*.cc' --include='*.h' \
       '\b(detail|method_used)\s*\.\s*(r?find|find_(first|last)_(not_)?of|starts_with|ends_with|contains|substr|compare)\s*\(' \
       src 2>/dev/null; then
    echo "FAIL: substring search of a detail/method_used string in src/" \
         "(see above); branch on a typed result field instead"
    failed=1
  fi

  # Build trees are never committed (.gitignore's /*build*/ covers them).
  # Skipped outside a git work tree, e.g. in an exported source archive.
  if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    local tracked_build
    tracked_build="$(git ls-files | grep -E '^[^/]*build[^/]*/' | head -5)"
    if [ -n "${tracked_build}" ]; then
      echo "${tracked_build}"
      echo "FAIL: files under a build directory are tracked by git (first" \
           "five above); git rm -r --cached the directory"
      failed=1
    fi
  fi

  if [ "${failed}" -ne 0 ]; then
    return 1
  fi
  lint_ran=1
  echo "lint: OK"
}

if [ "${1:-}" = "--lint-only" ]; then
  lint
  exit $?
fi

build_dir="${BUILD_DIR:-build-checks}"
configure_args=(-DSPECTRAL_WERROR=ON -DCMAKE_BUILD_TYPE=Release)
ctest_args=()
if [ "${1:-}" = "--sanitize" ]; then
  build_dir="${BUILD_DIR:-build-sanitize}"
  # RelWithDebInfo keeps the eigensolver fast enough for the suite while
  # ASan/UBSan reports still carry symbols and line numbers.
  configure_args=(-DSPECTRAL_WERROR=ON -DSPECTRAL_SANITIZE=ON
                  -DCMAKE_BUILD_TYPE=RelWithDebInfo)
fi
if [ "${1:-}" = "--faults" ]; then
  build_dir="${BUILD_DIR:-build-faults}"
  configure_args=(-DSPECTRAL_WERROR=ON -DSPECTRAL_FAULTS=ON
                  -DCMAKE_BUILD_TYPE=Release)
  # Only the fault-labeled suite: the full matrix already ran in the plain
  # build; this run exists to exercise the injected-failure paths (and the
  # serve_smoke_faults chaos drill, which only registers in this build).
  ctest_args=(-L faults)
fi
if command -v ccache >/dev/null 2>&1; then
  configure_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_phase "configure" cmake -B "${build_dir}" -S . "${configure_args[@]}"
run_phase "build" cmake --build "${build_dir}" -j "$(nproc)"

# Guard against a silently lint-less test run: the lint must be registered
# as a ctest target in this build dir (it vanishes when the dir was
# configured with SPECTRAL_BUILD_TESTS=OFF or predates the lint target).
if ! ctest --test-dir "${build_dir}" -N 2>/dev/null \
     | grep -q "lint_banned_patterns"; then
  echo "run_checks: lint_banned_patterns is not registered in" \
       "${build_dir} — the lint would be silently skipped. Reconfigure" \
       "with SPECTRAL_BUILD_TESTS=ON (the default)."
  print_summary
  exit 1
fi

run_phase "ctest" ctest --test-dir "${build_dir}" --output-on-failure \
  -j "$(nproc)" ${ctest_args[@]+"${ctest_args[@]}"}
run_phase "lint" lint

print_summary
if [ "${lint_ran}" -ne 1 ]; then
  echo "run_checks: lint never ran — failing"
  exit 1
fi
echo "run_checks: all stages passed"
