#!/usr/bin/env bash
# The repo gate: lint, build, and test across every analysis configuration.
#
#   tools/check.sh            # run everything available on this host
#   JOBS=4 tools/check.sh     # cap build/test parallelism
#   SPAM_CHECK_SKIP="asan ubsan" tools/check.sh   # skip named stages
#
# Stages (in order):
#   lint           spam_lint over src/ bench/ tools/ with the audited
#                  allowlist — determinism, hot-path, fiber, header rules
#                  and the cross-TU transitive passes (artifacts under
#                  build-rwdi/lint/); stale allowlist entries are errors,
#                  and the full-tree run must finish inside a 2 s budget
#   lint-self      spam_lint over its own sources, plus a standalone
#                  -fsyntax-only compile of each tool header (the tool is
#                  not covered by the src/ header-hygiene object library)
#   build          default (RelWithDebInfo) build with warnings as errors
#                  + full ctest suite, which holds the virtual-time
#                  anchors, zero steady-state allocation, mode identity and
#                  every paper output
#                  (SteadyState.*, *ModeEquivalence.*, Golden.*, Example.*)
#   perfbench      builds the separate host-time benchmark package
#                  (.bench_build/perfbench) against the current src/, runs
#                  a 1 s am_micro pass (checks both anchors and every
#                  pass's outputs), every workload traced at seed 1 against
#                  the exact counters in tools/perf_counters.txt, and its
#                  C++ and Python unit tests
#   asan           -fsanitize=address build, asserts on + full suite
#   ubsan          -fsanitize=undefined (no recovery) build, asserts on +
#                  full suite
#   tsan           ThreadSanitizer build + the `driver` label tests
#   ucontext       -DSPAM_SIM_FORCE_UCONTEXT build + full test suite: the
#                  portable fiber switch non-x86-64 hosts use, which shares
#                  the fiber-to-fiber handoff with the asm path
#   thread-safety  Clang -Werror=thread-safety build (skipped when clang++
#                  is not installed)
#   clang-tidy     .clang-tidy over src/ and tools/ (skipped when
#                  clang-tidy is not installed)
#
# Toolchain-gated stages *skip with a notice* rather than fail so the gate
# is runnable on a gcc-only box; CI images with clang get full coverage.
# Any stage that runs and fails aborts the script with a nonzero exit.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
SKIP=" ${SPAM_CHECK_SKIP:-} "

note() { printf '\n==> %s\n' "$*"; }

skipped() {
  case "$SKIP" in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

run_preset_suite() {  # <preset> [ctest-preset] [configure args...]
  local preset="$1" test_preset="${2:-$1}"
  cmake --preset "$preset" "${@:3}" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$test_preset" -j "$JOBS"
}

if ! skipped lint; then
  note "spam_lint (per-file rules + call graph)"
  cmake --preset relwithdebinfo >/dev/null
  cmake --build --preset relwithdebinfo -j "$JOBS" --target spam_lint
  LINT=./build-rwdi/tools/spam_lint/spam_lint
  LINT_OUT=build-rwdi/lint
  mkdir -p "$LINT_OUT"
  # Machine-readable artifacts first (|| true: they must exist for CI
  # upload even when the gating run below fails).
  "$LINT" --root . --format=sarif src bench tools \
    > "$LINT_OUT/spam_lint.sarif" 2>/dev/null || true
  "$LINT" --root . --format=json src bench tools \
    > "$LINT_OUT/spam_lint.json" 2>/dev/null || true
  # The gating run: violations and stale allowlist entries both fail, and
  # the whole-tree walk (lex + rules + call graph) must stay under the 2 s
  # latency budget that keeps the lint viable as a pre-commit hook.
  start_ms=$(date +%s%3N)
  "$LINT" --root . --stale=error src bench tools
  lint_ms=$(( $(date +%s%3N) - start_ms ))
  if [ "$lint_ms" -ge 2000 ]; then
    echo "lint gate: full-tree spam_lint took ${lint_ms} ms (budget 2000 ms)"
    exit 1
  fi
  echo "spam_lint: full tree in ${lint_ms} ms (budget 2000 ms)"
fi

if ! skipped lint-self; then
  note "spam_lint self-lint + tool header hygiene"
  # The linter holds itself to its own rules (hdr-* apply to every header;
  # the analyzer passes run over its sources like any others)...
  # (--no-default-allowlist: the audited exceptions are all src/-side, and
  # a subtree run would report every one of them stale)
  ./build-rwdi/tools/spam_lint/spam_lint --root . --no-default-allowlist \
    tools/spam_lint
  # ...and each tool header must compile standalone — the src/ hygiene
  # object library in tests/ does not cover tools/.
  for hdr in tools/spam_lint/*.hpp; do
    tu="$(mktemp --suffix=.cpp)"
    printf '#include "%s"\n#include "%s"\n' "$PWD/$hdr" "$PWD/$hdr" > "$tu"
    c++ -std=c++20 -fsyntax-only -I tools/spam_lint "$tu" ||
      { echo "lint-self: $hdr is not self-contained"; rm -f "$tu"; exit 1; }
    rm -f "$tu"
  done
fi

if ! skipped build; then
  note "default build (warnings are errors) + full test suite"
  run_preset_suite relwithdebinfo relwithdebinfo \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
fi

if ! skipped perfbench; then
  note "perfbench am_micro smoke, exact counters + the benchmark's own tests"
  # Nothing else builds the perfbench package, so this stage is what keeps
  # a src/ API change from silently breaking the benchmark.  run.py exits
  # nonzero when any operation fails verification.
  python3 perfbench/run.py --workload am_micro --seed 1 --seconds 1 --trace 0
  # Events, wakes, pool growth and packets are exact: any difference from
  # the committed values fails until the change updates the file.
  python3 tools/check_perf_counters.py
  cmake --build .bench_build/perfbench -j "$JOBS" --target perfbench_tests
  ./.bench_build/perfbench/perfbench_tests
  python3 -m unittest discover -s perfbench -p 'test_*.py'
fi

if ! skipped asan; then
  note "AddressSanitizer build + full test suite"
  run_preset_suite asan
fi

if ! skipped ubsan; then
  note "UndefinedBehaviorSanitizer build + full test suite"
  run_preset_suite ubsan
fi

if ! skipped tsan; then
  note "ThreadSanitizer build + driver tests"
  run_preset_suite tsan tsan-driver
fi

if ! skipped ucontext; then
  note "ucontext fiber switch build + full test suite"
  run_preset_suite ucontext
fi

if ! skipped thread-safety; then
  if command -v clang++ >/dev/null 2>&1; then
    note "Clang -Werror=thread-safety build"
    cmake --preset thread-safety >/dev/null
    cmake --build --preset thread-safety -j "$JOBS"
  else
    note "thread-safety: clang++ not installed, skipping"
  fi
fi

if ! skipped clang-tidy; then
  if command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy over src/ and tools/"
    cmake --preset relwithdebinfo -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      >/dev/null
    find src tools -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$JOBS" clang-tidy -p build-rwdi --quiet
  else
    note "clang-tidy: not installed, skipping"
  fi
fi

note "all checks passed"
