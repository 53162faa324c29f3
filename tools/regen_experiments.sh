#!/usr/bin/env bash
# Regenerates every artifact EXPERIMENTS.md reports: builds, runs the full
# test suite and all benchmark binaries, teeing outputs to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G: build/ keeps whichever generator first configured it.
cmake -B build
cmake --build build --parallel "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

run() {
  echo "===== $(basename "$1")${2:+ ${*:2}} ====="
  "$@"
  echo
}

{
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    case "$(basename "$b")" in
    # bench_detect has no default mode: run each of its modes.
    bench_detect)
      run "$b" --suite
      run "$b" --reduction
      ;;
    *) run "$b" ;;
    esac
  done
} 2>&1 | tee bench_output.txt
