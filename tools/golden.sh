#!/usr/bin/env bash
# Prints the deterministic output of one golden command: what
# tests/golden/NAME.txt pins byte for byte.
#
#   tools/golden.sh BUILD_DIR NAME
#
# Bench binaries print google-benchmark's console rows first; those carry
# host CPU time, so only the rendered tables from the first "== " heading
# on are kept.  tools/regen_golden.sh rewrites the files; the Golden.*
# ctest cases diff against them.
set -euo pipefail

build=$1
name=$2

sort16k() {
  "$build/tools/spamsim" sort --backend mpl --variant small --kind "$1" \
    --keys 16384
}

case "$name" in
  bench_table5_splitc)
    "$build/bench/bench_table5_splitc" | sed -n '/^== /,$p' ;;
  spamsim_sort_mpl_small_radix_16k) sort16k radix ;;
  spamsim_sort_mpl_small_sample_16k) sort16k sample ;;
  *) echo "golden.sh: unknown golden '$name'" >&2; exit 2 ;;
esac
