#!/usr/bin/env bash
# Regenerates every tests/golden/*.txt from a built tree (default: build).
#
#   tools/regen_golden.sh [BUILD_DIR]
#
# A golden changes only when a virtual result changes on purpose; name
# every regenerated file in CHANGES.md.  To add a golden, give it a case in
# tools/golden.sh and create its file once with
# `tools/golden.sh build NAME > tests/golden/NAME.txt`.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)

for f in "$root"/tests/golden/*.txt; do
  name=$(basename "$f" .txt)
  "$root/tools/golden.sh" "$build" "$name" > "$f.tmp"
  mv "$f.tmp" "$f"
  echo "regenerated tests/golden/$name.txt"
done
