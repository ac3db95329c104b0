#!/usr/bin/env bash
# Prints the deterministic output of one golden command: what
# tests/golden/NAME.txt pins byte for byte.
#
#   tools/golden.sh BUILD_DIR NAME
#
# NAME is a bench binary (bench_*), `spamsim` or one of the two 16K-key
# MPL small sorts (spamsim_sort_mpl_small_{radix,sample}_16k).  A bench
# prints only its rendered tables; each render opens with a blank line the
# goldens do not hold, so output is kept from the first "== " heading on.
# `spamsim` runs a fixed command list, each output preceded by its
# command line; with the two sorts it covers every subcommand and every
# choice of every option.  tools/regen_golden.sh rewrites the files; the
# Golden.* ctest cases diff against them.
set -euo pipefail

build=$1
name=$2

spamsim_commands() {
  cat <<'EOF'
rtt
rtt --words 2 --hw thin
rtt --words 4 --hw wide
raw-rtt
raw-rtt --hw wide
mpl-rtt
mpl-rtt --hw wide
bw --mode sync-store --bytes 8064
bw --mode sync-get --bytes 8064
bw --mode async-store --bytes 65536
bw --mode async-get --bytes 65536 --hw wide
bw --mode mpl-block --bytes 16384
bw --mode mpl-pipe
mpi-lat
mpi-lat --impl amunopt --bytes 1024 --nodes 8
mpi-lat --impl mpif --bytes 16 --hw wide
mpi-bw --impl amopt --bytes 8192
mpi-bw --impl mpif --hw wide --nodes 2
sort --backend am --keys 16384
sort --backend cm5 --kind radix --variant bulk --keys 8192
sort --backend cs2 --variant bulk --keys 8192 --nodes 4
sort --backend unet --kind sample --keys 8192
nas --kernel bt --n 16 --iters 1 --nodes 4
nas --kernel ft --impl mpif
nas --kernel lu --n 64 --impl amunopt --nodes 4
nas
nas --kernel mg --impl mpif --n 16 --nodes 8
nas --kernel sp --n 16 --iters 1
fault
fault --drop 0.08 --bytes 65536 --seed 3 --hw wide
fig3 --sizes quick --jobs 2
fig3 --sizes full
EOF
}

case "$name" in
  bench_*)
    "$build/bench/$name" | sed -n '/^== /,$p' ;;
  spamsim)
    while read -r cmd; do
      echo "\$ spamsim $cmd"
      # shellcheck disable=SC2086  # a command line splits into its words
      "$build/tools/spamsim" $cmd < /dev/null
    done < <(spamsim_commands) ;;
  spamsim_sort_mpl_small_radix_16k|spamsim_sort_mpl_small_sample_16k)
    kind=${name#spamsim_sort_mpl_small_}
    "$build/tools/spamsim" sort --backend mpl --variant small \
      --kind "${kind%_16k}" --keys 16384 ;;
  *) echo "golden.sh: unknown golden '$name'" >&2; exit 2 ;;
esac
