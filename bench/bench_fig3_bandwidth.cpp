// Reproduces paper Figure 3: one-way bandwidth of blocking and non-blocking
// bulk transfers, 16 B .. 1 MB — six curves: sync store, sync get, MPL
// send/reply (blocking), pipelined async store, pipelined async get,
// pipelined MPL send.
#include "harness.hpp"
#include "micro.hpp"

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  return spam::bench::run_tables([] {
    // Figure data as a table: size, then the six curves.
    return spam::bench::fig3_table(spam::bench::figure3_sizes()).render() +
           "\nShape checks (paper): async >= sync below one chunk and equal "
           "above 8064 B;\nsync get trails sync store at small sizes; all "
           "curves converge to ~34-35 MB/s.\n";
  });
}
