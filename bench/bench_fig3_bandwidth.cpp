// Reproduces paper Figure 3: one-way bandwidth of blocking and non-blocking
// bulk transfers, 16 B .. 1 MB — six curves: sync store, sync get, MPL
// send/reply (blocking), pipelined async store, pipelined async get,
// pipelined MPL send.
#include "tables.hpp"

namespace spam::bench {

std::string fig3_bandwidth(Cell c) {
  // Figure data as a table: size, then the six curves.
  return fig3_table(figure3_sizes(), hw(c)).render() +
         "\nShape checks (paper): async >= sync below one chunk and equal "
         "above 8064 B;\nsync get trails sync store at small sizes; all "
         "curves converge to ~34-35 MB/s.\n";
}

}  // namespace spam::bench
