// Reproduces paper Figures 10 and 11: MPI per-hop latency and bandwidth on
// wide SP nodes.  MPI-F was tuned on wide nodes, so here it wins on very
// small messages (< ~100 B) while the optimized MPI-AM takes over above.
#include "tables.hpp"

namespace spam::bench {

std::string fig10_11_mpi_wide(Cell c) {
  return mpi_figures(
      hw(c, /*wide_nodes=*/true), mpif::MpiFConfig::wide(),
      "Figure 10 — MPI per-hop latency on wide nodes (us)",
      "Figure 11 — MPI point-to-point bandwidth on wide nodes (MB/s)",
      "\nShape checks (paper, wide nodes): MPI-F is faster below ~100 B "
      "(it was tuned\nhere) but slower for larger messages; the MPI-F 4 KB "
      "discontinuity persists;\nMPI-AM's hybrid stays smooth.\n");
}

}  // namespace spam::bench
