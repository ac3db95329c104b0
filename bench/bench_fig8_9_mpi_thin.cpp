// Reproduces paper Figures 8 and 9: MPI point-to-point per-hop latency
// (4-node ring) and bandwidth on thin SP nodes, four curves each:
// raw am_store, unoptimized MPI-AM, optimized MPI-AM, and MPI-F.
#include "tables.hpp"

namespace spam::bench {

std::string fig8_9_mpi_thin(Cell c) {
  return mpi_figures(
      hw(c), mpif::MpiFConfig::thin(),
      "Figure 8 — MPI per-hop latency on thin nodes (us)",
      "Figure 9 — MPI point-to-point bandwidth on thin nodes (MB/s)",
      "\nShape checks (paper, thin nodes): optimized MPI-AM achieves lower "
      "small-message\nlatency than MPI-F and beats it by 10-30% at 8-20 KB; "
      "MPI-F dips after its 4 KB\nprotocol switch; all ride below the raw "
      "am_store curve.\n");
}

}  // namespace spam::bench
