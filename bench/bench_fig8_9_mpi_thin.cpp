// Reproduces paper Figures 8 and 9: MPI point-to-point per-hop latency
// (4-node ring) and bandwidth on thin SP nodes, four curves each:
// raw am_store, unoptimized MPI-AM, optimized MPI-AM, and MPI-F.
#include "harness.hpp"

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  return spam::bench::run_tables([] {
    return spam::bench::mpi_figures(
        spam::sphw::SpParams::thin_node(), spam::mpif::MpiFConfig::thin(),
        "Figure 8 — MPI per-hop latency on thin nodes (us)",
        "Figure 9 — MPI point-to-point bandwidth on thin nodes (MB/s)",
        "\nShape checks (paper, thin nodes): optimized MPI-AM achieves lower "
        "small-message\nlatency than MPI-F and beats it by 10-30% at 8-20 KB; "
        "MPI-F dips after its 4 KB\nprotocol switch; all ride below the raw "
        "am_store curve.\n");
  });
}
