// Every bench is a table function of the mode cell in bench/<name>.cpp,
// listed once in kBenches: bench/main.cpp runs it in production,
// tests/test_mode_equivalence.cpp in the other cell.
#pragma once

#include <string>

#include "harness.hpp"
#include "micro.hpp"

namespace spam::bench {

/// One setting of the mode switch (SpParams::network_fastpath).  It
/// changes how virtual time is computed, never what it is.
struct Cell {
  bool fastpath;
};

inline constexpr Cell kProduction{true};

/// Thin (or wide) node parameters in cell `c`.
inline sphw::SpParams hw(Cell c, bool wide_nodes = false) {
  sphw::SpParams p = wide_nodes ? sphw::SpParams::wide_node()
                                : sphw::SpParams::thin_node();
  p.network_fastpath = c.fastpath;
  return p;
}

std::string table2_am_overheads(Cell c);
std::string table3_summary(Cell c);
std::string fig3_bandwidth(Cell c);
std::string table4_machines(Cell c);
std::string table5_splitc(Cell c);
std::string fig7_protocols(Cell c);
std::string fig8_9_mpi_thin(Cell c);
std::string fig10_11_mpi_wide(Cell c);
std::string table6_nas(Cell c);
std::string ablation_flowcontrol(Cell c);
std::string ablation_hybrid_prefix(Cell c);
std::string ablation_binned_alloc(Cell c);
std::string ext_interrupts(Cell c);
std::string ext_alltoall(Cell c);
std::string ext_exchange_wide(Cell c);

/// A bench: its binary's name and its table function.
struct BenchTables {
  const char* name;
  std::string (*tables)(Cell);
};

/// Every bench, in paper order.
inline constexpr BenchTables kBenches[] = {
    {"bench_table2_am_overheads", table2_am_overheads},
    {"bench_table3_summary", table3_summary},
    {"bench_fig3_bandwidth", fig3_bandwidth},
    {"bench_table4_machines", table4_machines},
    {"bench_table5_splitc", table5_splitc},
    {"bench_fig7_protocols", fig7_protocols},
    {"bench_fig8_9_mpi_thin", fig8_9_mpi_thin},
    {"bench_fig10_11_mpi_wide", fig10_11_mpi_wide},
    {"bench_table6_nas", table6_nas},
    {"bench_ablation_flowcontrol", ablation_flowcontrol},
    {"bench_ablation_hybrid_prefix", ablation_hybrid_prefix},
    {"bench_ablation_binned_alloc", ablation_binned_alloc},
    {"bench_ext_interrupts", ext_interrupts},
    {"bench_ext_alltoall", ext_alltoall},
    {"bench_ext_exchange_wide", ext_exchange_wide},
};

}  // namespace spam::bench
