// Reproduces paper Table 6: NAS benchmark run-times on 16 thin SP nodes,
// MPI-F vs MPICH-over-AM.  Problem sizes are reduced from class A (the
// simulation runs every byte of communication); the reproduction target is
// the *ratio* between the two MPI implementations per kernel and the FT
// gap caused by MPICH's naive alltoall.
#include "apps/nas.hpp"
#include "tables.hpp"

namespace spam::bench {

namespace {

using apps::NasResult;
using mpi::MpiImpl;
using mpi::MpiWorldConfig;

constexpr int kNodes = 16;

struct Kernel {
  const char* name;
  double paper_mpif_s;
  double paper_mpiam_s;
  NasResult (*run)(mpi::MpiWorld&);
};

constexpr Kernel kKernels[] = {
    {"BT", 39.0, 39.16, [](mpi::MpiWorld& w) { return apps::run_bt(w, 48, 4); }},
    {"FT", 31.87, 35.49,
     [](mpi::MpiWorld& w) { return apps::run_ft(w, 64, 4); }},
    {"LU", 16.6, 20.9, [](mpi::MpiWorld& w) { return apps::run_lu(w, 256, 4); }},
    {"MG", 7.9, 8.19, [](mpi::MpiWorld& w) { return apps::run_mg(w, 64, 4); }},
    {"SP", 40.37, 49.08,
     [](mpi::MpiWorld& w) { return apps::run_sp(w, 48, 4); }},
};

/// One Table 6 run: kernel `k` over `impl` in cell `c`, cached as the
/// record {time_s, checksum, finished}.
NasResult nas_run(const Kernel& k, MpiImpl impl, Cell c) {
  MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.nodes = kNodes;
  cfg.hw = hw(c);
  if (impl == MpiImpl::kMpiF) cfg.f_cfg = mpif::MpiFConfig::thin();
  driver::Hasher h("table6_nas");
  const Record r = cached(mix(h.mix(k.name), cfg), 3, [k, cfg] {
    mpi::MpiWorld w(cfg);
    const NasResult nr = k.run(w);
    return Record{nr.time_s, nr.checksum, nr.finished ? 1.0 : 0.0};
  });
  return {r[0], r[1], r[2] != 0};
}

}  // namespace

std::string table6_nas(Cell c) {
  report::Table tab("Table 6 — NAS kernels on 16 thin nodes (reduced size)");
  tab.set_header({"kernel", "paper MPI-F (s)", "paper MPI-AM (s)",
                  "paper ratio", "measured MPI-F (s)", "measured MPI-AM (s)",
                  "measured ratio", "checksums match"});
  for (const Kernel& k : kKernels) {
    const NasResult f = nas_run(k, MpiImpl::kMpiF, c);
    const NasResult am = nas_run(k, MpiImpl::kAmOptimized, c);
    tab.add_row({k.name, report::fmt(k.paper_mpif_s, 2),
                 report::fmt(k.paper_mpiam_s, 2),
                 report::fmt(k.paper_mpiam_s / k.paper_mpif_s, 2),
                 report::fmt(f.time_s, 3), report::fmt(am.time_s, 3),
                 report::fmt(am.time_s / f.time_s, 2),
                 am.checksum == f.checksum ? "yes" : "NO"});
  }
  return tab.render() +
         "\nShape checks (paper): MPI-AM within a few % of MPI-F on BT/MG, "
         "~10% slower on FT\n(MPICH generic alltoall hot spot) and slower on "
         "LU/SP (MPICH nonblocking path).\nAbsolute seconds differ: kernels "
         "are reduced from class A.\n";
}

}  // namespace spam::bench
