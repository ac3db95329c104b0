// Extension: direct evidence for the paper's FT explanation — MPICH's
// generic MPI_Alltoall walks destinations in the same order on every rank
// (all senders hammer rank 0, then rank 1, ...), while a vendor-style
// staggered schedule spreads the load.  Measures both on 16 nodes across
// block sizes, on the same MPI-AM device.
#include <vector>

#include "tables.hpp"

namespace spam::bench {

namespace {

using mpi::MpiWorldConfig;

/// A one-off Mpi subclass flag is overkill: the devices already pick the
/// schedule via tuned_collectives(); MPI-AM uses the naive one and MPI-F
/// the staggered one.  To isolate the *schedule* (same transport), we run
/// the staggered schedule by hand over MPI-AM.
double alltoall_us_raw(bool staggered, std::size_t block,
                       const MpiWorldConfig& cfg) {
  mpi::MpiWorld w(cfg);
  const auto bytes = block * static_cast<std::size_t>(cfg.nodes);
  std::vector<std::byte> sbuf(bytes, std::byte{1});
  std::vector<std::byte> rbuf(bytes, std::byte{0});
  sim::Time elapsed = 0;

  w.run([&](mpi::Mpi& mpi) {
    const int p = mpi.size();
    const int me = mpi.rank();
    mpi.barrier();
    const sim::Time t0 = mpi.ctx().now();
    std::vector<int> reqs;
    for (int i = 0; i < p; ++i) {
      if (i == me) continue;
      reqs.push_back(mpi.irecv(rbuf.data() + static_cast<std::size_t>(i) * block,
                               block, i, 77));
    }
    if (staggered) {
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        mpi.send(sbuf.data() + static_cast<std::size_t>(dst) * block, block,
                 dst, 77);
      }
    } else {
      for (int dst = 0; dst < p; ++dst) {
        if (dst == me) continue;
        mpi.send(sbuf.data() + static_cast<std::size_t>(dst) * block, block,
                 dst, 77);
      }
    }
    mpi.waitall(reqs);
    mpi.barrier();
    if (me == 0) elapsed = mpi.ctx().now() - t0;
  });
  return sim::to_usec(elapsed);
}

/// The alltoall time on `nodes` optimized MPI-AM nodes in cell `c`.
double alltoall_us(bool staggered, std::size_t block, int nodes, Cell c) {
  MpiWorldConfig cfg;  // optimized MPI-AM
  cfg.nodes = nodes;
  cfg.hw = hw(c);
  driver::Hasher h("alltoall_us");
  return cached(mix(h.mix(staggered).mix(block), cfg),
                [=] { return alltoall_us_raw(staggered, block, cfg); });
}

const std::size_t kBlocks[] = {256, 1024, 4096, 16384};

}  // namespace

std::string ext_alltoall(Cell c) {
  report::Table tab(
      "Extension — alltoall schedule, 16 nodes, same MPI-AM transport");
  tab.set_header({"block bytes", "MPICH naive (us)", "staggered (us)",
                  "naive / staggered"});
  for (std::size_t block : kBlocks) {
    const double naive = alltoall_us(false, block, 16, c);
    const double stag = alltoall_us(true, block, 16, c);
    tab.add_row({std::to_string(block), report::fmt(naive),
                 report::fmt(stag), report::fmt(naive / stag, 2)});
  }
  return tab.render() +
         "\nReading: the synchronized destination order creates the "
         "receiver hot spot the\npaper blames for FT's MPICH gap ('all "
         "processors try to send to the same\nprocessor at the same time, "
         "rather than spreading out the communication').\n";
}

}  // namespace spam::bench
