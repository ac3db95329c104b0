// Reproduces paper Figure 7: bandwidth of the buffered, rendez-vous, and
// hybrid buffered/rendez-vous MPI protocols, each forced across the whole
// size range.  The hybrid curve must dominate both pure protocols around
// the switch region (no discontinuity).
//
// The pure-buffered curve needs room beyond the production 16 KB region,
// so that configuration runs with an enlarged 256 KB per-peer buffer (the
// paper's protocol study similarly isolates the protocols).
#include "tables.hpp"

namespace spam::bench {

namespace {

using mpi::MpiAmConfig;
using mpi::MpiImpl;
using mpi::MpiWorldConfig;

/// Optimized MPI-AM with one protocol forced: buffered when `eager_max`
/// covers the whole sweep (given a 256 KB per-peer buffer), otherwise
/// rendez-vous or, with `hybrid`, the hybrid path for every message.
MpiWorldConfig forced(std::size_t eager_max, bool hybrid, Cell c) {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.hw = hw(c);
  cfg.am_cfg = MpiAmConfig::opt();
  if (eager_max > 0) cfg.am_cfg.peer_buffer_bytes = 256 * 1024;
  cfg.am_cfg.eager_max = eager_max;
  cfg.am_cfg.hybrid = hybrid;
  return cfg;
}

std::vector<std::size_t> sizes() {
  std::vector<std::size_t> v;
  for (std::size_t s = 512; s <= (1u << 17); s *= 2) {
    v.push_back(s);
    v.push_back(s * 3 / 2);
  }
  return v;
}

/// One protocol's bandwidth at every size (MB/s).
std::vector<double> curve(const MpiWorldConfig& cfg) {
  std::vector<double> out;
  for (std::size_t s : sizes()) out.push_back(mpi_bandwidth_mbps(cfg, s));
  return out;
}

}  // namespace

std::string fig7_protocols(Cell c) {
  const auto buffered = curve(forced(200 * 1024, false, c));
  const auto rdv = curve(forced(0, false, c));
  const auto hybrid = curve(forced(0, true, c));

  report::Table tab(
      "Figure 7 — buffered vs rendez-vous vs hybrid protocol bandwidth "
      "(MB/s)");
  tab.set_header({"bytes", "buffered", "rendez-vous", "hybrid"});
  const auto sz = sizes();
  for (std::size_t i = 0; i < sz.size(); ++i) {
    tab.add_row({std::to_string(sz[i]), report::fmt(buffered[i]),
                 report::fmt(rdv[i]), report::fmt(hybrid[i])});
  }

  // Shape check: the hybrid curve should match or beat both pure
  // protocols in the 4-32 KB switch region.
  int wins = 0, pts = 0;
  for (std::size_t i = 0; i < sz.size(); ++i) {
    if (sz[i] < 4096 || sz[i] > 32768) continue;
    ++pts;
    if (hybrid[i] + 0.5 >= std::min(buffered[i], rdv[i])) ++wins;
  }
  return tab.render() + "\nHybrid >= min(buffered, rendez-vous) on " +
         std::to_string(wins) + "/" + std::to_string(pts) +
         " points in the switch region.\n";
}

}  // namespace spam::bench
