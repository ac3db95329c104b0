// Reproduces paper Figure 7: bandwidth of the buffered, rendez-vous, and
// hybrid buffered/rendez-vous MPI protocols, each forced across the whole
// size range.  The hybrid curve must dominate both pure protocols around
// the switch region (no discontinuity).
//
// The pure-buffered curve needs room beyond the production 16 KB region,
// so that configuration runs with an enlarged 256 KB per-peer buffer (the
// paper's protocol study similarly isolates the protocols).
#include <benchmark/benchmark.h>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::mpi::MpiAmConfig;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

MpiWorldConfig force_buffered() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.peer_buffer_bytes = 256 * 1024;
  cfg.am_cfg.eager_max = 200 * 1024;
  cfg.am_cfg.hybrid = false;
  return cfg;
}

MpiWorldConfig force_rendezvous() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.eager_max = 0;
  cfg.am_cfg.hybrid = false;
  return cfg;
}

MpiWorldConfig force_hybrid() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.eager_max = 0;  // every message takes the hybrid path
  cfg.am_cfg.hybrid = true;
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

void run_curve(const char* name, const MpiWorldConfig& cfg,
               std::vector<spam::report::BwPoint>& out) {
  for (std::size_t s : sizes()) {
    out.push_back({s, spam::bench::mpi_bandwidth_mbps(cfg, s)});
  }
  (void)name;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  spam::bench::harness_init(argc, argv);

  std::vector<spam::report::BwPoint> buffered, rdv, hybrid;

  {  // Warm every (protocol, size) point across --jobs threads.
    std::vector<std::function<void()>> points;
    for (auto cfg : {force_buffered(), force_rendezvous(), force_hybrid()}) {
      for (std::size_t s : sizes()) {
        points.push_back([cfg, s] { spam::bench::mpi_bandwidth_mbps(cfg, s); });
      }
    }
    spam::bench::prewarm(points);
  }

  benchmark::RegisterBenchmark("Fig7/Buffered", [&](benchmark::State& state) {
    for (auto _ : state) {
      run_curve("buffered", force_buffered(), buffered);
      state.SetIterationTime(1e-3);
    }
    state.counters["r_inf"] = spam::report::r_infinity(buffered);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("Fig7/Rendezvous",
                               [&](benchmark::State& state) {
    for (auto _ : state) {
      run_curve("rendezvous", force_rendezvous(), rdv);
      state.SetIterationTime(1e-3);
    }
    state.counters["r_inf"] = spam::report::r_infinity(rdv);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("Fig7/Hybrid", [&](benchmark::State& state) {
    for (auto _ : state) {
      run_curve("hybrid", force_hybrid(), hybrid);
      state.SetIterationTime(1e-3);
    }
    state.counters["r_inf"] = spam::report::r_infinity(hybrid);
  })->UseManualTime()->Iterations(1);
  benchmark::RunSpecifiedBenchmarks();

  spam::report::Table tab(
      "Figure 7 — buffered vs rendez-vous vs hybrid protocol bandwidth "
      "(MB/s)");
  tab.set_header({"bytes", "buffered", "rendez-vous", "hybrid"});
  const auto sz = sizes();
  for (std::size_t i = 0; i < sz.size(); ++i) {
    tab.add_row({std::to_string(sz[i]), spam::report::fmt(buffered[i].mbps),
                 spam::report::fmt(rdv[i].mbps),
                 spam::report::fmt(hybrid[i].mbps)});
  }
  tab.print();

  // Shape check: the hybrid curve should match or beat both pure protocols
  // in the 4-32 KB switch region.
  int wins = 0, pts = 0;
  for (std::size_t i = 0; i < sz.size(); ++i) {
    if (sz[i] < 4096 || sz[i] > 32768) continue;
    ++pts;
    if (hybrid[i].mbps + 0.5 >= std::min(buffered[i].mbps, rdv[i].mbps)) {
      ++wins;
    }
  }
  std::printf("\nHybrid >= min(buffered, rendez-vous) on %d/%d points in the "
              "switch region.\n", wins, pts);
}
