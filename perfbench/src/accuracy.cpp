#include "accuracy.hpp"

#include <cmath>

#include "driver/sweep.hpp"
#include "micro.hpp"

namespace perfbench {

using spam::bench::AmBwMode;
using spam::bench::MplBwMode;

const std::vector<NasKernel>& nas_kernels() {
  // Sizes and paper seconds as bench/bench_table6_nas.cpp runs them.
  static const std::vector<NasKernel> k = {
      {"mpi.nas_bt", "mpif.nas_bt", 39.0, 39.16,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_bt(w, 48, 4); }},
      {"mpi.nas_ft", "mpif.nas_ft", 31.87, 35.49,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_ft(w, 64, 4); }},
      {"mpi.nas_lu", "mpif.nas_lu", 16.6, 20.9,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_lu(w, 256, 4); }},
      {"mpi.nas_mg", "mpif.nas_mg", 7.9, 8.19,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_mg(w, 64, 4); }},
      {"mpi.nas_sp", "mpif.nas_sp", 40.37, 49.08,
       [](spam::mpi::MpiWorld& w) { return spam::apps::run_sp(w, 48, 4); }},
  };
  return k;
}

spam::mpi::MpiWorldConfig nas_config(spam::mpi::MpiImpl impl) {
  spam::mpi::MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.nodes = 16;
  return cfg;
}

std::vector<std::function<double()>> calibration_points() {
  namespace b = spam::bench;
  std::vector<std::function<double()>> pts;
  for (int w = 1; w <= 4; ++w) {
    pts.push_back([w] { return b::am_request_cost_us(w); });
    pts.push_back([w] { return b::am_reply_cost_us(w); });
    pts.push_back([w] { return b::am_rtt_us(w); });
  }
  pts.push_back([] { return b::am_poll_empty_us(); });
  pts.push_back([] { return b::raw_rtt_us(); });
  pts.push_back([] { return b::mpl_rtt_us(); });
  // Figure 3: the six curves (as bench/harness.cpp's fig3_points).
  for (std::size_t s : b::figure3_sizes()) {
    pts.push_back([s] { return b::am_bandwidth_mbps(AmBwMode::kSyncStore, s); });
    pts.push_back([s] { return b::am_bandwidth_mbps(AmBwMode::kSyncGet, s); });
    pts.push_back([s] { return b::mpl_bandwidth_mbps(MplBwMode::kBlocking, s); });
    pts.push_back(
        [s] { return b::am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, s); });
    pts.push_back(
        [s] { return b::am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet, s); });
    pts.push_back([s] { return b::mpl_bandwidth_mbps(MplBwMode::kPipelined, s); });
  }
  return pts;
}

namespace {

std::vector<spam::report::BwPoint> am_curve(AmBwMode mode) {
  std::vector<spam::report::BwPoint> c;
  for (std::size_t s : spam::bench::figure3_sizes()) {
    c.push_back({s, spam::bench::am_bandwidth_mbps(mode, s)});
  }
  return c;
}

std::vector<spam::report::BwPoint> mpl_curve(MplBwMode mode) {
  std::vector<spam::report::BwPoint> c;
  for (std::size_t s : spam::bench::figure3_sizes()) {
    c.push_back({s, spam::bench::mpl_bandwidth_mbps(mode, s)});
  }
  return c;
}

double mean_rel_err_pct(const std::vector<std::pair<double, double>>& vp) {
  double sum = 0;
  for (const auto& [virt, paper] : vp) sum += std::abs(virt - paper) / paper;
  return vp.empty() ? 0 : 100 * sum / static_cast<double>(vp.size());
}

}  // namespace

Accuracy score(const std::vector<NasPair>& nas) {
  Accuracy a;
  const double paper_req[] = {7.7, 7.9, 8.0, 8.2};
  const double paper_rep[] = {4.0, 4.1, 4.3, 4.4};
  std::vector<std::pair<double, double>> fitted;
  for (int w = 1; w <= 4; ++w) {
    fitted.push_back({spam::bench::am_request_cost_us(w), paper_req[w - 1]});
    fitted.push_back({spam::bench::am_reply_cost_us(w), paper_rep[w - 1]});
  }
  const auto async_store = am_curve(AmBwMode::kPipelinedAsyncStore);
  fitted.push_back({spam::bench::am_rtt_us(1), 51.0});
  fitted.push_back({spam::bench::raw_rtt_us(), 46.5});
  fitted.push_back({spam::bench::mpl_rtt_us(), 88.0});
  fitted.push_back({spam::report::r_infinity(async_store), 34.3});
  fitted.push_back(
      {spam::report::r_infinity(mpl_curve(MplBwMode::kPipelined)), 34.6});
  fitted.push_back({spam::report::n_half(async_store), 260.0});
  a.calib_err_pct = mean_rel_err_pct(fitted);

  std::vector<std::pair<double, double>> heldout;
  const auto& ks = nas_kernels();
  for (std::size_t i = 0; i < ks.size() && i < nas.size(); ++i) {
    ++a.checks;
    const NasPair& p = nas[i];
    if (!p.am.finished || !p.f.finished || p.am.checksum != p.f.checksum ||
        !(p.f.time_s > 0)) {
      ++a.failed;
      continue;
    }
    heldout.push_back(
        {p.am.time_s / p.f.time_s, ks[i].paper_am_s / ks[i].paper_f_s});
  }
  if (nas.size() != ks.size()) ++a.failed;
  a.heldout_err_pct = mean_rel_err_pct(heldout);
  return a;
}

Accuracy measure_accuracy() {
  const auto& ks = nas_kernels();
  std::vector<NasPair> nas(ks.size());
  std::vector<std::function<void()>> pts;
  for (auto& p : calibration_points()) pts.push_back([p] { p(); });
  for (std::size_t i = 0; i < ks.size(); ++i) {
    pts.push_back([&, i] {
      spam::mpi::MpiWorld w(nas_config(spam::mpi::MpiImpl::kAmOptimized));
      nas[i].am = ks[i].run(w);
    });
    pts.push_back([&, i] {
      spam::mpi::MpiWorld w(nas_config(spam::mpi::MpiImpl::kMpiF));
      nas[i].f = ks[i].run(w);
    });
  }
  spam::driver::SweepRunner(0).run(pts);
  return score(nas);
}

}  // namespace perfbench
