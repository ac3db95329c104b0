// paper_sweep: regenerates Table 2, Table 3 / Figure 3, Figures 7-11 and
// Table 6 as independent points on two host threads through
// driver::SweepRunner, with the ResultCache cleared before every pass.
// The point lists mirror the bench_* mains that print those artifacts.
// An operation is one point; its value must be positive and identical in
// every pass, and the pass must miss the cache once per memoized point.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <thread>

#include "driver/sweep.hpp"
#include "micro.hpp"
#include "sim/rng.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace b = spam::bench;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A small id per host thread, for driver.workers_used and trace lanes.
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next++;
  return id;
}

/// What one point did, written only by the thread that ran it.
struct PointRec {
  double value = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint32_t tid = 0;
  Counters counters;
};

MpiWorldConfig mpi_cfg(MpiImpl impl, spam::sphw::SpParams hw, bool wide) {
  MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.hw = hw;
  cfg.nodes = 4;
  if (impl == MpiImpl::kMpiF) {
    cfg.f_cfg = wide ? spam::mpif::MpiFConfig::wide() : spam::mpif::MpiFConfig::thin();
  }
  return cfg;
}

/// Figure 7: each protocol forced, as bench_fig7_protocols.cpp does.
std::vector<MpiWorldConfig> fig7_configs() {
  MpiWorldConfig buffered, rendezvous, hybrid;
  for (MpiWorldConfig* c : {&buffered, &rendezvous, &hybrid}) {
    c->impl = MpiImpl::kAmOptimized;
    c->am_cfg = spam::mpi::MpiAmConfig::opt();
  }
  buffered.am_cfg.peer_buffer_bytes = 256 * 1024;
  buffered.am_cfg.eager_max = 200 * 1024;
  buffered.am_cfg.hybrid = false;
  rendezvous.am_cfg.eager_max = 0;
  rendezvous.am_cfg.hybrid = false;
  hybrid.am_cfg.eager_max = 0;
  hybrid.am_cfg.hybrid = true;
  return {buffered, rendezvous, hybrid};
}

/// The memoized points of Figures 7-11.  The thin-node am_store bandwidth
/// curve of Figure 9 is Figure 3's async-store curve, so it is not
/// repeated.
std::vector<std::function<double()>> figure_points() {
  std::vector<std::function<double()>> pts;
  std::vector<std::size_t> fig7_sizes;
  for (std::size_t s = 512; s <= (1u << 17); s *= 2) {
    fig7_sizes.push_back(s);
    fig7_sizes.push_back(s * 3 / 2);
  }
  for (const MpiWorldConfig& cfg : fig7_configs()) {
    for (std::size_t s : fig7_sizes) {
      pts.push_back([cfg, s] { return b::mpi_bandwidth_mbps(cfg, s); });
    }
  }
  const std::vector<std::size_t> lat_sizes = {4,    16,   64,    256,  1024,
                                              4096, 8192, 16384, 32768};
  std::vector<std::size_t> bw_sizes;
  for (std::size_t s = 64; s <= (1u << 18); s *= 4) bw_sizes.push_back(s);
  bw_sizes.push_back(1u << 19);
  for (const bool wide : {false, true}) {
    const auto hw = wide ? spam::sphw::SpParams::wide_node()
                         : spam::sphw::SpParams::thin_node();
    for (std::size_t s : lat_sizes) {
      pts.push_back([s, hw] { return b::am_store_hop_latency_us(s, hw); });
      for (auto impl : {MpiImpl::kAmUnoptimized, MpiImpl::kAmOptimized, MpiImpl::kMpiF}) {
        const MpiWorldConfig cfg = mpi_cfg(impl, hw, wide);
        pts.push_back([cfg, s] { return b::mpi_hop_latency_us(cfg, s); });
      }
    }
    for (std::size_t s : bw_sizes) {
      if (wide) pts.push_back([s, hw] { return b::am_store_bandwidth_mbps(s, hw); });
      for (auto impl : {MpiImpl::kAmUnoptimized, MpiImpl::kAmOptimized, MpiImpl::kMpiF}) {
        const MpiWorldConfig cfg = mpi_cfg(impl, hw, wide);
        pts.push_back([cfg, s] { return b::mpi_bandwidth_mbps(cfg, s); });
      }
    }
  }
  return pts;
}

/// Two workers, or one on a single core.  A pass waits for its slowest
/// worker, and on a shared host every core the sweep keeps busy is one
/// more that outside load can stall: on a 4-vCPU VM, four workers spread
/// pass times, point tails and peak RSS across runs far more than two.
int sweep_workers() { return std::thread::hardware_concurrency() >= 2 ? 2 : 1; }

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(std::uint64_t seed) {
    memoized_ = calibration_points();
    for (auto& p : figure_points()) memoized_.push_back(std::move(p));
    const std::size_t n = memoized_.size() + 2 * nas_kernels().size();
    // The seed shuffles the memoized points.  The Table 6 kernels, the
    // longest points, are submitted last: workers pop their own deque
    // newest-first, so these start first.
    order_.resize(memoized_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    spam::sim::Rng rng(seed);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    for (std::size_t i = memoized_.size(); i < n; ++i) order_.push_back(i);
    nas_.resize(nas_kernels().size());
  }

  std::uint64_t ops_per_pass() const override { return order_.size(); }
  // p99 would fall among the ten Table 6 points of a pass (2.5% of them),
  // between the clusters of two kernels; p95 lies among the sweep points.
  // (It is also the default rung for 405 points; this pins it if the
  // sweep grows.)
  double tail_percentile() const override { return 95; }

  void run_pass(Pass& p, std::vector<SpanLog>* logs) override {
    const std::size_t n = order_.size();
    std::vector<PointRec> rec(n);
    std::vector<SpanLog> point_logs(logs != nullptr ? n : 0);
    auto& cache = spam::driver::ResultCache::instance();
    cache.clear();
    spam::driver::SweepRunner runner(sweep_workers());
    const std::int64_t t0 = now_ns();
    runner.run_indexed(n, [&](std::size_t j) {
      const std::size_t i = order_[j];
      PointRec& r = rec[i];
      r.tid = thread_id();
      SpanLog* log = nullptr;
      if (logs != nullptr) {
        log = &point_logs[i];
        log->tid = r.tid;
      }
      LogScope scope(log);
      const ThreadCounters tc0 = ThreadCounters::sample();
      const double c0 = thread_cpu_s();
      const std::int64_t w0 = now_ns();
      {
        Span s("driver.point", static_cast<std::uint32_t>(i));
        r.value = i < memoized_.size() ? memoized_[i]() : run_nas(i - memoized_.size(), r);
      }
      r.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
      r.cpu_s = thread_cpu_s() - c0;
      add_thread_delta(r.counters, tc0, ThreadCounters::sample());
    });
    const double sweep_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    const std::uint64_t misses = cache.stats().misses;

    double point_wall = 0, point_cpu = 0;
    std::set<std::uint32_t> workers;
    if (values_.empty()) {
      for (const PointRec& r : rec) values_.push_back(r.value);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const PointRec& r = rec[i];
      p.check(std::isfinite(r.value) && r.value > 0 && r.value == values_[i],
              "sweep point is positive and repeats");
      p.counters += r.counters;
      p.op_us.push_back(r.wall_s * 1e6);
      point_wall += r.wall_s;
      point_cpu += r.cpu_s;
      workers.insert(r.tid);
      if (i >= memoized_.size()) p.sim_wall_s += r.wall_s;
    }
    p.check(misses == memoized_.size(), "cold pass misses the cache once per point");
    last_ = score(nas_);
    for (std::uint64_t k = 0; k < last_.checks; ++k) {
      p.check(k >= last_.failed, "paper anchors and Table 6 checksums");
    }

    p.values["driver.points"] = static_cast<double>(n);
    p.values["driver.cache_misses"] = static_cast<double>(misses);
    p.values["driver.workers_used"] = static_cast<double>(workers.size());
    p.values["driver.efficiency"] = ratio(point_wall, sweep_wall_s * runner.jobs());
    p.values["driver.cpu_per_wall"] = ratio(point_cpu, point_wall);
    if (logs != nullptr) {
      for (SpanLog& l : point_logs) logs->push_back(std::move(l));
    }
  }

  Accuracy accuracy() override { return last_; }

 private:
  /// Table 6 point `k`: kernel k / 2 on MPI-AM (even k) or MPI-F (odd k).
  double run_nas(std::size_t k, PointRec& r) {
    const NasKernel& kernel = nas_kernels()[k / 2];
    const bool am = k % 2 == 0;
    std::optional<spam::mpi::MpiWorld> w;
    {
      Span s("sim.world_build");
      w.emplace(nas_config(am ? MpiImpl::kAmOptimized : MpiImpl::kMpiF));
    }
    spam::apps::NasResult res;
    {
      Span s(am ? kernel.am_span : kernel.f_span);
      res = kernel.run(*w);
    }
    add_machine(r.counters, w->world().engine(), w->machine());
    add_mpi(r.counters, *w);
    (am ? nas_[k / 2].am : nas_[k / 2].f) = res;
    return res.time_s;
  }

  std::vector<std::function<double()>> memoized_;
  std::vector<std::size_t> order_;  // submission order of point indices
  std::vector<NasPair> nas_;
  std::vector<double> values_;  // first pass's point values
  Accuracy last_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(std::uint64_t seed) {
  return std::make_unique<PaperSweep>(seed);
}

}  // namespace perfbench
