#include "harness.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "driver/sweep.hpp"
#include "micro.hpp"
#include "sphw/payload.hpp"

namespace spam::bench {

namespace {

[[noreturn]] void usage_error(const char* prog, const char* what,
                              const char* arg) {
  std::fprintf(stderr,
               "%s: %s '%s'\n"
               "usage: %s [--jobs N]\n",
               prog, what, arg, prog);
  std::exit(2);
}

}  // namespace

int harness_init(int argc, char** argv) {
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strncmp(a, "--jobs=", 7) == 0) {
      v = a + 7;
    } else if (std::strcmp(a, "--jobs") == 0) {
      if (i + 1 == argc) usage_error(argv[0], "missing value for", a);
      v = argv[++i];
    } else {
      usage_error(argv[0], "unrecognized argument", a);
    }
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (*v == '\0' || *end != '\0' || n < 0 || n > INT_MAX) {
      usage_error(argv[0], "--jobs needs a non-negative integer, got", v);
    }
    jobs = static_cast<int>(n);
  }
  return jobs;
}

Regeneration regenerate(const std::function<std::string()>& tables,
                        int jobs) {
  const std::vector<RecordedPoint> points =
      record_points([&] { tables(); });
  driver::ResultCache& cache = driver::ResultCache::instance();
  driver::SweepRunner(jobs).run_indexed(points.size(), [&](std::size_t i) {
    cache.memoize(points[i].key, points[i].compute);
  });
  const std::uint64_t before = cache.stats().misses;
  Regeneration r;
  r.text = tables();
  r.print_misses = cache.stats().misses - before;
  return r;
}

report::Table fig3_table(const std::vector<std::size_t>& sizes,
                         sphw::SpParams hw) {
  report::Table tab("Figure 3 — bandwidth of bulk transfers (MB/s)");
  tab.set_header({"bytes", "sync store", "sync get", "MPL blocking",
                  "async store", "async get", "MPL pipelined"});
  for (std::size_t s : sizes) {
    tab.add_row({std::to_string(s),
                 report::fmt(am_bandwidth_mbps(AmBwMode::kSyncStore, s, hw)),
                 report::fmt(am_bandwidth_mbps(AmBwMode::kSyncGet, s, hw)),
                 report::fmt(mpl_bandwidth_mbps(MplBwMode::kBlocking, s, hw)),
                 report::fmt(
                     am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, s, hw)),
                 report::fmt(
                     am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet, s, hw)),
                 report::fmt(
                     mpl_bandwidth_mbps(MplBwMode::kPipelined, s, hw))});
  }
  return tab;
}

std::string mpi_figures(const sphw::SpParams& hw,
                        const mpif::MpiFConfig& f_cfg,
                        const std::string& latency_title,
                        const std::string& bandwidth_title,
                        const std::string& note) {
  using mpi::MpiImpl;
  auto cfg_of = [&](MpiImpl impl) {
    mpi::MpiWorldConfig cfg;
    cfg.impl = impl;
    cfg.hw = hw;
    cfg.nodes = 4;
    if (impl == MpiImpl::kMpiF) cfg.f_cfg = f_cfg;
    return cfg;
  };
  // One table: size, am_store, then the three MPI curves.
  auto table = [&](const std::string& title,
                   const std::vector<std::size_t>& sizes, auto am_store,
                   auto mpi) {
    report::Table tab(title);
    tab.set_header({"bytes", "am_store", "unopt MPI-AM", "opt MPI-AM",
                    "MPI-F"});
    for (std::size_t s : sizes) {
      std::vector<std::string> row = {std::to_string(s),
                                      report::fmt(am_store(s, hw))};
      for (MpiImpl impl : {MpiImpl::kAmUnoptimized, MpiImpl::kAmOptimized,
                           MpiImpl::kMpiF}) {
        row.push_back(report::fmt(mpi(cfg_of(impl), s)));
      }
      tab.add_row(row);
    }
    return tab.render();
  };
  std::vector<std::size_t> bw_sizes;
  for (std::size_t s = 64; s <= (1u << 18); s *= 4) bw_sizes.push_back(s);
  bw_sizes.push_back(1u << 19);
  return table(latency_title,
               {4, 16, 64, 256, 1024, 4096, 8192, 16384, 32768},
               am_store_hop_latency_us, mpi_hop_latency_us) +
         table(bandwidth_title, bw_sizes, am_store_bandwidth_mbps,
               mpi_bandwidth_mbps) +
         note;
}

AllocCounters AllocCounters::sample(const sim::Engine& engine) {
  const auto pool = engine.pool_stats();
  return {pool.nodes_allocated, pool.action_heap_fallbacks,
          sphw::PayloadPool::instance().stats().buffers_allocated,
          pool.queue_capacity};
}

AllocCounters AllocCounters::operator-(const AllocCounters& before) const {
  return {event_nodes - before.event_nodes,
          heap_actions - before.heap_actions,
          payload_buffers - before.payload_buffers,
          event_queue - before.event_queue};
}

}  // namespace spam::bench
