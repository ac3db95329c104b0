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

int g_jobs = 0;

[[noreturn]] void usage_error(const char* prog, const char* what,
                              const char* arg) {
  std::fprintf(stderr,
               "%s: %s '%s'\n"
               "usage: %s [--jobs N]\n",
               prog, what, arg, prog);
  std::exit(2);
}

}  // namespace

void harness_init(int argc, char** argv) {
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
    g_jobs = static_cast<int>(n);
  }
}

int jobs() { return g_jobs; }

void prewarm(const std::vector<std::function<void()>>& points) {
  driver::SweepRunner(g_jobs).run(points);
}

std::vector<std::function<void()>> fig3_points(
    const std::vector<std::size_t>& sizes) {
  std::vector<std::function<void()>> pts;
  pts.reserve(sizes.size() * 6);
  for (std::size_t s : sizes) {
    pts.push_back([s] { am_bandwidth_mbps(AmBwMode::kSyncStore, s); });
    pts.push_back([s] { am_bandwidth_mbps(AmBwMode::kSyncGet, s); });
    pts.push_back([s] { mpl_bandwidth_mbps(MplBwMode::kBlocking, s); });
    pts.push_back([s] { am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, s); });
    pts.push_back([s] { am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet, s); });
    pts.push_back([s] { mpl_bandwidth_mbps(MplBwMode::kPipelined, s); });
  }
  return pts;
}

report::Table fig3_table(const std::vector<std::size_t>& sizes) {
  report::Table tab("Figure 3 — bandwidth of bulk transfers (MB/s)");
  tab.set_header({"bytes", "sync store", "sync get", "MPL blocking",
                  "async store", "async get", "MPL pipelined"});
  for (std::size_t s : sizes) {
    tab.add_row({std::to_string(s),
                 report::fmt(am_bandwidth_mbps(AmBwMode::kSyncStore, s)),
                 report::fmt(am_bandwidth_mbps(AmBwMode::kSyncGet, s)),
                 report::fmt(mpl_bandwidth_mbps(MplBwMode::kBlocking, s)),
                 report::fmt(
                     am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, s)),
                 report::fmt(
                     am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet, s)),
                 report::fmt(mpl_bandwidth_mbps(MplBwMode::kPipelined, s))});
  }
  return tab;
}

AllocCounters AllocCounters::sample(const sim::Engine& engine) {
  const auto pool = engine.pool_stats();
  return {pool.nodes_allocated, pool.action_heap_fallbacks,
          sphw::PayloadPool::instance().stats().buffers_allocated};
}

AllocCounters AllocCounters::operator-(const AllocCounters& before) const {
  return {event_nodes - before.event_nodes,
          heap_actions - before.heap_actions,
          payload_buffers - before.payload_buffers};
}

}  // namespace spam::bench
