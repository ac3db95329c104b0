#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "driver/sweep.hpp"
#include "micro.hpp"
#include "sphw/payload.hpp"

namespace spam::bench {

namespace {

std::vector<report::Table>& collected() {
  static std::vector<report::Table> tables;
  return tables;
}

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_string_array(std::string& out, const std::vector<std::string>& a) {
  out += '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    json_escape(out, a[i]);
    out += '"';
  }
  out += ']';
}

}  // namespace

HarnessOptions& options() {
  static HarnessOptions opts;
  return opts;
}

void harness_init(int* argc, char** argv) {
  HarnessOptions& o = options();
  int keep = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* a = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(a, flag, n) != 0) return nullptr;
      if (a[n] == '=') return a + n + 1;
      if (a[n] == '\0' && i + 1 < *argc) return argv[++i];
      return nullptr;
    };
    if (std::strcmp(a, "--quick") == 0) {
      o.quick = true;
    } else if (const char* v = value_of("--jobs")) {
      o.jobs = std::atoi(v);
    } else if (const char* v = value_of("--out")) {
      o.out = v;
    } else {
      argv[keep++] = argv[i];
    }
  }
  argv[keep] = nullptr;
  *argc = keep;
}

void prewarm(const std::vector<std::function<void()>>& points) {
  driver::SweepRunner(options().jobs).run(points);
}

void emit(const report::Table& t) {
  t.print();
  collected().push_back(t);
}

void emit(const report::PaperComparison& c) { emit(c.table()); }

int harness_finish() {
  const HarnessOptions& o = options();
  if (o.out.empty()) return 0;

  const driver::ResultCache::Stats cs = driver::ResultCache::instance().stats();
  std::string j = "{\n";
  j += "  \"jobs\": " + std::to_string(driver::SweepRunner(o.jobs).jobs());
  j += ",\n  \"cache\": {\"hits\": " + std::to_string(cs.hits) +
       ", \"misses\": " + std::to_string(cs.misses) + "}";
  j += ",\n  \"tables\": [";
  bool first_table = true;
  for (const report::Table& t : collected()) {
    j += first_table ? "\n" : ",\n";
    first_table = false;
    j += "    {\"title\": \"";
    json_escape(j, t.title());
    j += "\", \"header\": ";
    json_string_array(j, t.header());
    j += ", \"rows\": [";
    for (std::size_t r = 0; r < t.rows().size(); ++r) {
      if (r != 0) j += ", ";
      json_string_array(j, t.rows()[r]);
    }
    j += "]}";
  }
  j += "\n  ]\n}\n";

  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "harness: cannot write %s\n", o.out.c_str());
    return 1;
  }
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", o.out.c_str());
  return 0;
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
