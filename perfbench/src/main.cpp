// perfbench: host-time benchmark of the simulator, one workload per run.
//
//   perfbench --workload <am_micro|splitc_am|splitc_mpl|paper_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run sets up five times (each set-up is one untimed pass: it fills the
// thread-local pools, and on paper_sweep it is the sweep's warm-up), then
// repeats the workload's pass for --seconds.  With --trace 0 it prints the
// end-to-end metrics; with --trace 1 every other pass records spans, and it
// prints the per-layer metrics.  Every pass
// verifies its outputs, and the deterministic counters must repeat exactly
// in every pass, traced or not.  The last stdout line is the JSON result;
// the exit code is 0 only when every check passed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr std::size_t kMinPasses = 20;  // untraced run
constexpr std::size_t kMinTracedRunPasses = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

Pass timed_pass(Workload& wl, std::vector<SpanLog>* logs) {
  Pass p;
  const rusage ru0 = usage();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  wl.run_pass(p, logs);
  p.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  p.cpu_s = process_cpu_s() - cpu0;
  const rusage ru1 = usage();
  p.minflt = ru1.ru_minflt - ru0.ru_minflt;
  p.nivcsw = ru1.ru_nivcsw - ru0.ru_nivcsw;
  p.op_p50_us = median(p.op_us);
  p.op_tail_us = percentile(p.op_us, wl.tail_percentile());
  std::vector<double>().swap(p.op_us);
  return p;
}

/// Passes for at least `seconds` and `min_passes` (the latter given up
/// after 4 x `seconds`), and never fewer than two.  With `stats` set,
/// every other pass records spans, folded into `stats`; the first traced
/// pass's logs are kept in `keep`.  Alternating keeps slow drifts of the
/// host out of the tracing overhead.
std::vector<Pass> run_passes(Workload& wl, double seconds, std::size_t min_passes,
                             SpanStats* stats, std::vector<SpanLog>* keep) {
  std::vector<Pass> out;
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  while (out.size() < 2 || elapsed() < seconds ||
         (out.size() < min_passes && elapsed() < 4 * seconds)) {
    const bool traced = stats != nullptr && out.size() % 2 == 1;
    std::vector<SpanLog> logs;
    out.push_back(timed_pass(wl, traced ? &logs : nullptr));
    Pass& p = out.back();
    if (!traced) continue;
    p.traced = true;
    std::uint64_t spans = 0;
    for (const SpanLog& l : logs) {
      stats->fold(l);
      spans += l.spans.size();
    }
    p.values["trace.spans"] = static_cast<double>(spans);
    if (keep->empty()) *keep = std::move(logs);
  }
  return out;
}

std::vector<Pass> with_tracing(const std::vector<Pass>& ps, bool traced) {
  std::vector<Pass> out;
  for (const Pass& p : ps) {
    if (p.traced == traced) out.push_back(p);
  }
  return out;
}

double med(const std::vector<Pass>& ps, const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(f(p));
  return median(std::move(v));
}

double med_value(const std::vector<Pass>& ps, const std::string& key) {
  return med(ps, [&](const Pass& p) {
    const auto it = p.values.find(key);
    return it == p.values.end() ? 0.0 : it->second;
  });
}

double span_median_ns(const SpanStats& st, const std::string& name) {
  const auto it = st.by_name.find(name);
  return it == st.by_name.end() ? 0.0 : median(it->second.dur_ns);
}

void add_end_to_end(Result& r, Workload& wl, const std::vector<Pass>& setups,
                    const std::vector<Pass>& passes) {
  r.add("wall_s", med(passes, [](const Pass& p) { return p.wall_s; }), "s");
  r.add("cpu_s", med(passes, [](const Pass& p) { return p.cpu_s; }), "s");
  r.add("setup_s", med(setups, [](const Pass& p) { return p.wall_s; }), "s");
  r.add("peak_rss_mb", static_cast<double>(usage().ru_maxrss) / 1024, "MB");
  // Per-pass order statistics, then their median over the passes: a
  // burst of host load that slows a few passes does not reach them.
  r.add("op_p50_us", med(passes, [](const Pass& p) { return p.op_p50_us; }), "us");
  r.add("op_tail_us", med(passes, [](const Pass& p) { return p.op_tail_us; }), "us");
  std::fprintf(stderr, "perfbench: %llu ops per pass over %zu passes, tail percentile p%g\n",
               static_cast<unsigned long long>(wl.ops_per_pass()), passes.size(),
               wl.tail_percentile());
  const Accuracy a = wl.accuracy();
  r.attempted += a.checks;
  r.failed += a.failed;
  r.add("calib_err_pct", a.calib_err_pct, "%");
  r.add("heldout_err_pct", a.heldout_err_pct, "%");
}

void add_per_layer(Result& r, const std::vector<Pass>& setups,
                   const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
                   const SpanStats& st) {
  const Counters& c = untraced.front().counters;
  auto count = [&](Counter k) { return static_cast<double>(c[k]); };
  auto value = [&](const std::string& key) { return med_value(untraced, key); };
  auto span = [&](const std::string& name, double per_unit_ns) {
    return span_median_ns(st, name) / per_unit_ns;
  };
  const double packets = count(kPackets);

  r.add("sim.events", count(kEvents), "count");
  r.add("sim.events_per_packet", ratio(count(kEvents), packets), "ratio");
  r.add("sim.ns_per_event", med(untraced, [](const Pass& p) {
          return ratio(p.sim_wall_s * 1e9, static_cast<double>(p.counters[kEvents]));
        }), "ns");
  r.add("sim.new_allocs", count(kNewAllocs), "count");
  r.add("sim.switches", count(kSwitches), "count");
  r.add("sim.switches_per_packet", ratio(count(kSwitches), packets), "ratio");
  r.add("sim.world_build_ms", span("sim.world_build", 1e6), "ms");

  r.add("sphw.packets", packets, "count");
  r.add("sphw.bytes", count(kBytes), "bytes");
  r.add("sphw.doorbells_per_packet", ratio(count(kDoorbells), packets), "ratio");
  r.add("sphw.payload_new_buffers", med(untraced, [](const Pass& p) {
          return static_cast<double>(p.counters[kPayloadNewBuffers]);
        }), "count");
  r.add("sphw.fused_frac",
        ratio(count(kFused), count(kFused) + count(kFusedRollbacks)), "ratio");
  r.add("sphw.fused_rollbacks", count(kFusedRollbacks), "count");
  r.add("sphw.drops", count(kDrops), "count");
  r.add("sphw.raw_rtt_host_us", span("sphw.raw_rtt", 1e3), "us");
  r.add("sphw.virt_raw_rtt_us", value("sphw.virt_raw_rtt_us"), "virt_us");

  r.add("am.msgs", count(kAmMsgs), "count");
  r.add("am.chunks", count(kAmChunks), "count");
  r.add("am.acks", count(kAmAcks), "count");
  r.add("am.retransmits", count(kAmRetransmits), "count");
  r.add("am.dups_dropped", count(kAmDups), "count");
  const double raw_ns = span_median_ns(st, "sphw.raw_rtt");
  const double am_ns = span_median_ns(st, "am.rtt");
  r.add("am.rtt_host_over_raw_us", raw_ns > 0 && am_ns > 0 ? (am_ns - raw_ns) / 1e3 : 0,
        "us");
  r.add("am.request_host_ns", span("am.request_1", 1), "ns");
  r.add("am.store_host_us", span("am.store_async", 1e3), "us");
  r.add("am.bulk_host_mbps", value("am.bulk_host_mbps"), "MB/s");
  r.add("am.virt_rtt_us", value("am.virt_rtt_us"), "virt_us");
  r.add("am.virt_bw_mbps", value("am.virt_bw_mbps"), "MB/s");

  r.add("mpl.host_us_per_packet", value("mpl.host_us_per_packet"), "us");
  r.add("mpl.host_growth", value("mpl.host_growth"), "ratio");

  for (const char* app : {"smpsort_small", "rdxsort_small", "rdxsort_bulk", "mm",
                          "mpl_smpsort_n", "mpl_smpsort_2n"}) {
    const std::string key = std::string("splitc.") + app;
    r.add(key + "_host_s", span(key, 1e9), "s");
    r.add(key + "_virt_comm_s", value(key + "_virt_comm_s"), "virt_s");
    r.add(key + "_virt_cpu_s", value(key + "_virt_cpu_s"), "virt_s");
  }

  r.add("mpi.eager_sends", count(kMpiEager), "count");
  r.add("mpi.rdv_sends", count(kMpiRdv), "count");
  r.add("mpi.hybrid_sends", count(kMpiHybrid), "count");
  r.add("mpi.sends_blocked_on_buffer", count(kMpiBlocked), "count");
  r.add("mpif.eager_sends", count(kMpifEager), "count");
  r.add("mpif.rdv_sends", count(kMpifRdv), "count");
  for (const NasKernel& k : nas_kernels()) {
    r.add(std::string(k.am_span) + "_host_ms", span(k.am_span, 1e6), "ms");
    r.add(std::string(k.f_span) + "_host_ms", span(k.f_span, 1e6), "ms");
  }

  for (const char* d : {"driver.points", "driver.cache_misses", "driver.workers_used"}) {
    r.add(d, value(d), "count");
  }
  r.add("driver.efficiency", value("driver.efficiency"), "ratio");
  r.add("driver.cpu_per_wall", value("driver.cpu_per_wall"), "ratio");

  r.add("host.minflt", med(untraced, [](const Pass& p) { return double(p.minflt); }),
        "count");
  r.add("host.setup_minflt", med(setups, [](const Pass& p) { return double(p.minflt); }),
        "count");
  r.add("host.nivcsw", med(untraced, [](const Pass& p) { return double(p.nivcsw); }),
        "count");

  const auto wall = [](const Pass& p) { return p.wall_s; };
  r.add("trace.overhead_frac", ratio(med(traced, wall), med(untraced, wall)) - 1, "ratio");
  r.add("trace.spans", med_value(traced, "trace.spans"), "count");
}

/// Counts every pass's checks, and checks that each pass did exactly the
/// work of the first set-up pass.
void verify(Result& r, const std::vector<const std::vector<Pass>*>& groups) {
  const Pass& ref = groups.front()->front();
  for (const auto* g : groups) {
    for (const Pass& p : *g) {
      r.attempted += p.attempted + 1;
      r.failed += p.failed;
      if (p.failed != 0) {
        std::fprintf(stderr, "perfbench: FAILED %llu checks, first: %s\n",
                     static_cast<unsigned long long>(p.failed), p.first_failure.c_str());
      }
      const std::string diff = p.counters.diff(ref.counters);
      if (!diff.empty()) {
        ++r.failed;
        std::fprintf(stderr, "perfbench: FAILED deterministic counters differ: %s\n",
                     diff.c_str());
      }
    }
  }
}

void report(const Options& o, const std::vector<Pass>& setups,
            const std::vector<Pass>& passes, const SpanStats* st) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  const auto q = quartiles(walls);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu set-ups, %zu passes, pass wall "
               "quartiles %.6f %.6f %.6f s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               setups.size(), passes.size(), q[0], q[1], q[2]);
  const Counters& c = passes.front().counters;
  for (int i = 0; i < kNumCounters; ++i) {
    if (c.v[i] == 0) continue;
    std::fprintf(stderr, "  %-28s %llu\n", counter_name(static_cast<Counter>(i)),
                 static_cast<unsigned long long>(c.v[i]));
  }
  if (st == nullptr) return;
  for (const auto& [layer, ns] : st->self_ns_by_layer()) {
    std::fprintf(stderr, "  self %-10s %12.3f ms over %zu traced passes\n",
                 layer.c_str(), ns / 1e6, passes.size());
  }
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<am_micro|splitc_am|splitc_mpl|paper_sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage_error(("missing value for " + flag).c_str());
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage_error("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        return usage_error("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage_error("bad --trace");
      }
      o.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      return usage_error(("unknown flag " + flag).c_str());
    }
  }
  std::unique_ptr<Workload> wl;
  if (o.workload == "am_micro") wl = make_am_micro(o.seed);
  else if (o.workload == "splitc_am") wl = make_splitc_am(o.seed);
  else if (o.workload == "splitc_mpl") wl = make_splitc_mpl(o.seed);
  else if (o.workload == "paper_sweep") wl = make_paper_sweep(o.seed);
  else return usage_error("unknown workload");

  std::vector<Pass> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(timed_pass(*wl, nullptr));

  Result r;
  if (!o.trace) {
    const std::vector<Pass> passes =
        run_passes(*wl, o.seconds, kMinPasses, nullptr, nullptr);
    add_end_to_end(r, *wl, setups, passes);
    verify(r, {&setups, &passes});
    report(o, setups, passes, nullptr);
  } else {
    SpanStats st;
    std::vector<SpanLog> keep;
    const std::vector<Pass> passes =
        run_passes(*wl, o.seconds, kMinTracedRunPasses, &st, &keep);
    const std::vector<Pass> untraced = with_tracing(passes, false);
    const std::vector<Pass> traced = with_tracing(passes, true);
    add_per_layer(r, setups, untraced, traced, st);
    verify(r, {&setups, &untraced, &traced});
    report(o, setups, traced, &st);
    if (!o.trace_out.empty()) {
      std::vector<const SpanLog*> logs;
      for (const SpanLog& l : keep) logs.push_back(&l);
      if (!write_trace(o.trace_out, logs, st, 200000)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      }
    }
  }
  r.correct = r.failed == 0;
  std::printf("%s\n", r.to_json().c_str());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
