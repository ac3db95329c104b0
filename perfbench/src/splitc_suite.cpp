// splitc_am and splitc_mpl: Table 5 Split-C apps on 8 thin nodes, each app
// in a world of its own per pass, sort keys generated from the seed.
//   splitc_am  — small-message sample sort, small-message radix sort, bulk
//                radix sort and mm (16x16 blocks of 16x16) over SP AM;
//   splitc_mpl — the small-message sample sort over SP MPL at N and 2N
//                keys, whose host-time ratio against the event ratio is
//                mpl.host_growth.
// An operation is one app run.  Every app runs once per pass, so the
// pass's slowest run, which op_tail_us reports, is always the same app.
#include <functional>
#include <optional>
#include <string>

#include "apps/splitc_apps.hpp"
#include "splitc/am_backend.hpp"
#include "splitc/splitc_world.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace splitc = spam::splitc;
using spam::apps::PhaseTimes;
using spam::apps::SortVariant;

struct App {
  const char* span;  // "splitc.<app>"; the metric names use <app>
  splitc::Backend backend;
  std::function<PhaseTimes(splitc::SplitCWorld&, std::uint64_t seed)> run;
};

std::string app_key(const App& a) { return std::string(a.span).substr(7); }

class SplitcSuite final : public Workload {
 public:
  SplitcSuite(std::uint64_t seed, std::vector<App> apps, bool growth)
      : seed_(seed), apps_(std::move(apps)), growth_(growth) {}

  std::uint64_t ops_per_pass() const override { return apps_.size(); }
  double tail_percentile() const override { return 100; }

  void run_pass(Pass& p, std::vector<SpanLog>* logs) override {
    SpanLog* log = nullptr;
    if (logs != nullptr) log = &logs->emplace_back();
    LogScope scope(log);
    const ThreadCounters tc0 = ThreadCounters::sample();
    std::vector<double> host_s, events;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const App& app = apps_[i];
      const std::int64_t t0 = now_ns();
      splitc::SplitCConfig cfg;
      cfg.nodes = 8;
      cfg.backend = app.backend;
      std::optional<splitc::SplitCWorld> w;
      {
        Span s("sim.world_build");
        w.emplace(cfg);
      }
      PhaseTimes r;
      const std::int64_t t_app = now_ns();
      {
        Span s(app.span);
        r = app.run(*w, seed_);
      }
      host_s.push_back(static_cast<double>(now_ns() - t_app) / 1e9);
      p.op_us.push_back(host_s.back() * 1e6);
      p.check(r.valid, "Split-C app verified its result");
      // The same input must give the same output in every pass.
      if (checksums_.size() <= i) checksums_.push_back(r.checksum);
      p.check(r.checksum == checksums_[i], "Split-C checksum repeats");

      Counters c;
      add_machine(c, w->world().engine(), *w->sp_machine());
      if (app.backend == splitc::Backend::kSpAm) {
        for (int n = 0; n < w->size(); ++n) {
          auto* am = dynamic_cast<splitc::AmBackend*>(&w->rt(n).transport());
          if (am != nullptr) add_am(c, am->endpoint());
        }
      }
      events.push_back(static_cast<double>(c[kEvents]));
      p.counters += c;
      const std::string key = "splitc." + app_key(app);
      p.values[key + "_virt_comm_s"] = r.comm_s;
      p.values[key + "_virt_cpu_s"] = r.cpu_s;
      p.sim_wall_s += static_cast<double>(now_ns() - t0) / 1e9;
    }
    add_thread_delta(p.counters, tc0, ThreadCounters::sample());
    if (growth_) {
      p.values["mpl.host_growth"] =
          ratio(ratio(host_s[1], host_s[0]), ratio(events[1], events[0]));
      p.values["mpl.host_us_per_packet"] =
          ratio((host_s[0] + host_s[1]) * 1e6,
                static_cast<double>(p.counters[kPackets]));
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<App> apps_;
  bool growth_;
  std::vector<std::uint64_t> checksums_;
};

App sort_app(const char* span, splitc::Backend backend, bool radix,
             SortVariant variant, std::size_t keys) {
  return {span, backend,
          [radix, variant, keys](splitc::SplitCWorld& w, std::uint64_t seed) {
            return radix ? spam::apps::run_radix_sort(w, keys, variant, seed)
                         : spam::apps::run_sample_sort(w, keys, variant, seed);
          }};
}

}  // namespace

std::unique_ptr<Workload> make_splitc_am(std::uint64_t seed) {
  constexpr std::size_t kKeys = 16 * 1024;
  const auto am = splitc::Backend::kSpAm;
  std::vector<App> apps = {
      sort_app("splitc.smpsort_small", am, false, SortVariant::kSmallMessage, kKeys),
      sort_app("splitc.rdxsort_small", am, true, SortVariant::kSmallMessage, kKeys),
      sort_app("splitc.rdxsort_bulk", am, true, SortVariant::kBulk, kKeys),
      {"splitc.mm", am,
       [](splitc::SplitCWorld& w, std::uint64_t) {
         return spam::apps::run_matmul(w, 16, 16);
       }},
  };
  return std::make_unique<SplitcSuite>(seed, std::move(apps), false);
}

std::unique_ptr<Workload> make_splitc_mpl(std::uint64_t seed) {
  constexpr std::size_t kN = 8 * 1024;
  const auto mpl = splitc::Backend::kSpMpl;
  std::vector<App> apps = {
      sort_app("splitc.mpl_smpsort_n", mpl, false, SortVariant::kSmallMessage, kN),
      sort_app("splitc.mpl_smpsort_2n", mpl, false, SortVariant::kSmallMessage, 2 * kN),
  };
  return std::make_unique<SplitcSuite>(seed, std::move(apps), true);
}

}  // namespace perfbench
