// Reproduces paper Table 5 (absolute Split-C benchmark times, 8 processors)
// and Figure 4 (times split into cpu and network phases, normalized to the
// SP AM column): blocked matrix multiply in two blockings, sample sort and
// radix sort in small-message and bulk variants, across five machines:
// SP AM, SP MPL, CM-5, Meiko CS-2, U-Net/ATM.
//
// Sort sizes are scaled to 64K keys (the scan of the paper garbles its key
// counts); shapes, not absolute seconds, are the reproduction target.
#include <bit>
#include <stdexcept>

#include "apps/splitc_apps.hpp"
#include "tables.hpp"

namespace spam::bench {

namespace {

using apps::PhaseTimes;
using apps::SortVariant;
using splitc::Backend;
using splitc::SplitCConfig;
using splitc::SplitCWorld;

constexpr int kProcs = 8;
constexpr std::size_t kKeys = 64 * 1024;

struct Machine {
  std::string name;
  SplitCConfig cfg;
};

std::vector<Machine> machines(Cell c) {
  std::vector<Machine> v;
  SplitCConfig am;
  am.nodes = kProcs;
  am.backend = Backend::kSpAm;
  am.hw = hw(c);
  v.push_back({"SP AM", am});
  SplitCConfig mpl = am;
  mpl.backend = Backend::kSpMpl;
  v.push_back({"SP MPL", mpl});
  for (auto lp : {logp::LogGpParams::cm5(), logp::LogGpParams::meiko_cs2(),
                  logp::LogGpParams::unet_atm()}) {
    SplitCConfig cfg = am;
    cfg.backend = Backend::kLogGp;
    cfg.loggp = lp;
    v.push_back({lp.name, cfg});
  }
  return v;
}

struct App {
  const char* name;
  PhaseTimes (*run)(SplitCWorld&);
};

constexpr App kApps[] = {
    {"mm 4x4 blocks of 128x128",
     [](SplitCWorld& w) { return apps::run_matmul(w, 4, 128); }},
    {"mm 16x16 blocks of 16x16",
     [](SplitCWorld& w) { return apps::run_matmul(w, 16, 16); }},
    {"smpsort small-msg 64K",
     [](SplitCWorld& w) {
       return apps::run_sample_sort(w, kKeys, SortVariant::kSmallMessage);
     }},
    {"smpsort bulk 64K",
     [](SplitCWorld& w) {
       return apps::run_sample_sort(w, kKeys, SortVariant::kBulk);
     }},
    {"rdxsort small-msg 64K",
     [](SplitCWorld& w) {
       return apps::run_radix_sort(w, kKeys, SortVariant::kSmallMessage);
     }},
    {"rdxsort bulk 64K",
     [](SplitCWorld& w) {
       return apps::run_radix_sort(w, kKeys, SortVariant::kBulk);
     }},
};

/// One Table 5 cell: `app` on machine `m`, cached as the record
/// {total_s, comm_s, cpu_s, valid, checksum bits}.
PhaseTimes phase_times(const App& app, const Machine& m) {
  driver::Hasher h("table5_splitc");
  mix(h.mix(app.name).mix(m.name.c_str()), m.cfg.hw);
  const Record r = cached(h, 5, [app, cfg = m.cfg] {
    SplitCWorld w(cfg);
    // A world that ignored its cell would compare production with itself.
    if (w.world().engine().fastpath() != cfg.hw.network_fastpath) {
      throw std::logic_error("Table 5 world ignores its mode cell");
    }
    const PhaseTimes pt = app.run(w);
    return Record{pt.total_s, pt.comm_s, pt.cpu_s, pt.valid ? 1.0 : 0.0,
                  std::bit_cast<double>(pt.checksum)};
  });
  return {r[0], r[1], r[2], r[3] != 0, std::bit_cast<std::uint64_t>(r[4])};
}

}  // namespace

std::string table5_splitc(Cell c) {
  const std::vector<Machine> mach = machines(c);
  std::vector<std::string> hdr{"benchmark"};
  for (const Machine& m : mach) hdr.push_back(m.name);
  report::Table tab(
      "Table 5 — Split-C benchmark times on 8 processors (seconds)");
  tab.set_header(hdr);
  report::Table fig(
      "Figure 4 — cpu / net split, normalized to the SP AM total");
  fig.set_header(hdr);
  for (const App& app : kApps) {
    std::vector<std::string> row{app.name};
    std::vector<std::string> split{app.name};
    const double base = phase_times(app, mach[0]).total_s;  // SP AM
    for (const Machine& m : mach) {
      const PhaseTimes pt = phase_times(app, m);
      row.push_back(report::fmt(pt.total_s, 3) +
                    (pt.valid ? "" : " (INVALID)"));
      split.push_back("cpu " + report::fmt(pt.cpu_s / base, 2) + " net " +
                      report::fmt(pt.comm_s / base, 2));
    }
    tab.add_row(row);
    fig.add_row(split);
  }
  return tab.render() + fig.render() +
         "\nShape checks (paper): MPL >> AM on small-message sorts; MPL ~= "
         "AM on bulk runs;\nSP cpu phases shortest of all machines; SP AM "
         "net phase competitive with CM-5/CS-2\ndespite higher latency.\n";
}

}  // namespace spam::bench
