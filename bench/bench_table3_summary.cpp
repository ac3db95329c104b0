// Reproduces paper Table 3 (performance summary of SP AM vs IBM MPL) and
// the section 2.3 latency numbers: one-word round-trips (AM 51.0 us, raw
// 46.5 us, MPL 88 us), asymptotic bandwidths, and half-power points.
#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::bench::AmBwMode;
using spam::bench::MplBwMode;
using spam::report::BwPoint;

std::vector<BwPoint> sweep_am(AmBwMode mode) {
  std::vector<BwPoint> curve;
  for (std::size_t s : spam::bench::figure3_sizes()) {
    curve.push_back({s, spam::bench::am_bandwidth_mbps(mode, s)});
  }
  return curve;
}

std::vector<BwPoint> sweep_mpl(MplBwMode mode) {
  std::vector<BwPoint> curve;
  for (std::size_t s : spam::bench::figure3_sizes()) {
    curve.push_back({s, spam::bench::mpl_bandwidth_mbps(mode, s)});
  }
  return curve;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  return spam::bench::run_tables([] {
    using spam::report::fmt_bytes;
    using spam::report::fmt_mbps;
    using spam::report::fmt_us;

    const double am1 = spam::bench::am_rtt_us(1);
    const double am4 = spam::bench::am_rtt_us(4);
    const double raw = spam::bench::raw_rtt_us();
    const double mpl = spam::bench::mpl_rtt_us();

    const auto async_store = sweep_am(AmBwMode::kPipelinedAsyncStore);
    const auto async_get = sweep_am(AmBwMode::kPipelinedAsyncGet);
    const auto sync_store = sweep_am(AmBwMode::kSyncStore);
    const auto sync_get = sweep_am(AmBwMode::kSyncGet);
    const auto mpl_pipe = sweep_mpl(MplBwMode::kPipelined);
    const auto mpl_block = sweep_mpl(MplBwMode::kBlocking);

    spam::report::PaperComparison cmp(
        "Table 3 — performance summary of SP AM and IBM MPL (thin nodes)");
    cmp.add("AM one-word round-trip", fmt_us(51.0), fmt_us(am1));
    cmp.add("AM per-extra-word growth", "~0.2 us/word",
            spam::report::fmt((am4 - am1) / 3.0, 2) + " us/word");
    cmp.add("raw round-trip (no flow control)", fmt_us(46.5), fmt_us(raw));
    cmp.add("AM overhead over raw", fmt_us(4.5), fmt_us(am1 - raw),
            "cache flushes + flow-control bookkeeping");
    cmp.add("MPL one-word round-trip", fmt_us(88.0), fmt_us(mpl));
    cmp.add("AM r-inf (pipelined store)", fmt_mbps(34.3),
            fmt_mbps(spam::report::r_infinity(async_store)));
    cmp.add("MPL r-inf (pipelined send)", fmt_mbps(34.6),
            fmt_mbps(spam::report::r_infinity(mpl_pipe)));
    cmp.add("AM n1/2 async store", "~260 B (scan-garbled)",
            fmt_bytes(spam::report::n_half(async_store)));
    cmp.add("AM n1/2 async get", "slightly higher",
            fmt_bytes(spam::report::n_half(async_get)));
    cmp.add("AM n1/2 sync store", "~800 B",
            fmt_bytes(spam::report::n_half(sync_store)));
    cmp.add("AM n1/2 sync get", "~3000 B",
            fmt_bytes(spam::report::n_half(sync_get)));
    cmp.add("MPL n1/2 pipelined", ">= 4x AM's (scan-garbled)",
            fmt_bytes(spam::report::n_half(mpl_pipe)));
    cmp.add("MPL n1/2 blocking", "> 3000 B",
            fmt_bytes(spam::report::n_half(mpl_block)));
    return cmp.table().render();
  });
}
