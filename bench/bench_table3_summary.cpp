// Reproduces paper Table 3 (performance summary of SP AM vs IBM MPL) and
// the section 2.3 latency numbers: one-word round-trips (AM 51.0 us, raw
// 46.5 us, MPL 88 us), asymptotic bandwidths, and half-power points.
#include "tables.hpp"

namespace spam::bench {

namespace {

using report::BwPoint;

std::vector<BwPoint> sweep_am(AmBwMode mode, Cell c) {
  std::vector<BwPoint> curve;
  for (std::size_t s : figure3_sizes()) {
    curve.push_back({s, am_bandwidth_mbps(mode, s, hw(c))});
  }
  return curve;
}

std::vector<BwPoint> sweep_mpl(MplBwMode mode, Cell c) {
  std::vector<BwPoint> curve;
  for (std::size_t s : figure3_sizes()) {
    curve.push_back({s, mpl_bandwidth_mbps(mode, s, hw(c))});
  }
  return curve;
}

}  // namespace

std::string table3_summary(Cell c) {
  using report::fmt_bytes;
  using report::fmt_mbps;
  using report::fmt_us;

  const double am1 = am_rtt_us(1, hw(c));
  const double am4 = am_rtt_us(4, hw(c));
  const double raw = raw_rtt_us(hw(c));
  const double mpl = mpl_rtt_us(hw(c));

  const auto async_store = sweep_am(AmBwMode::kPipelinedAsyncStore, c);
  const auto async_get = sweep_am(AmBwMode::kPipelinedAsyncGet, c);
  const auto sync_store = sweep_am(AmBwMode::kSyncStore, c);
  const auto sync_get = sweep_am(AmBwMode::kSyncGet, c);
  const auto mpl_pipe = sweep_mpl(MplBwMode::kPipelined, c);
  const auto mpl_block = sweep_mpl(MplBwMode::kBlocking, c);

  report::PaperComparison cmp(
      "Table 3 — performance summary of SP AM and IBM MPL (thin nodes)");
  cmp.add("AM one-word round-trip", fmt_us(51.0), fmt_us(am1));
  cmp.add("AM per-extra-word growth", "~0.2 us/word",
          report::fmt((am4 - am1) / 3.0, 2) + " us/word");
  cmp.add("raw round-trip (no flow control)", fmt_us(46.5), fmt_us(raw));
  cmp.add("AM overhead over raw", fmt_us(4.5), fmt_us(am1 - raw),
          "cache flushes + flow-control bookkeeping");
  cmp.add("MPL one-word round-trip", fmt_us(88.0), fmt_us(mpl));
  cmp.add("AM r-inf (pipelined store)", fmt_mbps(34.3),
          fmt_mbps(report::r_infinity(async_store)));
  cmp.add("MPL r-inf (pipelined send)", fmt_mbps(34.6),
          fmt_mbps(report::r_infinity(mpl_pipe)));
  cmp.add("AM n1/2 async store", "~260 B (scan-garbled)",
          fmt_bytes(report::n_half(async_store)));
  cmp.add("AM n1/2 async get", "slightly higher",
          fmt_bytes(report::n_half(async_get)));
  cmp.add("AM n1/2 sync store", "~800 B",
          fmt_bytes(report::n_half(sync_store)));
  cmp.add("AM n1/2 sync get", "~3000 B",
          fmt_bytes(report::n_half(sync_get)));
  cmp.add("MPL n1/2 pipelined", ">= 4x AM's (scan-garbled)",
          fmt_bytes(report::n_half(mpl_pipe)));
  cmp.add("MPL n1/2 blocking", "> 3000 B",
          fmt_bytes(report::n_half(mpl_block)));
  return cmp.table().render();
}

}  // namespace spam::bench
