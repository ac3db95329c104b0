// Reproduces paper Table 4: communication characteristics of the TMC CM-5,
// Meiko CS-2, U-Net/ATM cluster, and IBM SP — message overhead, round-trip
// latency, and per-node bandwidth, measured on the respective machine
// models.
#include "logp/loggp.hpp"
#include "tables.hpp"

namespace spam::bench {

namespace {

using logp::LogGpMachine;
using logp::LogGpParams;

// A LogGP world takes the cell's engine fast path, as an SpMachine takes
// it from its SpParams.
double loggp_rtt_us(const LogGpParams& params, Cell c) {
  sim::World w(2);
  w.engine().set_fastpath(c.fastpath);
  LogGpMachine m(w, params);
  std::uint64_t flag0 = 0, flag1 = 0;
  sim::Time rtt = 0;
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      if (v == 2) rtt = ctx.now();
      m.ep(0).put_bytes(1, &flag1, &v, 8);
      while (flag0 < v) m.ep(0).poll();
    }
    rtt = (ctx.now() - rtt) / 2;
  });
  w.spawn(1, [&](sim::NodeCtx&) {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      while (flag1 < v) m.ep(1).poll();
      m.ep(1).put_bytes(0, &flag0, &v, 8);
    }
  });
  w.run();
  return sim::to_usec(rtt);
}

double loggp_bw_mbps(const LogGpParams& params, Cell c) {
  sim::World w(2);
  w.engine().set_fastpath(c.fastpath);
  LogGpMachine m(w, params);
  const std::size_t len = 1 << 20;
  std::vector<std::byte> src(len, std::byte{3});
  std::vector<std::byte> dst(len, std::byte{0});
  sim::Time elapsed = 0;
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    m.ep(0).put_bytes(1, dst.data(), src.data(), len);
    while (m.ep(0).outstanding() > 0) m.ep(0).poll();
    elapsed = ctx.now() - t0;
  });
  w.run();
  return static_cast<double>(len) / sim::to_sec(elapsed) / 1e6;
}

/// A LogGP measurement's cache key: its name, every parameter, the cell.
driver::Hasher loggp_key(const char* what, const LogGpParams& p, Cell c) {
  driver::Hasher h(what);
  h.mix(p.o_send_us).mix(p.o_recv_us).mix(p.latency_us).mix(p.gap_us);
  h.mix(p.gap_per_byte_us).mix(p.cpu_scale).mix(p.poll_us);
  h.mix(c.fastpath);
  return h;
}

struct Row {
  const char* machine;
  const char* cpu;
  double paper_overhead_us;
  double paper_rtt_us;
  double paper_bw;
};

}  // namespace

std::string table4_machines(Cell c) {
  using report::fmt;

  const LogGpParams presets[] = {LogGpParams::cm5(), LogGpParams::meiko_cs2(),
                                 LogGpParams::unet_atm()};
  const Row rows[] = {
      {"TMC CM-5", "33 MHz Sparc-2", 3.0, 12.0, 10.0},
      {"Meiko CS-2", "40 MHz SuperSparc", 11.0, 25.0, 39.0},
      {"U-Net/ATM", "50/60 MHz Sparc-20", 3.0, 66.0, 14.0},
  };

  report::Table tab(
      "Table 4 — machine communication characteristics (paper / measured)");
  tab.set_header({"machine", "CPU", "overhead (us)", "round-trip (us)",
                  "bandwidth (MB/s)"});
  for (int i = 0; i < 3; ++i) {
    const LogGpParams& p = presets[i];
    const double rtt = cached(loggp_key("loggp_rtt_us", p, c),
                              [p, c] { return loggp_rtt_us(p, c); });
    const double bw = cached(loggp_key("loggp_bw_mbps", p, c),
                             [p, c] { return loggp_bw_mbps(p, c); });
    tab.add_row({rows[i].machine, rows[i].cpu,
                 fmt(rows[i].paper_overhead_us) + " / " +
                     fmt(p.o_send_us + p.o_recv_us),
                 fmt(rows[i].paper_rtt_us) + " / " + fmt(rtt),
                 fmt(rows[i].paper_bw) + " / " + fmt(bw)});
  }
  // The SP row uses the detailed TB2 model, not LogGP.
  const double sp_overhead = am_request_cost_us(1, hw(c)) -
                             am_poll_empty_us(hw(c)) +
                             am_reply_cost_us(1, hw(c));
  tab.add_row(
      {"IBM SP (SP AM)", "66 MHz Power2",
       fmt(3.0 + 1.4, 1) + "-ish / " + fmt(sp_overhead),
       fmt(51.0) + " / " + fmt(am_rtt_us(1, hw(c))),
       fmt(34.0) + " / " +
           fmt(am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, 1 << 20,
                                 hw(c)))});
  return tab.render();
}

}  // namespace spam::bench
