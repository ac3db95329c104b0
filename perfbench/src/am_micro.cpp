// am_micro: the paper's overhead microbenchmarks on two thin nodes, one
// operation outstanding, in three phases.
//   raw   — a ping-pong straight on the Tb2Adapter host API, with the
//           software costs of bench/micro.cpp's raw round trip;
//   rtt   — 1-word am_request_1 / am_reply_1 ping-pong (the op samples);
//   store — a pipelined 1 MB stream of 64 KB am_store_async.
// The raw phase separates AM's host cost from the adapter's.  Payload words
// and bulk bytes come from the seed and are checked on arrival.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "am/net.hpp"
#include "sim/rng.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace sim = spam::sim;
namespace sphw = spam::sphw;
namespace am = spam::am;

constexpr int kRawWarm = 20, kRawIters = 2000;
constexpr int kAmWarm = 200, kAmIters = 5000;
constexpr std::size_t kMsg = 64 * 1024;
constexpr std::size_t kStream = 1 << 20;
constexpr std::size_t kMsgsPerRep = kStream / kMsg;
constexpr int kStoreWarm = 1, kStoreReps = 4;
// Raw round-trip software costs (us), as in bench/micro.cpp.
constexpr double kSendSw = 2.6, kReplySw = 1.3, kPoll = 1.2, kHandle = 0.95;
// The virtual-time anchors, which must read exactly to four decimals: the
// steady-state 1-word AM round trip and 64 KB store-stream bandwidth.
constexpr double kAnchorRttUs = 51.3418;
constexpr double kAnchorBwMbps = 34.2020;

bool reads_as(double value, double anchor) {
  char a[32], b[32];
  std::snprintf(a, sizeof a, "%.4f", value);
  std::snprintf(b, sizeof b, "%.4f", anchor);
  return std::string(a) == b;
}

struct RawFixture {
  sim::World world{2};
  sphw::SpMachine machine{world, sphw::SpParams::thin_node()};
};

struct AmFixture {
  sim::World world{2};
  sphw::SpMachine machine{world, sphw::SpParams::thin_node()};
  am::AmNet net{machine};
};

class AmMicro final : public Workload {
 public:
  explicit AmMicro(std::uint64_t seed)
      : seed_(seed), src_(kStream), dst_(kStream) {
    sim::Rng rng(seed ^ 0x5bd1e995);
    for (auto& b : src_) b = static_cast<std::byte>(rng.next_u64());
  }

  std::uint64_t ops_per_pass() const override { return kAmIters; }

  void run_pass(Pass& p, std::vector<SpanLog>* logs) override {
    SpanLog* log = nullptr;
    if (logs != nullptr) log = &logs->emplace_back();
    LogScope scope(log);
    const ThreadCounters tc0 = ThreadCounters::sample();
    sim::Rng rng(seed_);
    raw_phase(p, rng);
    am_phases(p, rng);
    add_thread_delta(p.counters, tc0, ThreadCounters::sample());
  }

 private:
  void raw_phase(Pass& p, sim::Rng& rng) {
    const std::int64_t t_begin = now_ns();
    std::vector<std::uint64_t> words(kRawWarm + kRawIters);
    for (auto& w : words) w = rng.next_u64();
    std::optional<RawFixture> f;
    {
      Span s("sim.world_build");
      f.emplace();
    }
    sim::Time virt = 0;
    f->world.spawn(0, [&](sim::NodeCtx& ctx) {
      auto& ad = f->machine.adapter(0);
      for (int i = 0; i < kRawWarm + kRawIters; ++i) {
        if (i == kRawWarm) virt = ctx.now();
        std::optional<Span> rtt;
        if (i >= kRawWarm) rtt.emplace("sphw.raw_rtt", i);
        ctx.elapse(sim::usec(kSendSw));
        sphw::Packet pkt;
        pkt.dst = 1;
        pkt.payload_bytes = 4;
        pkt.h[0] = words[static_cast<std::size_t>(i)];
        ad.host_enqueue(ctx, std::move(pkt));
        ctx.poll_until([&] { return ad.host_rx_ready(); }, sim::usec(kPoll));
        const sphw::Packet echo = ad.host_rx_take(ctx);
        ctx.elapse(sim::usec(kHandle));
        p.check(echo.h[0] == words[static_cast<std::size_t>(i)], "raw echo word");
      }
      virt = ctx.now() - virt;
    });
    f->world.spawn(1, [&](sim::NodeCtx& ctx) {
      auto& ad = f->machine.adapter(1);
      for (int i = 0; i < kRawWarm + kRawIters; ++i) {
        ctx.poll_until([&] { return ad.host_rx_ready(); }, sim::usec(kPoll));
        const sphw::Packet ping = ad.host_rx_take(ctx);
        ctx.elapse(sim::usec(kHandle));
        ctx.elapse(sim::usec(kReplySw));
        sphw::Packet pkt;
        pkt.dst = 0;
        pkt.payload_bytes = 4;
        pkt.h[0] = ping.h[0];
        ad.host_enqueue(ctx, std::move(pkt));
      }
    });
    f->world.run();
    p.values["sphw.virt_raw_rtt_us"] = sim::to_usec(virt) / kRawIters;
    add_machine(p.counters, f->world.engine(), f->machine);
    p.sim_wall_s += static_cast<double>(now_ns() - t_begin) / 1e9;
  }

  void am_phases(Pass& p, sim::Rng& rng) {
    const std::int64_t t_begin = now_ns();
    std::vector<am::Word> words(kAmWarm + kAmIters);
    for (auto& w : words) w = static_cast<am::Word>(rng.next_u64());
    const std::vector<std::byte>& src = src_;
    std::vector<std::byte>& dst = dst_;

    std::optional<AmFixture> f;
    {
      Span s("sim.world_build");
      f.emplace();
    }
    am::Endpoint& e0 = f->net.ep(0);
    am::Endpoint& e1 = f->net.ep(1);

    // Phase rtt: the echoed word must come back unchanged.
    int pongs = 0;
    am::Word got = 0;
    const int h_pong = e0.register_handler(
        [&](am::Endpoint&, am::Token, const am::Word* a, int) {
          got = a[0];
          ++pongs;
        });
    const int h_ping = e1.register_handler(
        [h_pong](am::Endpoint& ep, am::Token t, const am::Word* a, int) {
          ep.reply_1(t, h_pong, a[0]);
        });
    sim::Time virt_rtt = 0;
    p.op_us.reserve(p.op_us.size() + kAmIters);
    f->world.spawn(0, [&](sim::NodeCtx& ctx) {
      for (int i = 0; i < kAmWarm + kAmIters; ++i) {
        if (i == kAmWarm) virt_rtt = ctx.now();
        const bool timed = i >= kAmWarm;
        const am::Word w = words[static_cast<std::size_t>(i)];
        const int want = pongs + 1;
        const std::int64_t t0 = now_ns();
        {
          std::optional<Span> rtt;
          if (timed) rtt.emplace("am.rtt", i);
          {
            std::optional<Span> s;
            if (timed) s.emplace("am.request_1", i);
            e0.request_1(1, h_ping, w);
          }
          std::optional<Span> s;
          if (timed) s.emplace("am.poll_until", i);
          e0.poll_until([&] { return pongs >= want; });
        }
        if (timed) p.op_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        p.check(got == w, "AM echo word");
      }
      virt_rtt = ctx.now() - virt_rtt;
    });
    f->world.spawn(1, [&](sim::NodeCtx&) {
      e1.poll_until([&] { return pongs >= kAmWarm + kAmIters; });
    });
    f->world.run();
    const double rtt_us = sim::to_usec(virt_rtt) / kAmIters;
    p.values["am.virt_rtt_us"] = rtt_us;
    p.check(reads_as(rtt_us, kAnchorRttUs), "AM round trip reads 51.3418 us");

    // Phase store: every rep lands the seeded 1 MB in a cleared buffer.
    bool done = false;
    sim::Time virt_store = 0;
    double host_store_s = 0;
    f->world.spawn(0, [&](sim::NodeCtx& ctx) {
      std::size_t completions = 0;
      for (int rep = 0; rep < kStoreWarm + kStoreReps; ++rep) {
        const bool timed = rep >= kStoreWarm;
        std::memset(dst.data(), 0, dst.size());
        const sim::Time v0 = ctx.now();
        const std::int64_t t0 = now_ns();
        const std::size_t want = completions + kMsgsPerRep;
        for (std::size_t i = 0; i < kMsgsPerRep; ++i) {
          std::optional<Span> s;
          if (timed) s.emplace("am.store_async", static_cast<std::uint32_t>(i));
          e0.store_async(1, dst.data() + i * kMsg, src.data() + i * kMsg, kMsg,
                         0, 0, [&] { ++completions; });
        }
        e0.poll_until([&] { return completions >= want; });
        if (timed) {
          host_store_s += static_cast<double>(now_ns() - t0) / 1e9;
          virt_store += ctx.now() - v0;
        }
        p.check(std::memcmp(dst.data(), src.data(), kStream) == 0,
                "bulk destination bytes");
      }
      done = true;
    });
    f->world.spawn(1, [&](sim::NodeCtx&) { e1.poll_until([&] { return done; }); });
    f->world.run();
    const double bytes = static_cast<double>(kStream) * kStoreReps;
    const double bw = bytes / sim::to_sec(virt_store) / 1e6;
    p.values["am.virt_bw_mbps"] = bw;
    p.values["am.bulk_host_mbps"] = bytes / host_store_s / 1e6;
    p.check(reads_as(bw, kAnchorBwMbps), "64 KB store stream reads 34.2020 MB/s");

    add_machine(p.counters, f->world.engine(), f->machine);
    add_am(p.counters, e0);
    add_am(p.counters, e1);
    p.sim_wall_s += static_cast<double>(now_ns() - t_begin) / 1e9;
  }

  std::uint64_t seed_;
  // The stream's source bytes (from the seed) and its landing buffer, made
  // once so that a pass does not page in 2 MB of benchmark buffers.
  std::vector<std::byte> src_;
  std::vector<std::byte> dst_;
};

}  // namespace

std::unique_ptr<Workload> make_am_micro(std::uint64_t seed) {
  return std::make_unique<AmMicro>(seed);
}

}  // namespace perfbench
