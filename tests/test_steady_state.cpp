// Steady-state gates on the paper's two microbenchmark workloads, both on a
// warm two-node thin-node machine:
//   pingpong — 1-word request_1/reply_1 round trips (section 2.3);
//   bulk     — a 1 MB store_async stream in 64 KB messages (section 2.4).
//
// The virtual-time anchors are exact: host-side changes (event fusion,
// queue layout, the debt ledger) may move host time, never the model's
// RTT or bandwidth.  And once warm, the measured phase must not grow any
// pool: that is the event core's zero-allocation property.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "am/net.hpp"
#include "harness.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"

namespace spam {
namespace {

using bench::AllocCounters;

/// Measured phase of one workload: its virtual metric and the allocation
/// counter growth across it.
struct Phase {
  double virt = 0.0;  // RTT in us (pingpong) or MB/s (bulk)
  AllocCounters new_allocs;
};

struct Fixture {
  sim::World world{2};
  sphw::SpMachine machine{world, sphw::SpParams::thin_node()};
  am::AmNet net{machine};
};

// `iters` measured round trips after `warm` warm-up round trips.
Phase run_pingpong(int warm, int iters) {
  Fixture f;
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++pongs; });
  const int h_ping = e1.register_handler(
      [&, h_pong](am::Endpoint& ep, am::Token t, const am::Word* a, int) {
        ep.reply_1(t, h_pong, a[0]);
      });

  Phase r;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    auto round_trip = [&] {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, 1);
      e0.poll_until([&] { return pongs >= want; });
    };
    for (int i = 0; i < warm; ++i) round_trip();
    const sim::Time t0 = ctx.now();
    const AllocCounters a0 = AllocCounters::sample(ctx.engine());
    for (int i = 0; i < iters; ++i) round_trip();
    r.virt = sim::to_usec(ctx.now() - t0) / iters;
    r.new_allocs = AllocCounters::sample(ctx.engine()) - a0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return pongs >= warm + iters; });
  });
  f.world.run();
  return r;
}

// `reps` measured 1 MB streams after `warm` warm-up streams; the metric is
// the paper's Figure 3 async-store point at 64 KB.
Phase run_bulk(int warm, int reps) {
  constexpr std::size_t kMsg = 64 * 1024;
  constexpr std::size_t kStream = 1 << 20;
  constexpr std::size_t kMsgsPerRep = kStream / kMsg;
  Fixture f;
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  std::vector<std::byte> src(kMsg, std::byte{0x5a});
  std::vector<std::byte> dst(kStream);
  bool done = false;

  Phase r;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    std::size_t completions = 0;
    auto stream_once = [&] {
      const std::size_t want = completions + kMsgsPerRep;
      for (std::size_t i = 0; i < kMsgsPerRep; ++i) {
        e0.store_async(1, dst.data() + i * kMsg, src.data(), kMsg, 0, 0,
                       [&] { ++completions; });
      }
      e0.poll_until([&] { return completions >= want; });
    };
    for (int i = 0; i < warm; ++i) stream_once();
    const sim::Time t0 = ctx.now();
    const AllocCounters a0 = AllocCounters::sample(ctx.engine());
    for (int i = 0; i < reps; ++i) stream_once();
    const double virt_s = sim::to_sec(ctx.now() - t0);
    r.virt = static_cast<double>(kStream) * reps / virt_s / 1e6;
    r.new_allocs = AllocCounters::sample(ctx.engine()) - a0;
    done = true;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return done; });
  });
  f.world.run();
  return r;
}

// The sizes every case below runs at.
Phase pingpong() { return run_pingpong(/*warm=*/50, /*iters=*/2000); }
Phase bulk() { return run_bulk(/*warm=*/1, /*reps=*/4); }

std::string fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

void expect_no_growth(const AllocCounters& a) {
  EXPECT_EQ(a.event_nodes, 0u);
  EXPECT_EQ(a.heap_actions, 0u);
  EXPECT_EQ(a.payload_buffers, 0u);
}

TEST(SteadyState, PingPongRttAnchorIs51_3418us) {
  EXPECT_EQ(fixed4(pingpong().virt), "51.3418");
}

TEST(SteadyState, BulkStoreAsyncAnchorIs34_2020MBps) {
  EXPECT_EQ(fixed4(bulk().virt), "34.2020");
}

TEST(SteadyState, WarmPingPongAllocatesNothing) {
  expect_no_growth(pingpong().new_allocs);
}

TEST(SteadyState, WarmBulkStreamAllocatesNothing) {
  expect_no_growth(bulk().new_allocs);
}

}  // namespace
}  // namespace spam
