// SP AM basics: request/reply semantics, argument marshalling, latency
// calibration bands, window behaviour for small messages.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "am/net.hpp"

namespace spam::am {
namespace {

struct Fixture {
  sim::World world;
  sphw::SpMachine machine;
  AmNet net;
  explicit Fixture(int nodes, sphw::SpParams hw = sphw::SpParams::thin_node(),
                   AmParams am = {})
      : world(nodes), machine(world, hw), net(machine, am) {}
};

TEST(AmBasic, RequestDeliversArgs) {
  Fixture f(2);
  std::vector<Word> got;
  int from = -1;

  const int h = f.net.ep(1).register_handler(
      [&](Endpoint&, Token t, const Word* a, int n) {
        from = t.src;
        got.assign(a, a + n);
      });

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).request_4(1, h, 11, 22, 33, 44);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return !got.empty(); });
  });
  f.world.run();

  EXPECT_EQ(from, 0);
  EXPECT_EQ(got, (std::vector<Word>{11, 22, 33, 44}));
}

TEST(AmBasic, PingPongRoundTripLatencyMatchesPaper) {
  // Paper section 2.3: one-word round-trip of 51.0 us on thin nodes.
  Fixture f(2);
  Endpoint& e0 = f.net.ep(0);
  Endpoint& e1 = f.net.ep(1);

  bool pong = false;
  const int h_pong = e0.register_handler(
      [&](Endpoint&, Token, const Word*, int) { pong = true; });
  const int h_ping = e1.register_handler(
      [&](Endpoint& ep, Token t, const Word* a, int) {
        ep.reply_1(t, h_pong, a[0]);
      });

  sim::Time rtt = 0;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    // Warm-up round, then measure.
    pong = false;
    e0.request_1(1, h_ping, 1);
    e0.poll_until([&] { return pong; });
    const sim::Time t0 = ctx.now();
    pong = false;
    e0.request_1(1, h_ping, 2);
    e0.poll_until([&] { return pong; });
    rtt = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return e1.stats().replies_sent >= 2; });
  });
  f.world.run();

  EXPECT_GT(sim::to_usec(rtt), 40.0);
  EXPECT_LT(sim::to_usec(rtt), 62.0);
}

// A fixed two-node one-word ping-pong, each node waiting only on its own
// endpoint.  With nothing inbound, a wait sleeps until the parked peer can
// next deliver (Tb2Adapter::host_rx_ready_time), so each round trip costs
// a handful of events instead of one per empty poll.  The count is exact:
// any change to the merge, the hint or the engine shows here first.
TEST(AmBasic, TwoNodePingPongEventCountIsExact) {
  auto run = [](bool fastpath) {
    Fixture f(2);
    f.world.engine().set_fastpath(fastpath);
    Endpoint& e0 = f.net.ep(0);
    Endpoint& e1 = f.net.ep(1);
    constexpr int kIters = 16;
    int pongs = 0;
    int served = 0;
    const int h_pong = e0.register_handler(
        [&](Endpoint&, Token, const Word*, int) { ++pongs; });
    const int h_ping = e1.register_handler(
        [&](Endpoint& ep, Token t, const Word* a, int) {
          ++served;
          ep.reply_1(t, h_pong, a[0]);
        });
    sim::Time end = 0;
    f.world.spawn(0, [&](sim::NodeCtx& ctx) {
      for (int i = 0; i < kIters; ++i) {
        e0.request_1(1, h_ping, static_cast<Word>(i));
        e0.poll_until([&] { return pongs > i; });
      }
      end = ctx.now();
    });
    f.world.spawn(1, [&](sim::NodeCtx&) {
      e1.poll_until([&] { return served >= kIters; });
    });
    f.world.run();
    return std::make_pair(end, f.world.engine().events_executed());
  };
  const auto [end, events] = run(true);
  const auto [end_off, events_off] = run(false);
  EXPECT_EQ(end, end_off);
  EXPECT_EQ(events, 149u);
  EXPECT_EQ(events_off, 1303u);
}

TEST(AmBasic, ManyRequestsAllDelivered) {
  Fixture f(2);
  int count = 0;
  Word sum = 0;
  const int h = f.net.ep(1).register_handler(
      [&](Endpoint&, Token, const Word* a, int) {
        ++count;
        sum += a[0];
      });
  const int n = 500;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    for (Word i = 1; i <= n; ++i) f.net.ep(0).request_1(1, h, i);
    // Drain until the peer acknowledged everything we sent.
    f.net.ep(0).poll_until([&] { return count == n; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return count == n; });
  });
  f.world.run();
  EXPECT_EQ(count, n);
  EXPECT_EQ(sum, static_cast<Word>(n) * (n + 1) / 2);
}

TEST(AmBasic, RepliesFlowOnSeparateChannel) {
  // Saturate the request window from 0->1 while 1 replies to each; replies
  // must never be blocked behind requests (separate window), so the whole
  // exchange completes.
  Fixture f(2);
  int acks = 0;
  const int h_ack = f.net.ep(0).register_handler(
      [&](Endpoint&, Token, const Word*, int) { ++acks; });
  const int h_req = f.net.ep(1).register_handler(
      [&](Endpoint& ep, Token t, const Word* a, int) {
        ep.reply_1(t, h_ack, a[0]);
      });
  const int n = 300;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    for (Word i = 0; i < n; ++i) f.net.ep(0).request_1(1, h_req, i);
    f.net.ep(0).poll_until([&] { return acks == n; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return f.net.ep(1).stats().replies_sent == n; });
  });
  f.world.run();
  EXPECT_EQ(acks, n);
}

TEST(AmBasic, RequestCostMatchesTable2) {
  // Paper Table 2: am_request_1 = 7.7 us (with an empty-network poll),
  // am_reply_1 = 4.0 us.  Allow a modest band around each.
  Fixture f(2);
  sim::Time req_cost = 0;
  const int h = f.net.ep(1).register_handler(
      [](Endpoint&, Token, const Word*, int) {});
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    f.net.ep(0).request_1(1, h, 5);
    req_cost = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until(
        [&] { return f.net.ep(1).stats().msgs_delivered >= 1; });
  });
  f.world.run();
  EXPECT_GT(sim::to_usec(req_cost), 6.5);
  EXPECT_LT(sim::to_usec(req_cost), 9.0);
}

TEST(AmBasic, PerWordCostIsSmall) {
  // Paper: round-trip grows ~0.2 us per extra 32-bit word.
  auto measure = [](int nwords) {
    Fixture f(2);
    Endpoint& e0 = f.net.ep(0);
    Endpoint& e1 = f.net.ep(1);
    bool pong = false;
    const int h_pong = e0.register_handler(
        [&](Endpoint&, Token, const Word*, int) { pong = true; });
    const int h_ping = e1.register_handler(
        [&, h_pong](Endpoint& ep, Token t, const Word* a, int n) {
          if (n == 1) ep.reply_1(t, h_pong, a[0]);
          else if (n == 2) ep.reply_2(t, h_pong, a[0], a[1]);
          else if (n == 3) ep.reply_3(t, h_pong, a[0], a[1], a[2]);
          else ep.reply_4(t, h_pong, a[0], a[1], a[2], a[3]);
        });
    sim::Time rtt = 0;
    f.world.spawn(0, [&](sim::NodeCtx& ctx) {
      const sim::Time t0 = ctx.now();
      if (nwords == 1) e0.request_1(1, h_ping, 1);
      else if (nwords == 2) e0.request_2(1, h_ping, 1, 2);
      else if (nwords == 3) e0.request_3(1, h_ping, 1, 2, 3);
      else e0.request_4(1, h_ping, 1, 2, 3, 4);
      e0.poll_until([&] { return pong; });
      rtt = ctx.now() - t0;
    });
    f.world.spawn(1, [&](sim::NodeCtx&) {
      e1.poll_until([&] { return e1.stats().replies_sent >= 1; });
    });
    f.world.run();
    return sim::to_usec(rtt);
  };
  const double r1 = measure(1);
  const double r4 = measure(4);
  EXPECT_GT(r4, r1);
  EXPECT_LT(r4 - r1, 3.0) << "adding three words must cost ~1 us round-trip";
}

TEST(AmBasic, BidirectionalTrafficCompletes) {
  Fixture f(2);
  int got[2] = {0, 0};
  int h[2];
  h[0] = f.net.ep(0).register_handler(
      [&](Endpoint&, Token, const Word*, int) { ++got[0]; });
  h[1] = f.net.ep(1).register_handler(
      [&](Endpoint&, Token, const Word*, int) { ++got[1]; });
  const int n = 200;
  for (int r = 0; r < 2; ++r) {
    f.world.spawn(r, [&, r](sim::NodeCtx&) {
      Endpoint& ep = f.net.ep(r);
      for (Word i = 0; i < n; ++i) ep.request_1(1 - r, h[1 - r], i);
      ep.poll_until([&] { return got[0] == n && got[1] == n; });
    });
  }
  f.world.run();
  EXPECT_EQ(got[0], n);
  EXPECT_EQ(got[1], n);
}

}  // namespace
}  // namespace spam::am
