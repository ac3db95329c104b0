// MPL baseline tests: matching semantics, wildcards, ordering, credit flow
// control, and the calibration bands the paper reports for MPL.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpl/mpl.hpp"

#include "bytes_equal.hpp"

namespace spam::mpl {
namespace {

struct Fixture {
  sim::World world;
  sphw::SpMachine machine;
  MplNet net;
  explicit Fixture(int nodes, MplParams mp = {},
                   sphw::SpParams hw = sphw::SpParams::thin_node())
      : world(nodes), machine(world, hw), net(machine, mp) {}
};

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  sim::Rng rng(seed);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return v;
}

class MplSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MplSize, BsendBrecvRoundTripsBytes) {
  const std::size_t len = GetParam();
  Fixture f(2);
  auto src = pattern(len);
  std::vector<std::byte> dst(len + 16, std::byte{0});

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).mpc_bsend(src.data(), len, 1, 7);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    const std::size_t got = f.net.ep(1).mpc_brecv(dst.data(), len, 0, 7);
    EXPECT_EQ(got, len);
  });
  f.world.run();
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
  for (std::size_t i = len; i < dst.size(); ++i) {
    EXPECT_EQ(dst[i], std::byte{0});
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MplSize,
                         ::testing::Values(0, 1, 4, 224, 225, 4096, 14336,
                                           65536));

TEST(Mpl, TagMatchingSelectsCorrectMessage) {
  Fixture f(2);
  int a = 111, b = 222;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).mpc_bsend(&a, sizeof a, 1, /*tag=*/1);
    f.net.ep(0).mpc_bsend(&b, sizeof b, 1, /*tag=*/2);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    int x = 0, y = 0;
    // Receive tag 2 first even though tag 1 arrived first.
    f.net.ep(1).mpc_brecv(&y, sizeof y, 0, 2);
    f.net.ep(1).mpc_brecv(&x, sizeof x, 0, 1);
    EXPECT_EQ(x, 111);
    EXPECT_EQ(y, 222);
  });
  f.world.run();
  EXPECT_EQ(f.net.ep(1).stats().msgs_received, 2u);
}

TEST(Mpl, WildcardsReceiveAnything) {
  Fixture f(3);
  f.world.spawn(0, [&](sim::NodeCtx&) {
    int v = 10;
    f.net.ep(0).mpc_bsend(&v, sizeof v, 2, 5);
  });
  f.world.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.elapse(sim::usec(200));  // arrive second
    int v = 20;
    f.net.ep(1).mpc_bsend(&v, sizeof v, 2, 6);
  });
  f.world.spawn(2, [&](sim::NodeCtx&) {
    int x = 0, y = 0;
    f.net.ep(2).mpc_brecv(&x, sizeof x, kAnySource, kAnyTag);
    f.net.ep(2).mpc_brecv(&y, sizeof y, kAnySource, kAnyTag);
    EXPECT_EQ(x + y, 30);
  });
  f.world.run();
}

TEST(Mpl, InOrderPerSourcePair) {
  Fixture f(2);
  const int n = 100;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    for (int i = 0; i < n; ++i) f.net.ep(0).mpc_bsend(&i, sizeof i, 1, 3);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    for (int i = 0; i < n; ++i) {
      int v = -1;
      f.net.ep(1).mpc_brecv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, i);
    }
  });
  f.world.run();
}

TEST(Mpl, NonblockingSendRecvOverlap) {
  Fixture f(2);
  const std::size_t len = 30000;
  auto s0 = pattern(len, 1), s1 = pattern(len, 2);
  std::vector<std::byte> r0(len), r1(len);
  f.world.spawn(0, [&](sim::NodeCtx&) {
    const int rh = f.net.ep(0).mpc_recv(r0.data(), len, 1, 9);
    const int sh = f.net.ep(0).mpc_send(s0.data(), len, 1, 9);
    f.net.ep(0).mpc_wait(sh);
    f.net.ep(0).mpc_wait(rh);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    const int rh = f.net.ep(1).mpc_recv(r1.data(), len, 0, 9);
    const int sh = f.net.ep(1).mpc_send(s1.data(), len, 0, 9);
    f.net.ep(1).mpc_wait(sh);
    f.net.ep(1).mpc_wait(rh);
  });
  f.world.run();
  EXPECT_TRUE(spam::test::bytes_equal(r0.data(), s1.data(), len));
  EXPECT_TRUE(spam::test::bytes_equal(r1.data(), s0.data(), len));
}

TEST(Mpl, UnexpectedMessagesBufferUntilPosted) {
  Fixture f(2);
  int payload = 77;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).mpc_bsend(&payload, sizeof payload, 1, 4);
  });
  f.world.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.elapse(sim::usec(5000));  // message arrives well before the recv
    f.net.ep(1).poll();           // ... and is drained with nothing posted
    EXPECT_EQ(f.net.ep(1).stats().unexpected_msgs, 1u);
    int v = 0;
    f.net.ep(1).mpc_brecv(&v, sizeof v, 0, 4);
    EXPECT_EQ(v, 77);
  });
  f.world.run();
  EXPECT_EQ(f.net.ep(1).stats().unexpected_msgs, 1u);
}

// The MPL pairing rule at both entry points.  At post time a receive takes
// the earliest-arrived backlog message it matches; at poll time the drain's
// messages go in arrival order, each to the earliest-posted receive it
// matches.  Message v carries v ints of value v, and receives of different
// capacities truncate, so byte counts and the virtual instants (deliver()
// charges per byte copied) pin the pairing as well.
TEST(Mpl, PairingOrderAtPostAndPollTime) {
  Fixture f(3);
  // Node 0 and node 2 each send at fixed instants, spaced wider than a
  // one-way message, so node 1 sees a fixed arrival order.
  struct Send {
    int node;
    double at_us;
    int tag;
    int value;
  };
  const std::vector<Send> sends = {
      // Backlog, drained before any receive is posted.
      {0, 0, 1, 10},    // x
      {2, 300, 2, 20},  // y
      {0, 600, 3, 30},  // z
      // One drain, after the poll-time receives are posted.
      {0, 3000, 7, 40},  // a
      {2, 3300, 7, 50},  // b
      {0, 3600, 7, 60},  // c
      {2, 3900, 8, 70},  // d
  };
  for (int node : {0, 2}) {
    f.world.spawn(node, [&, node](sim::NodeCtx& ctx) {
      for (const Send& s : sends) {
        if (s.node != node) continue;
        const std::vector<int> msg(static_cast<std::size_t>(s.value), s.value);
        ctx.elapse(sim::usec(s.at_us) - ctx.now());
        f.net.ep(node).mpc_bsend(msg.data(), msg.size() * sizeof(int), 1,
                                 s.tag);
      }
    });
  }
  // Receive i lands in buf[i]; got[i] is its byte count once complete.
  std::vector<std::vector<int>> buf(7);
  std::vector<int> handle(7);
  std::vector<std::size_t> got(7, 0);
  std::vector<sim::Time> at;
  f.world.spawn(1, [&](sim::NodeCtx& ctx) {
    MplEndpoint& ep = f.net.ep(1);
    auto post = [&](int i, std::size_t cap, int src, int tag) {
      buf[i].assign(cap, 0);
      handle[i] = ep.mpc_recv(buf[i].data(), cap * sizeof(int), src, tag);
    };
    auto done = [&](int i) { return ep.mpc_test(handle[i], &got[i]); };
    while (ep.stats().msgs_received < 3) ep.poll();
    EXPECT_EQ(ep.stats().unexpected_msgs, 3u);
    at.push_back(ctx.now());

    // Post time: each receive takes its earliest-arrived match.
    post(0, 64, 2, 2);
    post(1, 64, kAnySource, 3);
    EXPECT_TRUE(done(0));
    EXPECT_TRUE(done(1));
    at.push_back(ctx.now());

    // Poll time: a specific receive posted before two source wildcards,
    // with x still in the backlog matching none of them.
    post(2, 45, 2, 7);
    post(3, 55, kAnySource, 7);
    post(4, 64, kAnySource, 7);
    EXPECT_FALSE(done(2));
    EXPECT_FALSE(done(3));
    EXPECT_FALSE(done(4));
    ctx.elapse(sim::usec(5000));
    ep.poll();
    EXPECT_EQ(ep.stats().msgs_received, 7u);
    EXPECT_TRUE(done(2));
    EXPECT_TRUE(done(3));
    EXPECT_TRUE(done(4));
    EXPECT_EQ(ep.stats().unexpected_msgs, 4u);  // d
    at.push_back(ctx.now());

    // Post time again: full wildcards take the backlog x, then d.
    post(5, 64, kAnySource, kAnyTag);
    post(6, 64, kAnySource, kAnyTag);
    EXPECT_TRUE(done(5));
    EXPECT_TRUE(done(6));
    at.push_back(ctx.now());
  });
  f.world.run();
  // a -> 3 (receive 2 wants node 2), b -> 2 (posted before 4), c -> 4;
  // b and d are truncated to their receives' capacity.
  const std::vector<int> value = {20, 30, 50, 40, 60, 10, 70};
  const std::vector<std::size_t> ints = {20, 30, 45, 40, 60, 10, 64};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(buf[i].front(), value[i]) << "receive " << i;
    EXPECT_EQ(got[i], ints[i] * sizeof(int)) << "receive " << i;
  }
  EXPECT_EQ(at, (std::vector<sim::Time>{643992, 663392, 5712496, 5732280}));
}

// Delivering a backlog costs one match step per message, not one scan of
// the remaining backlog per message.
TEST(Mpl, DrainingBacklogIsLinear) {
  Fixture f(2);
  constexpr int kMsgs = 2000;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    for (int i = 0; i < kMsgs; ++i) f.net.ep(0).mpc_bsend(&i, sizeof i, 1, 3);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    MplEndpoint& ep = f.net.ep(1);
    while (ep.stats().msgs_received < kMsgs) ep.poll();
    for (int i = 0; i < kMsgs; ++i) {
      int v = -1;
      ep.mpc_brecv(&v, sizeof v);
      EXPECT_EQ(v, i);
    }
  });
  f.world.run();
  EXPECT_EQ(f.net.ep(1).stats().unexpected_msgs, std::uint64_t{kMsgs});
  EXPECT_LE(f.net.ep(1).stats().match_steps, std::uint64_t{2 * kMsgs});
}

TEST(Mpl, RoundTripLatencyMatchesPaper) {
  // Paper section 2.3 / Table 3: MPL one-word ping-pong of 88 us.
  Fixture f(2);
  sim::Time rtt = 0;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    int w = 1, r = 0;
    f.net.ep(0).mpc_bsend(&w, sizeof w, 1, 0);  // warm-up
    f.net.ep(0).mpc_brecv(&r, sizeof r, 1, 0);
    const sim::Time t0 = ctx.now();
    f.net.ep(0).mpc_bsend(&w, sizeof w, 1, 0);
    f.net.ep(0).mpc_brecv(&r, sizeof r, 1, 0);
    rtt = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    int v = 0;
    for (int i = 0; i < 2; ++i) {
      f.net.ep(1).mpc_brecv(&v, sizeof v, 0, 0);
      f.net.ep(1).mpc_bsend(&v, sizeof v, 0, 0);
    }
  });
  f.world.run();
  EXPECT_GT(sim::to_usec(rtt), 75.0);
  EXPECT_LT(sim::to_usec(rtt), 100.0);
}

TEST(Mpl, PipelinedBandwidthMatchesPaper) {
  // Paper: MPL r-infinity of 34.6 MB/s via pipelined mpc_send.
  Fixture f(2);
  const std::size_t total = 1 << 20;
  const std::size_t piece = 1 << 16;
  auto src = pattern(piece);
  std::vector<std::byte> dst(piece);
  sim::Time elapsed = 0;

  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    std::vector<int> handles;
    for (std::size_t off = 0; off < total; off += piece) {
      handles.push_back(f.net.ep(0).mpc_send(src.data(), piece, 1, 0));
    }
    for (int h : handles) f.net.ep(0).mpc_wait(h);
    int fin = 0;
    f.net.ep(0).mpc_brecv(&fin, sizeof fin, 1, 1);
    elapsed = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    for (std::size_t off = 0; off < total; off += piece) {
      f.net.ep(1).mpc_brecv(dst.data(), piece, 0, 0);
    }
    int fin = 1;
    f.net.ep(1).mpc_bsend(&fin, sizeof fin, 0, 1);
  });
  f.world.run();

  const double mbps = static_cast<double>(total) / sim::to_sec(elapsed) / 1e6;
  EXPECT_GT(mbps, 31.0);
  EXPECT_LT(mbps, 37.0);
}

TEST(Mpl, CreditWindowNeverOverflowsReceiveFifo) {
  // The whole point of MPL's credit flow control: nothing is dropped even
  // when the receiver is slow.
  Fixture f(2);
  const std::size_t len = 500000;
  auto src = pattern(len);
  std::vector<std::byte> dst(len);
  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).mpc_bsend(src.data(), len, 1, 0);
  });
  f.world.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.elapse(sim::usec(10000));  // stall before receiving
    f.net.ep(1).mpc_brecv(dst.data(), len, 0, 0);
  });
  f.world.run();
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
  EXPECT_EQ(f.machine.adapter(1).stats().rx_dropped_fifo_full, 0u);
  EXPECT_GT(f.net.ep(1).stats().credit_returns, 0u);
}

}  // namespace
}  // namespace spam::mpl
