// SP AM bulk transfers: store / store_async / get correctness, chunking,
// handler invocation, completion semantics, bandwidth calibration.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "am/net.hpp"

#include "bytes_equal.hpp"

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

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  sim::Rng rng(seed);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return v;
}

class AmStoreSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AmStoreSize, StoreDeliversExactBytes) {
  const std::size_t len = GetParam();
  Fixture f(2);
  auto src = pattern(len);
  std::vector<std::byte> dst(len + 64, std::byte{0});  // canary tail

  bool handled = false;
  std::size_t handled_len = 0;
  Word handled_arg = 0;
  const int h = f.net.ep(1).register_bulk_handler(
      [&](Endpoint&, Token t, void* addr, std::size_t l, Word arg) {
        handled = true;
        handled_len = l;
        handled_arg = arg;
        EXPECT_EQ(addr, dst.data());
        EXPECT_EQ(t.src, 0);
      });

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).store(1, dst.data(), src.data(), len, h, 0xbeef);
    f.net.ep(0).poll_until(
        [&] { return f.net.ep(0).outstanding_bulk_ops() == 0; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return handled; });
  });
  f.world.run();

  EXPECT_TRUE(handled);
  EXPECT_EQ(handled_len, len);
  EXPECT_EQ(handled_arg, 0xbeefu);
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
  for (std::size_t i = len; i < dst.size(); ++i) {
    EXPECT_EQ(dst[i], std::byte{0}) << "overwrite beyond destination at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AmStoreSize,
                         ::testing::Values(0, 1, 4, 223, 224, 225, 1000, 8063,
                                           8064, 8065, 16128, 20000, 65536));

class AmGetSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AmGetSize, GetFetchesExactBytes) {
  const std::size_t len = GetParam();
  Fixture f(2);
  auto remote = pattern(len, 9);
  std::vector<std::byte> local(len + 32, std::byte{0});

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).get_blocking(1, remote.data(), local.data(), len);
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until(
        [&] { return f.net.ep(1).stats().bulk_bytes_sent >= len; });
  });
  f.world.run();

  EXPECT_TRUE(spam::test::bytes_equal(local.data(), remote.data(), len));
  for (std::size_t i = len; i < local.size(); ++i) {
    EXPECT_EQ(local[i], std::byte{0});
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AmGetSize,
                         ::testing::Values(1, 224, 4096, 8064, 30000));

TEST(AmBulk, StoreAsyncCompletionFiresAfterAck) {
  Fixture f(2);
  const std::size_t len = 4096;
  auto src = pattern(len);
  std::vector<std::byte> dst(len);
  bool completed = false;

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).store_async(1, dst.data(), src.data(), len, 0, 0,
                            [&] { completed = true; });
    EXPECT_FALSE(completed) << "completion must be asynchronous";
    f.net.ep(0).poll_until([&] { return completed; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return completed; });
  });
  f.world.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
}

TEST(AmBulk, ManyAsyncStoresAllLandInOrder) {
  // 40 async stores back-to-back into adjacent slots; content and the
  // in-order arrival of the *final* handler verify pipelined chunking.
  Fixture f(2);
  const std::size_t piece = 2048;
  const int n = 40;
  auto src = pattern(piece * n);
  std::vector<std::byte> dst(piece * n, std::byte{0});
  int handled = 0;
  std::vector<int> order;
  const int h = f.net.ep(1).register_bulk_handler(
      [&](Endpoint&, Token, void*, std::size_t, Word arg) {
        ++handled;
        order.push_back(static_cast<int>(arg));
      });

  int completions = 0;
  f.world.spawn(0, [&](sim::NodeCtx&) {
    for (int i = 0; i < n; ++i) {
      f.net.ep(0).store_async(1, dst.data() + i * piece,
                              src.data() + i * piece, piece, h,
                              static_cast<Word>(i), [&] { ++completions; });
    }
    f.net.ep(0).poll_until([&] { return completions == n; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return handled == n; });
  });
  f.world.run();

  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), src.size()));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[i], i) << "ordered delivery";
}

TEST(AmBulk, StoreThenRequestStaysOrdered) {
  // A small request issued after an async store must arrive after the
  // store's data (MPI over AM depends on this).
  Fixture f(2);
  const std::size_t len = 3 * 8064;  // three chunks
  auto src = pattern(len);
  std::vector<std::byte> dst(len);
  bool store_handled = false, req_handled = false;
  bool order_ok = false;
  const int hb = f.net.ep(1).register_bulk_handler(
      [&](Endpoint&, Token, void*, std::size_t, Word) { store_handled = true; });
  const int hr = f.net.ep(1).register_handler(
      [&](Endpoint&, Token, const Word*, int) {
        req_handled = true;
        order_ok = store_handled;
      });

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).store_async(1, dst.data(), src.data(), len, hb, 0, {});
    f.net.ep(0).request_1(1, hr, 1);
    f.net.ep(0).poll_until(
        [&] { return f.net.ep(0).outstanding_bulk_ops() == 0 && req_handled; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return req_handled; });
  });
  f.world.run();
  EXPECT_TRUE(order_ok) << "request overtook bulk data";
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
}

TEST(AmBulk, ChunkCountMatchesProtocol) {
  // 3*8064+1 bytes => 4 chunks (36+36+36+1 packets).
  Fixture f(2);
  const std::size_t len = 3 * 8064 + 1;
  auto src = pattern(len);
  std::vector<std::byte> dst(len);

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).store(1, dst.data(), src.data(), len);
    f.net.ep(0).poll_until(
        [&] { return f.net.ep(0).outstanding_bulk_ops() == 0; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] {
      return spam::test::bytes_equal(dst.data(), src.data(), len);
    });
  });
  f.world.run();
  EXPECT_EQ(f.net.ep(0).stats().chunks_sent, 4u);
}

// Eight rounds of a blocking 64 KB store and a drain to no outstanding
// ops, on two thin nodes; node 1 waits on the stores its own bulk handler
// saw land.  store() waits through poll_until, so its window-blocked polls
// merge like any other wait.  The count is exact, and the end instant must
// equal the per-hop run's.
TEST(AmBulk, BlockingStoreEventCountIsExact) {
  auto run = [](bool fastpath) {
    Fixture f(2);
    f.world.engine().set_fastpath(fastpath);
    Endpoint& e0 = f.net.ep(0);
    Endpoint& e1 = f.net.ep(1);
    constexpr int kRounds = 8;
    constexpr std::size_t kLen = 64 * 1024;
    auto src = pattern(kLen);
    std::vector<std::byte> dst(kLen);
    int landed = 0;
    const int h = e1.register_bulk_handler(
        [&](Endpoint&, Token, void*, std::size_t, Word) { ++landed; });
    sim::Time end = 0;
    f.world.spawn(0, [&](sim::NodeCtx& ctx) {
      for (int i = 0; i < kRounds; ++i) {
        e0.store(1, dst.data(), src.data(), kLen, h);
        e0.poll_until([&] { return e0.outstanding_bulk_ops() == 0; });
      }
      end = ctx.now();
    });
    f.world.spawn(1, [&](sim::NodeCtx&) {
      e1.poll_until([&] { return landed >= kRounds; });
    });
    f.world.run();
    EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), kLen));
    return std::make_pair(end, f.world.engine().events_executed());
  };
  const auto [end, events] = run(true);
  const auto [end_off, events_off] = run(false);
  EXPECT_EQ(end, end_off);
  EXPECT_EQ(end, 15578908u);
  EXPECT_EQ(events, 9552u);
  EXPECT_EQ(events_off, 21395u);
}

TEST(AmBulk, AsyncStoreBandwidthMatchesPaper) {
  // Pipelined 1 MB store should run at the paper's asymptotic 34.3 MB/s
  // (within a band; the limiter is the 40 MB/s link at 224/256 efficiency).
  Fixture f(2);
  const std::size_t len = 1 << 20;
  auto src = pattern(len);
  std::vector<std::byte> dst(len);
  bool done = false;
  sim::Time elapsed = 0;

  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    f.net.ep(0).store_async(1, dst.data(), src.data(), len, 0, 0,
                            [&] { done = true; });
    f.net.ep(0).poll_until([&] { return done; });
    elapsed = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).poll_until([&] { return done; });
  });
  f.world.run();

  const double mbps = static_cast<double>(len) / sim::to_sec(elapsed) / 1e6;
  EXPECT_GT(mbps, 31.0);
  EXPECT_LT(mbps, 36.5);
  EXPECT_TRUE(spam::test::bytes_equal(dst.data(), src.data(), len));
}

TEST(AmBulk, GetIntoOwnBufferWhileServingGets) {
  // Symmetric gets in both directions at once.
  Fixture f(2);
  const std::size_t len = 10000;
  auto a = pattern(len, 3), b = pattern(len, 4);
  std::vector<std::byte> ra(len), rb(len);
  bool d0 = false, d1 = false;

  f.world.spawn(0, [&](sim::NodeCtx&) {
    f.net.ep(0).get(1, b.data(), rb.data(), len, 0, 0, [&] { d0 = true; });
    f.net.ep(0).poll_until([&] { return d0 && d1; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    f.net.ep(1).get(0, a.data(), ra.data(), len, 0, 0, [&] { d1 = true; });
    f.net.ep(1).poll_until([&] { return d0 && d1; });
  });
  f.world.run();
  EXPECT_TRUE(spam::test::bytes_equal(rb.data(), b.data(), len));
  EXPECT_TRUE(spam::test::bytes_equal(ra.data(), a.data(), len));
}

}  // namespace
}  // namespace spam::am
