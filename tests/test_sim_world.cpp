// Tests for the World / NodeCtx layer: virtual time charging, suspension,
// deadlock detection, determinism.
#include <gtest/gtest.h>

#include <vector>

#include "sim/world.hpp"

namespace spam::sim {
namespace {

TEST(World, ElapseAdvancesVirtualTime) {
  World w(1);
  Time end = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    EXPECT_EQ(ctx.now(), 0u);
    ctx.elapse(100);
    EXPECT_EQ(ctx.now(), 100u);
    ctx.elapse_us(2.5);
    end = ctx.now();
  });
  w.run();
  EXPECT_EQ(end, 100u + usec(2.5));
}

TEST(World, NodesRunConcurrentlyInVirtualTime) {
  World w(2);
  std::vector<std::pair<int, Time>> log;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.elapse(10);
    log.emplace_back(0, ctx.now());
    ctx.elapse(20);
    log.emplace_back(0, ctx.now());
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(15);
    log.emplace_back(1, ctx.now());
    ctx.elapse(30);
    log.emplace_back(1, ctx.now());
  });
  w.run();
  ASSERT_EQ(log.size(), 4u);
  // Interleaving strictly by virtual time: 10(n0), 15(n1), 30(n0), 45(n1).
  EXPECT_EQ(log[0], (std::pair<int, Time>{0, 10}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{1, 15}));
  EXPECT_EQ(log[2], (std::pair<int, Time>{0, 30}));
  EXPECT_EQ(log[3], (std::pair<int, Time>{1, 45}));
}

TEST(World, SuspendResumeAcrossNodes) {
  World w(2);
  int delivered = -1;
  std::function<void()> wake;
  w.spawn(0, [&](NodeCtx& ctx) {
    wake = ctx.make_resumer();
    ctx.suspend();
    delivered = static_cast<int>(ctx.now());
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(500);
    wake();
  });
  w.run();
  EXPECT_EQ(delivered, 500);
}

TEST(World, ResumerBeforeSuspendIsNotLost) {
  World w(1);
  bool done = false;
  w.spawn(0, [&](NodeCtx& ctx) {
    auto wake = ctx.make_resumer();
    wake();  // fires while we are still running
    ctx.suspend();  // must consume the pending wake, not sleep forever
    done = true;
  });
  w.run();
  EXPECT_TRUE(done);
}

TEST(World, PollUntilChargesPollCost) {
  World w(2);
  bool flag = false;
  Time woke = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.poll_until([&] { return flag; }, 7);
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(100);
    flag = true;
  });
  w.run();
  EXPECT_GE(woke, 100u);
  EXPECT_EQ(woke % 7, 0u) << "wake time must be a multiple of the poll cost";
}

TEST(World, DeadlockDetectionThrows) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.suspend();  // nobody will ever wake us
  });
  EXPECT_THROW(w.run(), std::runtime_error);
}

TEST(World, RunUntilReportsUnfinished) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) { ctx.elapse(1000); });
  EXPECT_FALSE(w.run_until(10));
}

// --- Node-local virtual clocks: the charge-debt ledger -----------------------

TEST(LocalClock, ChargeDefersUntilSettle) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(100);
    ctx.charge(25);
    EXPECT_EQ(ctx.debt(), 125u);
    EXPECT_EQ(ctx.engine().now(), 0u) << "charge must not touch the engine";
    EXPECT_EQ(ctx.now(), 125u) << "now() is debt-inclusive";
    ctx.settle();
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 125u);
    EXPECT_EQ(ctx.now(), 125u);
  });
  w.run();
}

TEST(LocalClock, ElapseFoldsOutstandingDebt) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(30);
    ctx.charge(12);
    ctx.elapse(8);  // one engine sleep covering 30+12+8
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 50u);
    EXPECT_EQ(ctx.now(), 50u);
  });
  w.run();
}

TEST(LocalClock, KnobOffChargesImmediately) {
  World w(1);
  w.engine().set_localclock(false);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(100);
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 100u);
  });
  w.run();
}

TEST(LocalClock, SuspendSettlesBeforeSleeping) {
  World w(2);
  Time woke = 0;
  std::function<void()> wake;
  w.spawn(0, [&](NodeCtx& ctx) {
    wake = ctx.make_resumer();
    ctx.charge(50);
    ctx.suspend();  // must pay the 50 first, then sleep
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(500);
    wake();
  });
  w.run();
  // Had suspend slept with the debt outstanding, the wake would land at
  // 500 and the stale 50 would fold in afterwards (550).
  EXPECT_EQ(woke, 500u);
}

TEST(LocalClock, CrossNodeObservationSettlesObserver) {
  World w(2);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(40);
    const Time peer_now = ctx.world().node(1).now();
    EXPECT_EQ(ctx.debt(), 0u) << "observation is an interaction point";
    EXPECT_EQ(ctx.engine().now(), 40u);
    EXPECT_EQ(peer_now, 40u);
  });
  w.spawn(1, [](NodeCtx&) {});
  w.run();
}

TEST(LocalClock, PollUntilSettlesThenPolls) {
  World w(1);
  Time woke = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(5);
    int polls = 0;
    ctx.poll_until([&] { return ++polls > 3; }, 7);
    woke = ctx.now();
  });
  w.run();
  // One debt settlement (5) then three poll quanta (7 each).
  EXPECT_EQ(woke, 5u + 3u * 7u);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(4, /*seed=*/99);
    std::vector<std::uint64_t> trail;
    for (int r = 0; r < 4; ++r) {
      w.spawn(r, [&trail](NodeCtx& ctx) {
        for (int i = 0; i < 10; ++i) {
          ctx.elapse(1 + ctx.rng().next_below(50));
          trail.push_back(ctx.now() * 4 + static_cast<unsigned>(ctx.rank()));
        }
      });
    }
    w.run();
    return trail;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace spam::sim
