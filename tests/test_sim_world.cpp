// Tests for the World / NodeCtx layer: virtual time charging, suspension,
// deadlock detection, determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
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

// A resumer fired at the instant an elapse ends, queued ahead of the wake,
// finds the node still elapsing and latches, so the suspend() after the
// elapse returns at once with no further wake.  Queued behind the wake, it
// finds the node waiting and wakes it at the same instant.
TEST(World, ResumerAtTheElapseWakeInstantIsLatched) {
  for (const bool ahead : {true, false}) {
    World w(1);
    Time woke = 0;
    std::uint64_t resumes = 0;
    w.spawn(0, [&](NodeCtx& ctx) {
      auto wake = ctx.make_resumer();
      const std::uint64_t resumes0 = Fiber::resume_count();
      if (ahead) {
        ctx.engine().at(100, [&wake] { wake(); });
      } else {
        // Runs at 0, after the elapse below has queued its wake at 100.
        ctx.engine().at(0, [&] { ctx.engine().at(100, [&wake] { wake(); }); });
      }
      ctx.elapse(100);
      ctx.suspend();
      woke = ctx.now();
      resumes = Fiber::resume_count() - resumes0;
    });
    w.run();
    EXPECT_EQ(woke, 100u) << "ahead=" << ahead;
    EXPECT_EQ(resumes, ahead ? 1u : 2u) << "ahead=" << ahead;
  }
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

// --- Fiber-to-fiber handoff: the yielding fiber hosts the event loop ----------

// Eight nodes elapse in a staggered ring, so nearly every wake is for
// another node than the one yielding.  Each wake switches straight from
// the yielding stack to the woken one; only the end of the run switches to
// the main stack.  (A main-stack loop needs two switches per wake.)
TEST(Handoff, RingCostsOneStackSwitchPerWake) {
  World w(8);
  std::vector<Time> end(8);
  for (int r = 0; r < 8; ++r) {
    w.spawn(r, [&end](NodeCtx& ctx) {
      for (int i = 0; i < 50; ++i) ctx.elapse(100 + ctx.rank());
      end[ctx.rank()] = ctx.now();
    });
  }
  const std::uint64_t resumes0 = Fiber::resume_count();
  const std::uint64_t switches0 = Fiber::stack_switches();
  w.run();
  const std::uint64_t resumes = Fiber::resume_count() - resumes0;
  const std::uint64_t switches = Fiber::stack_switches() - switches0;
  EXPECT_GT(resumes, 8u * 40u);  // launches + elapse wakes (some skipped)
  EXPECT_LE(switches, resumes + 1);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(end[r], 50u * (100u + static_cast<unsigned>(r)));
  }
}

// A node whose own wake follows only non-fiber events runs those events on
// its own stack and resumes without any stack switch.
TEST(Handoff, OwnWakeAfterPlainEventsNeedsNoSwitch) {
  World w(1);
  int ran = 0;
  std::uint64_t resumes = 0;
  std::uint64_t switches = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    for (Time t = 10; t <= 30; t += 10) ctx.engine().after(t, [&ran] { ++ran; });
    const std::uint64_t resumes0 = Fiber::resume_count();
    const std::uint64_t switches0 = Fiber::stack_switches();
    ctx.elapse(100);
    resumes = Fiber::resume_count() - resumes0;
    switches = Fiber::stack_switches() - switches0;
  });
  w.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(resumes, 1u);
  EXPECT_EQ(switches, 0u);
}

TEST(Handoff, RunUntilResumesFibersParkedInAHostedLoop) {
  auto run = [](bool sliced) {
    World w(4);
    std::vector<Time> end(4);
    for (int r = 0; r < 4; ++r) {
      w.spawn(r, [&end](NodeCtx& ctx) {
        for (int i = 0; i < 30; ++i) ctx.elapse(5 + 2 * ctx.rank());
        end[ctx.rank()] = ctx.now();
      });
    }
    if (sliced) {
      // The first slice ends with the fibers parked on their own stacks,
      // inside the loop or an event they hosted; the second must pick
      // each up where it stopped.
      EXPECT_FALSE(w.run_until(100));
      EXPECT_TRUE(w.run_until(1'000'000));
    } else {
      w.run();
    }
    return std::make_pair(end, w.engine().events_executed());
  };
  EXPECT_EQ(run(/*sliced=*/true), run(/*sliced=*/false));
}

// The node that finishes first keeps dispatching on its dead stack: the
// wake it leaves behind must still reach the parked node.
TEST(Handoff, FinishedFiberKeepsTheRunGoing) {
  World w(2);
  std::function<void()> wake1;
  Time woke = 0;
  Time end = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.elapse(10);
    wake1();  // delivered by an event after this program has returned
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    wake1 = ctx.make_resumer();
    ctx.suspend();
    woke = ctx.now();
    ctx.elapse(40);
    end = ctx.now();
  });
  w.run();
  EXPECT_EQ(woke, 10u);
  EXPECT_EQ(end, 50u);
}

TEST(Handoff, DeadlockThrowsListingTheStuckRanks) {
  World w(3);
  w.spawn(0, [](NodeCtx& ctx) { ctx.suspend(); });
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(5); });
  w.spawn(2, [](NodeCtx& ctx) {
    ctx.elapse(7);
    ctx.suspend();
  });
  try {
    w.run();
    ADD_FAILURE() << "deadlock not detected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 program(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("node0, node2"), std::string::npos) << what;
    EXPECT_EQ(what.find("node1"), std::string::npos) << what;
  }
}

// Engine::run()/run_until() count the events a hosted fiber loop executes
// on its own stack, not only those the main stack runs.
TEST(Handoff, EngineRunCountsEventsHostedOnFiberStacks) {
  Engine e;
  int plain = 0;
  Fiber* self = nullptr;
  Fiber f([&] {
    for (int i = 0; i < 5; ++i) {
      e.after(1, [&plain] { ++plain; });
      e.wake_at(e.now() + 2, self);
      Fiber::yield();
    }
  });
  self = &f;
  e.wake_at(0, &f);
  Fiber::host(&e);
  const std::uint64_t first = e.run_until(2);  // launch, plain, wake
  const std::uint64_t rest = e.run();
  Fiber::host(nullptr);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(first + rest, 11u);
  EXPECT_EQ(e.events_executed(), 11u);
  EXPECT_EQ(plain, 5);
  EXPECT_TRUE(f.finished());
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
