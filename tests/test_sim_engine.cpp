// Unit tests for the discrete-event engine: ordering, determinism, clamping.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace spam::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    e.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, AfterSchedulesRelative) {
  Engine e;
  Time seen = 0;
  e.at(100, [&] { e.after(50, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, PastTimeClampsToNow) {
  Engine e;
  Time seen = 0;
  e.at(100, [&] {
    e.at(10, [&] { seen = e.now(); });  // in the past: clamp to now
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.at(i, [&] {
      ++count;
      if (count == 3) e.stop();
    });
  }
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(count, 3);
  // Remaining events still pending; a new run() picks them up.
  EXPECT_EQ(e.run(), 7u);
}

TEST(Engine, RunUntilHonorsDeadlineInclusive) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {5u, 10u, 15u, 20u}) {
    e.at(t, [&, t] { fired.push_back(t); });
  }
  e.run_until(15);
  EXPECT_EQ(fired, (std::vector<Time>{5, 10, 15}));
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, NestedSchedulingChains) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 1000) e.after(1, chain);
  };
  e.after(1, chain);
  e.run();
  EXPECT_EQ(depth, 1000);
  EXPECT_EQ(e.now(), 1000u);
}

TEST(Engine, OrdersNearAndFarEvents) {
  // Near (sub-microsecond to sub-millisecond) and far (tens of
  // milliseconds) events, scheduled in scrambled order, must execute in
  // time order.
  Engine e;
  std::vector<Time> fired;
  const std::vector<Time> times = {5,          kMsec * 50, 1023,      1024,
                                   kMsec * 2,  7,          kMsec * 50 + 1,
                                   200 * kUsec};
  for (Time t : times) {
    e.at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run();
  std::vector<Time> expect = times;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(Engine, OrdersShortHorizonEventsAfterLongIdleJump) {
  // After the clock jumps a whole second ahead, events scheduled a few
  // nanoseconds to milliseconds past the new now() must still run in time
  // order.
  Engine e;
  std::vector<int> order;
  e.at(kSec, [&] {
    e.after(10, [&] { order.push_back(2); });
    e.after(5, [&] { order.push_back(1); });
    e.after(kMsec * 10, [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), kSec + kMsec * 10);
}

TEST(Engine, SameTimeFifoAcrossSchedulingDistances) {
  // Same-instant events must run in scheduling order whether they were
  // queued far ahead of the instant or just before it.
  Engine e;
  std::vector<int> order;
  const Time t = kMsec * 20;  // 20 ms ahead at schedule time
  e.at(t, [&] { order.push_back(0); });
  e.at(kMsec * 19, [&] {
    // Now t is 1 ms ahead, with an earlier same-time event already queued.
    e.at(t, [&] { order.push_back(1); });
    e.at(t, [&] { order.push_back(2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, TrySkipElapseRespectsQueuedEvents) {
  Engine e;
  e.set_fastpath(true);
  bool ran = false;
  e.at(0, [&] {
    e.after(100, [&ran] { ran = true; });
    // Skip would cross (or tie) the queued event: must be denied.  A tie
    // must be denied because the queued event was scheduled first.
    EXPECT_FALSE(e.try_skip_elapse(150));
    EXPECT_FALSE(e.try_skip_elapse(100));
    // Strictly before the queued event: allowed, advances the clock.
    EXPECT_TRUE(e.try_skip_elapse(99));
    EXPECT_EQ(e.now(), 99u);
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, TrySkipElapseUsesExactNextEvent) {
  // Only the queued event's exact time (3000 ns) may deny a skip, so a
  // skip to 2500 ns, 500 ns short of it, is allowed.
  Engine e;
  e.set_fastpath(true);
  bool ran = false;
  e.at(0, [&] {
    e.at(3000, [&ran] { ran = true; });
    EXPECT_TRUE(e.try_skip_elapse(2500));
    EXPECT_EQ(e.now(), 2500u);
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 3000u);
}

TEST(Engine, TrySkipElapseDisabledInPerHopMode) {
  Engine e;
  e.set_fastpath(false);
  e.at(0, [&] { EXPECT_FALSE(e.try_skip_elapse(10)); });
  e.run();
}

// A bare wake is a queue entry with no node: it counts as pending but not
// as a live node, and scheduling one never grows the node pool.
TEST(Engine, WakeEntriesTakeNoNode) {
  Engine e;
  int woke = 0;
  Fiber f([&] {
    for (;;) {
      ++woke;
      Fiber::yield();
    }
  });
  e.wake_at(10, &f);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pool_stats().nodes_allocated, 0u);
  EXPECT_EQ(e.pool_stats().nodes_live, 0u);
  e.at(10, [&] {
    EXPECT_EQ(woke, 1) << "the wake queued first runs first";
    e.wake_at(20, &f);
  });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.pool_stats().nodes_live, 1u);
  e.run();
  EXPECT_EQ(woke, 2);
  EXPECT_EQ(e.now(), 20u);
  EXPECT_EQ(e.events_executed(), 3u);
  EXPECT_EQ(e.pool_stats().nodes_live, 0u);
}

// Reference model: the engine must run events in the order of a stable
// sort of (time after clamping to now(), scheduling order), whichever
// entry kind each is: an action node (at()) or a bare wake of a real fiber
// (wake_at()).  The workload mixes clustered equal times, past times
// (clamped), far-future times and events scheduled from inside actions and
// from inside woken fibers, and runs in run_until() slices with the loop
// hosted on the fiber stacks, so the clock and queue persist across runs.
TEST(Engine, MatchesStableSortReference) {
  struct Scheduled {
    Time t;  // clamped time the event must run at
    int id;  // scheduling order
  };
  Engine e;
  Rng rng(2024);
  std::vector<Scheduled> scheduled;
  std::vector<int> ran;
  std::vector<Time> ran_at;
  constexpr int kEvents = 60000;
  int next_id = 0;
  std::size_t max_pending = 0;
  int wakes = 0;

  // Picks a target time relative to now(): equal-time clusters, the past,
  // the near future and the far future.
  auto pick = [&]() -> Time {
    const Time now = e.now();
    switch (rng.next_below(6)) {
      case 0: return now;                                 // same instant
      case 1: return now - std::min<Time>(now, 1 + rng.next_below(500));
      case 2: return now + 10 * rng.next_below(4);        // tight cluster
      case 3: return now + rng.next_below(2000);          // near future
      case 4: return now + kMsec * (1 + rng.next_below(50));  // far future
      default:  // one of the next three whole microseconds
        return (now / kUsec + 1 + rng.next_below(3)) * kUsec;
    }
  };
  // Fibers with no wake queued take every other event short of the far
  // future as a bare wake; a woken fiber runs the event's body with the id
  // its wake carried, then parks again.  A fiber may queue its own next
  // wake, as elapse() does.
  constexpr int kFibers = 32;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> wake_id(kFibers, -1);
  std::vector<int> idle;
  std::function<void(int)> body;
  auto schedule = [&] {
    if (next_id >= kEvents) return;
    const Time t = pick();
    const int id = next_id++;
    scheduled.push_back({std::max(t, e.now()), id});
    if (t < e.now() + kMsec && !idle.empty() && rng.next_below(2) == 0) {
      const auto i = static_cast<std::size_t>(rng.next_below(idle.size()));
      const int f = idle[i];
      idle[i] = idle.back();
      idle.pop_back();
      wake_id[f] = id;
      e.wake_at(t, fibers[f].get());
      ++wakes;
    } else {
      e.at(t, [&body, id] { body(id); });
    }
    max_pending = std::max(max_pending, e.pending());
  };
  body = [&](int id) {
    ran.push_back(id);
    ran_at.push_back(e.now());
    // Each event schedules zero to two more from inside itself.
    const std::uint64_t children = rng.next_below(3);
    for (std::uint64_t c = 0; c < children; ++c) schedule();
  };
  for (int f = 0; f < kFibers; ++f) {
    fibers.push_back(std::make_unique<Fiber>(
        [&, f] {
          for (;;) {
            const int id = wake_id[f];
            idle.push_back(f);
            body(id);
            Fiber::yield();
          }
        },
        128 * 1024));
    idle.push_back(f);
  }

  // Seed the queue from outside any event, then run in 5 us slices,
  // topping the queue up between slices until every event has been
  // scheduled.  A slice that finds nothing due steps to the next event.
  Fiber::host(&e);
  for (int i = 0; i < 200; ++i) schedule();
  Time deadline = 0;
  while (!e.empty() || next_id < kEvents) {
    if (e.empty()) schedule();
    deadline += 5 * kUsec;
    if (e.run_until(deadline) == 0 && e.step()) deadline = e.now();
    for (int i = 0; i < 5; ++i) schedule();
  }
  Fiber::host(nullptr);

  ASSERT_EQ(ran.size(), static_cast<std::size_t>(kEvents));
  // Far-future events pile up: the queue must get deep enough that inserts
  // move either side of the buffer and the buffer grows several times.
  EXPECT_GT(max_pending, 1024u);
  // Both entry kinds are well represented.
  EXPECT_GT(wakes, kEvents / 10);
  EXPECT_LT(wakes, kEvents - kEvents / 10);
  std::vector<Scheduled> expect = scheduled;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.t < b.t;
                   });
  // stable_sort of the scheduling-ordered list is (time, scheduling
  // order): the engine's contract.
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(ran[i], expect[i].id) << "at position " << i;
    ASSERT_EQ(ran_at[i], expect[i].t) << "at position " << i;
  }
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(usec(1.0), 1000u);
  EXPECT_EQ(usec(1.3), 1300u);
  EXPECT_DOUBLE_EQ(to_usec(2500), 2.5);
  EXPECT_EQ(transfer_time(0, 40.0), 0u);
  // 256 bytes at 80 MB/s = 3.2 us.
  EXPECT_EQ(transfer_time(256, 80.0), usec(3.2));
  // Tiny transfers round up to at least one tick.
  EXPECT_GE(transfer_time(1, 1e9), 1u);
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different seeds diverge.
  Rng a2(42);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
  // Split streams are independent of parent's later output.
  Rng p1(7), p2(7);
  Rng s1 = p1.split(0);
  Rng s2 = p2.split(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace spam::sim
