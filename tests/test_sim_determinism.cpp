// Determinism regression for the event core.
//
// The sorted event buffer, its node pool, InlineAction storage and the
// payload arena are all host-side optimizations: they must not change the
// virtual execution in any observable way.  This runs an AM bulk exchange
// workload three ways — twice via run() and once stepped through
// run_until() in small slices.  Repeated free runs must execute identical
// event counts; the sliced run must reach the same final virtual time,
// trace, and payload (its event count legitimately differs: an elapse that
// crosses a slice deadline cannot skip ahead, so it schedules a real wake).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "am/net.hpp"
#include "sim/trace.hpp"

namespace spam::am {
namespace {

struct RunResult {
  std::uint64_t events = 0;
  sim::Time final_time = 0;
  std::string trace;
  std::vector<std::byte> received;
};

/// Two nodes exchange bulk data both ways (async stores) while node 0 also
/// fires a few small requests, exercising both channels, chunking, acks,
/// and same-timestamp event ordering.
RunResult run_workload(bool stepped) {
  constexpr std::size_t kLen = 48 * 1024;

  sim::World world(2);
  sphw::SpMachine machine(world, sphw::SpParams::thin_node());
  AmNet net(machine, AmParams{});

  RunResult out;
  out.received.assign(kLen, std::byte{0});
  std::vector<std::byte> src(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    src[i] = static_cast<std::byte>(i * 7 + 3);
  }
  std::vector<std::byte> back(kLen, std::byte{0});

  int pongs = 0;
  const int h_pong = net.ep(0).register_handler(
      [&pongs](Endpoint&, Token, const Word*, int) { ++pongs; });
  const int h_ping = net.ep(1).register_handler(
      [h_pong](Endpoint& ep, Token t, const Word* args, int) {
        ep.reply_1(t, h_pong, args[0]);
      });
  bool got_back = false;
  const int h_back = net.ep(0).register_bulk_handler(
      [&got_back](Endpoint&, Token, void*, std::size_t, Word) {
        got_back = true;
      });
  bool got_stream = false;
  const int h_stream = net.ep(1).register_bulk_handler(
      [&got_stream](Endpoint&, Token, void*, std::size_t, Word) {
        got_stream = true;
      });

  world.spawn(0, [&](sim::NodeCtx&) {
    Endpoint& ep = net.ep(0);
    bool stored = false;
    ep.store_async(1, out.received.data(), src.data(), kLen, h_stream, 0,
                   [&stored] { stored = true; });
    for (Word i = 0; i < 4; ++i) ep.request_1(1, h_ping, i);
    ep.poll_until([&] { return stored && pongs == 4 && got_back; });
  });
  world.spawn(1, [&](sim::NodeCtx&) {
    Endpoint& ep = net.ep(1);
    ep.store(0, back.data(), src.data(), kLen / 2, h_back);
    ep.poll_until(
        [&] { return ep.outstanding_bulk_ops() == 0 && got_stream; });
  });

  std::string trace;
  sim::Trace::capture_to(&trace);
  sim::Trace::enable(sim::TraceCat::kAdapter);
  sim::Trace::enable(sim::TraceCat::kFlow);

  if (stepped) {
    // Drive the same schedule through repeated bounded slices; slicing
    // must be invisible to the virtual execution.
    sim::Time deadline = sim::usec(25);
    while (!world.run_until(deadline)) deadline += sim::usec(25);
    world.run();  // drain trailing hardware events, as run() does
  } else {
    world.run();
  }

  sim::Trace::disable_all();
  sim::Trace::capture_to(nullptr);

  out.events = world.engine().events_executed();
  out.final_time = world.engine().now();
  out.trace = std::move(trace);
  return out;
}

TEST(Determinism, BulkExchangeIsBitIdenticalAcrossRuns) {
  RunResult a = run_workload(/*stepped=*/false);
  RunResult b = run_workload(/*stepped=*/false);

  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.final_time, 0u);
  EXPECT_FALSE(a.trace.empty());

  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.received, b.received);
}

TEST(Determinism, SteppedRunMatchesFreeRun) {
  RunResult free_run = run_workload(/*stepped=*/false);
  RunResult stepped = run_workload(/*stepped=*/true);

  EXPECT_EQ(free_run.final_time, stepped.final_time);
  EXPECT_EQ(free_run.trace, stepped.trace);
  EXPECT_EQ(free_run.received, stepped.received);
}

}  // namespace
}  // namespace spam::am
