// Edge cases and invariants for the hardware models: payload bounds,
// loopback, multi-node fan-in contention, pipeline conservation laws,
// wide-node parameterization.
#include <gtest/gtest.h>

#include <vector>

#include "sphw/machine.hpp"

namespace spam::sphw {
namespace {

Packet mk(int dst, std::uint32_t payload, std::uint32_t seq = 0) {
  Packet p;
  p.dst = static_cast<std::int16_t>(dst);
  p.seq = seq;
  p.payload_bytes = payload;
  p.payload.assign(payload, std::byte{0x61});
  return p;
}

TEST(SphwEdge, MaxPayloadPacketRoundTrips) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    m.adapter(0).host_enqueue(ctx, mk(1, 224));
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                   sim::usec(0.5));
    const Packet p = m.adapter(1).host_rx_take(ctx);
    EXPECT_EQ(p.payload_bytes, 224u);
    EXPECT_EQ(p.wire_bytes(m.params()), 256u);
  });
  w.run();
}

TEST(SphwEdge, ZeroPayloadControlPacket) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  sim::Time arrival = 0;
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    m.adapter(0).host_enqueue(ctx, mk(1, 0));
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                   sim::usec(0.5));
    arrival = ctx.now();
    m.adapter(1).host_rx_take(ctx);
  });
  w.run();
  // Header-only packets are the fastest thing on the wire.
  EXPECT_LT(arrival, sim::usec(25));
}

TEST(SphwEdge, LoopbackToSelfWorks) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    m.adapter(0).host_enqueue(ctx, mk(0, 64, 9));
    ctx.poll_until([&] { return m.adapter(0).host_rx_ready(); },
                   sim::usec(0.5));
    EXPECT_EQ(m.adapter(0).host_rx_take(ctx).seq, 9u);
  });
  w.spawn(1, [&](sim::NodeCtx&) {});
  w.run();
}

TEST(SphwEdge, FanInSerializesAtReceiver) {
  // 4 senders blast one receiver: aggregate goodput cannot exceed one
  // receive pipeline (~link rate), and nothing is lost while the receiver
  // keeps draining.
  const int senders = 4, per_sender = 200;
  sim::World w(senders + 1);
  SpMachine m(w, SpParams::thin_node());
  int got = 0;
  sim::Time t_last = 0;
  for (int s = 0; s < senders; ++s) {
    w.spawn(s + 1, [&, s](sim::NodeCtx& ctx) {
      for (int i = 0; i < per_sender; ++i) {
        ctx.poll_until([&] { return m.adapter(s + 1).host_send_space(); },
                       sim::usec(0.5));
        m.adapter(s + 1).host_enqueue(ctx, mk(0, 224));
      }
    });
  }
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    while (got < senders * per_sender) {
      ctx.poll_until([&] { return m.adapter(0).host_rx_ready(); },
                     sim::usec(0.2));
      m.adapter(0).host_rx_take(ctx);
      ++got;
    }
    t_last = ctx.now();
  });
  w.run();
  EXPECT_EQ(got, senders * per_sender);
  const double mbps =
      224.0 * senders * per_sender / sim::to_sec(t_last) / 1e6;
  EXPECT_LT(mbps, 40.0) << "cannot beat one rx pipeline";
  EXPECT_GT(mbps, 25.0) << "fan-in should still saturate the receiver";
}

TEST(SphwEdge, ConservationDeliveredPlusDroppedEqualsSent) {
  sim::World w(3, 5);
  SpMachine m(w, SpParams::thin_node());
  sim::Rng rng(17);
  m.fabric().set_drop_fn([&](const Packet&) { return rng.chance(0.2); });
  const int n = 300;
  for (int s = 0; s < 2; ++s) {
    w.spawn(s, [&, s](sim::NodeCtx& ctx) {
      for (int i = 0; i < n; ++i) {
        ctx.poll_until([&] { return m.adapter(s).host_send_space(); },
                       sim::usec(0.5));
        m.adapter(s).host_enqueue(ctx, mk(2, 32));
      }
    });
  }
  w.spawn(2, [&](sim::NodeCtx& ctx) { ctx.elapse(sim::usec(100000)); });
  w.run();
  const auto& sw = m.fabric().stats();
  const std::uint64_t sent =
      m.adapter(0).stats().tx_packets + m.adapter(1).stats().tx_packets;
  EXPECT_EQ(sw.delivered + sw.dropped_injected, sent);
  const auto& rx = m.adapter(2).stats();
  EXPECT_EQ(rx.rx_packets + rx.rx_dropped_fifo_full, sw.delivered);
}

TEST(SphwEdge, WideNodeHostCostsAreCheaper) {
  auto enqueue_cost = [](SpParams p) {
    sim::World w(2);
    SpMachine m(w, p);
    sim::Time cost = 0;
    w.spawn(0, [&](sim::NodeCtx& ctx) {
      const sim::Time t0 = ctx.now();
      m.adapter(0).host_enqueue(ctx, mk(1, 224));
      cost = ctx.now() - t0;
    });
    w.spawn(1, [&](sim::NodeCtx& ctx) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
    });
    w.run();
    return cost;
  };
  EXPECT_LT(enqueue_cost(SpParams::wide_node()),
            enqueue_cost(SpParams::thin_node()));
}

TEST(SphwEdge, DoorbellCountTracksBatches) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (int i = 0; i < 6; ++i) {
      m.adapter(0).host_enqueue(ctx, mk(1, 32), /*doorbell_npackets=*/0);
    }
    m.adapter(0).host_doorbell(ctx, 3);
    m.adapter(0).host_doorbell(ctx, 3);
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_pending() == 6; },
                   sim::usec(0.5));
    while (m.adapter(1).host_rx_ready()) m.adapter(1).host_rx_take(ctx);
  });
  w.run();
  EXPECT_EQ(m.adapter(0).stats().doorbells, 2u);
}

}  // namespace
}  // namespace spam::sphw
