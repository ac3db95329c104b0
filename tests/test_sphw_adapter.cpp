// Tests for the TB2 adapter and switch models: delivery, timing, FIFO
// geometry, overflow drops, doorbell batching, lazy pops.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sphw/machine.hpp"

namespace spam::sphw {
namespace {

Packet mk(int dst, std::uint32_t payload, std::uint32_t seq = 0) {
  Packet p;
  p.dst = static_cast<std::int16_t>(dst);
  p.seq = seq;
  p.payload_bytes = payload;
  p.payload.assign(payload, std::byte{0xab});
  return p;
}

TEST(Adapter, DeliversOnePacket) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  sim::Time arrival = 0;
  std::uint32_t got_seq = 0;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    m.adapter(0).host_enqueue(ctx, mk(1, 64, 7));
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                   sim::usec(0.5));
    Packet p = m.adapter(1).host_rx_take(ctx);
    arrival = ctx.now();
    got_seq = p.seq;
    EXPECT_EQ(p.src, 0);
    EXPECT_EQ(p.payload_bytes, 64u);
    ASSERT_EQ(p.payload.size(), 64u);
    EXPECT_EQ(p.payload[63], std::byte{0xab});
  });
  w.run();

  EXPECT_EQ(got_seq, 7u);
  // Sanity band: small-packet one-way through the adapter pipeline should
  // land in the 10-30 us window the paper implies for TB2.
  EXPECT_GT(arrival, sim::usec(10));
  EXPECT_LT(arrival, sim::usec(30));
  EXPECT_EQ(m.adapter(0).stats().tx_packets, 1u);
  EXPECT_EQ(m.adapter(1).stats().rx_packets, 1u);
}

TEST(Adapter, InOrderDelivery) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  std::vector<std::uint32_t> seqs;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.5));
      m.adapter(0).host_enqueue(ctx, mk(1, 224, i));
    }
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    while (seqs.size() < 20) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
      seqs.push_back(m.adapter(1).host_rx_take(ctx).seq);
    }
  });
  w.run();
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(Adapter, BatchedDoorbellCostsOneAccess) {
  // Enqueue k packets without doorbells, then ring once: the doorbell stage
  // must charge exactly one MicroChannel access regardless of k.
  SpParams params = SpParams::thin_node();
  sim::Time t_one = 0, t_batch = 0;
  {
    sim::World w(2);
    SpMachine m(w, params);
    w.spawn(0, [&](sim::NodeCtx& ctx) {
      m.adapter(0).host_enqueue(ctx, mk(1, 224), /*doorbell_npackets=*/0);
      sim::Time before = ctx.now();
      m.adapter(0).host_doorbell(ctx, 1);
      t_one = ctx.now() - before;
    });
    w.spawn(1, [&](sim::NodeCtx& ctx) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_pending() == 1; },
                     sim::usec(0.5));
    });
    w.run();
  }
  {
    sim::World w(2);
    SpMachine m(w, params);
    w.spawn(0, [&](sim::NodeCtx& ctx) {
      for (int i = 0; i < 8; ++i) {
        m.adapter(0).host_enqueue(ctx, mk(1, 224), /*doorbell_npackets=*/0);
      }
      sim::Time before = ctx.now();
      m.adapter(0).host_doorbell(ctx, 8);
      t_batch = ctx.now() - before;
    });
    w.spawn(1, [&](sim::NodeCtx& ctx) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_pending() == 8; },
                     sim::usec(0.5));
      while (m.adapter(1).host_rx_ready()) m.adapter(1).host_rx_take(ctx);
    });
    w.run();
  }
  EXPECT_EQ(t_one, t_batch) << "batched doorbell must amortize the access";
  EXPECT_EQ(t_one, sim::usec(params.mc_access_us));
}

TEST(Adapter, SendFifoBackpressure) {
  SpParams params = SpParams::thin_node();
  sim::World w(2);
  SpMachine m(w, params);
  int max_outstanding = 0;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (int i = 0; i < 300; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.5));
      const int used = params.send_fifo_entries - m.adapter(0).host_send_free();
      max_outstanding = std::max(max_outstanding, used + 1);
      m.adapter(0).host_enqueue(ctx, mk(1, 224, static_cast<unsigned>(i)));
    }
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    int got = 0;
    while (got < 300) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
      m.adapter(1).host_rx_take(ctx);
      ++got;
    }
  });
  w.run();
  EXPECT_LE(max_outstanding, params.send_fifo_entries);
}

TEST(Adapter, RecvFifoOverflowDrops) {
  // Receiver never drains: with 2 nodes the FIFO holds 64*2 entries; the
  // rest must be dropped, not delivered and not crash.
  SpParams params = SpParams::thin_node();
  sim::World w(2);
  SpMachine m(w, params);
  const int total = 200;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (int i = 0; i < total; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.5));
      m.adapter(0).host_enqueue(ctx, mk(1, 224, static_cast<unsigned>(i)));
    }
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    // Sleep long enough for everything to arrive, draining nothing.
    ctx.elapse(sim::usec(50000));
  });
  w.run();

  const auto& st = m.adapter(1).stats();
  const int cap = params.recv_fifo_entries_per_node * 2;
  EXPECT_EQ(static_cast<int>(st.rx_packets), cap);
  EXPECT_EQ(static_cast<int>(st.rx_dropped_fifo_full), total - cap);
}

TEST(Adapter, LazyPopFreesEntriesInBatches) {
  SpParams params = SpParams::thin_node();
  params.lazy_pop_batch = 4;
  sim::World w(2);
  SpMachine m(w, params);

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (int i = 0; i < 6; ++i) m.adapter(0).host_enqueue(ctx, mk(1, 32));
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_pending() == 6; },
                   sim::usec(0.5));
    EXPECT_EQ(m.adapter(1).rx_fifo_occupied(), 6);
    // Taking three packets does not yet return entries to the adapter.
    m.adapter(1).host_rx_take(ctx);
    m.adapter(1).host_rx_take(ctx);
    m.adapter(1).host_rx_take(ctx);
    EXPECT_EQ(m.adapter(1).rx_fifo_occupied(), 6);
    // The fourth take crosses the batch threshold and flushes the pops.
    m.adapter(1).host_rx_take(ctx);
    EXPECT_EQ(m.adapter(1).rx_fifo_occupied(), 2);
    // Explicit flush releases the remainder.
    m.adapter(1).host_rx_take(ctx);
    m.adapter(1).host_rx_take(ctx);
    m.adapter(1).host_rx_flush_pops(ctx);
    EXPECT_EQ(m.adapter(1).rx_fifo_occupied(), 0);
  });
  w.run();
}

TEST(Switch, FaultInjectionDropsSelectedPackets) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  m.fabric().set_drop_fn([](const Packet& p) { return p.seq % 2 == 1; });
  std::vector<std::uint32_t> got;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.5));
      m.adapter(0).host_enqueue(ctx, mk(1, 64, i));
    }
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    while (got.size() < 5) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
      got.push_back(m.adapter(1).host_rx_take(ctx).seq);
    }
  });
  w.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(m.fabric().stats().dropped_injected, 5u);
}

TEST(Adapter, BandwidthApproachesLinkRate) {
  // Blast 2000 full packets and verify the sustained rate is link-bound:
  // 224 data bytes per 256-byte wire packet at 40 MB/s -> ~35 MB/s of data.
  SpParams params = SpParams::thin_node();
  sim::World w(2);
  SpMachine m(w, params);
  sim::Time t_first = 0, t_last = 0;
  const int total = 2000;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    int rung = 0;
    for (int i = 0; i < total; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.2));
      m.adapter(0).host_enqueue(ctx, mk(1, 224), /*doorbell_npackets=*/0);
      if (++rung == 16) {
        m.adapter(0).host_doorbell(ctx, rung);
        rung = 0;
      }
    }
    if (rung) m.adapter(0).host_doorbell(ctx, rung);
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    int got = 0;
    while (got < total) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.2));
      m.adapter(1).host_rx_take(ctx);
      if (++got == 1) t_first = ctx.now();
    }
    t_last = ctx.now();
  });
  w.run();

  const double secs = sim::to_sec(t_last - t_first);
  const double mbps = 224.0 * (total - 1) / secs / 1e6;
  EXPECT_GT(mbps, 30.0);
  EXPECT_LT(mbps, 40.0);
}

TEST(Fastpath, UncontendedTrafficArrivesFused) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  std::vector<sim::Time> arrivals;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                     sim::usec(0.5));
      m.adapter(0).host_enqueue(ctx, mk(1, 224, i));
    }
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    while (arrivals.size() < 8) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
      m.adapter(1).host_rx_take(ctx);
      arrivals.push_back(ctx.now());
    }
  });
  w.run();

  // A single sender to a single destination is provably uncontended: every
  // packet must take the fused path, and none may roll back.
  EXPECT_EQ(m.adapter(1).stats().fused_deliveries, 8u);
  EXPECT_EQ(m.adapter(1).stats().fused_rollbacks, 0u);
  EXPECT_EQ(m.adapter(1).stats().rx_packets, 8u);
}

TEST(Fastpath, ArrivalTimesMatchPerHopExactly) {
  // The bit-exactness contract at adapter level: take-side timestamps of a
  // bursty one-way stream must be identical ticks in both modes.
  auto run_mode = [](bool fastpath) {
    SpParams params = SpParams::thin_node();
    params.network_fastpath = fastpath;
    sim::World w(2);
    SpMachine m(w, params);
    std::vector<sim::Time> arrivals;
    w.spawn(0, [&](sim::NodeCtx& ctx) {
      int rung = 0;
      for (std::uint32_t i = 0; i < 40; ++i) {
        ctx.poll_until([&] { return m.adapter(0).host_send_space(); },
                       sim::usec(0.5));
        m.adapter(0).host_enqueue(ctx, mk(1, (i * 37) % 225, i),
                                  /*doorbell_npackets=*/0);
        if (++rung == 4 || i == 39) {
          m.adapter(0).host_doorbell(ctx, rung);
          rung = 0;
        }
        if (i % 7 == 3) ctx.elapse(sim::usec(11.3));
      }
    });
    w.spawn(1, [&](sim::NodeCtx& ctx) {
      while (arrivals.size() < 40) {
        ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                       sim::usec(0.5));
        m.adapter(1).host_rx_take(ctx);
        arrivals.push_back(ctx.now());
      }
    });
    w.run();
    return arrivals;
  };
  EXPECT_EQ(run_mode(false), run_mode(true));
}

TEST(Fastpath, ArmingFaultHookDisengagesInFlightReservations) {
  // Packets engaged fused but still ahead of their switch entry must fall
  // back to per-hop when a drop hook arms, so the hook sees them.
  SpParams params = SpParams::thin_node();
  sim::World w(2);
  SpMachine m(w, params);
  std::vector<std::uint32_t> got;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    // A batched burst: doorbell rings once, so several packets engage
    // fused with switch-entry instants spread out by link serialization.
    for (std::uint32_t i = 0; i < 10; ++i) {
      m.adapter(0).host_enqueue(ctx, mk(1, 224, i), /*doorbell_npackets=*/0);
    }
    m.adapter(0).host_doorbell(ctx, 10);
    // Arm while the tail of the burst is still ahead of the switch: those
    // reservations must be rolled back and re-checked by the hook.
    ctx.elapse(sim::usec(20));
    m.fabric().set_drop_fn([](const Packet& p) { return p.seq >= 5; });
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    // Drain whatever survives; stop once the line is quiet for a while.
    sim::Time last = 0;
    while (ctx.now() < sim::usec(400)) {
      if (m.adapter(1).host_rx_ready()) {
        got.push_back(m.adapter(1).host_rx_take(ctx).seq);
        last = ctx.now();
      } else {
        ctx.elapse(sim::usec(1));
      }
    }
    (void)last;
  });
  w.run();

  EXPECT_GT(m.adapter(1).stats().fused_rollbacks, 0u);
  // Everything the hook admitted must still arrive, in order.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(m.fabric().stats().dropped_injected + got.size(), 10u);
}

TEST(Fastpath, RxReadyTimeIsAnExactLowerBound) {
  sim::World w(2);
  SpMachine m(w, SpParams::thin_node());
  bool checked = false;
  bool submitted = false;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    m.adapter(0).host_enqueue(ctx, mk(1, 224, 1));
    submitted = true;
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    // Wait until the reservation exists, then interrogate the hint.
    ctx.poll_until([&] { return submitted; }, sim::usec(0.5));
    const sim::Time ready = m.adapter(1).host_rx_ready_time();
    if (ready != 0) {
      EXPECT_FALSE(m.adapter(1).host_rx_ready());
      EXPECT_GT(ready, ctx.now());
      // The hint must be exact for an uncontended packet: not ready one
      // tick before, ready at the instant itself.
      ctx.elapse(ready - ctx.now() - 1);
      EXPECT_FALSE(m.adapter(1).host_rx_ready());
      ctx.elapse(1);
      EXPECT_TRUE(m.adapter(1).host_rx_ready());
      checked = true;
      m.adapter(1).host_rx_take(ctx);
    }
  });
  w.run();
  EXPECT_TRUE(checked);
}

// Seeded random traffic both ways on two nodes.  Node 1 reads its hint at
// random instants; whenever it is non-zero, node 1 sleeps to one tick
// before it and the rx FIFO must still be empty there, whether a packet
// is already in the ledger or not yet submitted.  While the parked peer
// has nothing in flight toward node 1, the hint must be non-zero: that is
// the bound that lets a two-node wait sleep in one wake.
TEST(Fastpath, RxReadyTimeIsSoundUnderRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    sim::World w(2);
    SpMachine m(w, SpParams::thin_node());
    constexpr int kSends = 60;
    int sent[2] = {0, 0};
    int hints = 0;
    int parked_reads = 0;
    int parked_unbounded = 0;

    for (int r = 0; r < 2; ++r) {
      w.spawn(r, [&, r, seed](sim::NodeCtx& ctx) {
        sim::Rng rng(seed * 2 + static_cast<std::uint64_t>(r));
        Tb2Adapter& ad = m.adapter(r);
        Tb2Adapter& peer = m.adapter(1 - r);
        // Node 1 keeps reading its hint until node 0 is done sending.
        while (sent[r] < kSends || (r == 1 && sent[0] < kSends)) {
          while (ad.host_rx_ready()) ad.host_rx_take(ctx);
          if (r == 1) {
            const sim::Time hint = ad.host_rx_ready_time();
            const bool inbound = peer.stats().tx_packets !=
                                 ad.stats().rx_packets +
                                     ad.stats().rx_dropped_fifo_full;
            if (!inbound && !ctx.engine().empty()) {
              ++parked_reads;
              if (hint == 0) ++parked_unbounded;
            }
            if (hint != 0 && rng.chance(0.5)) {
              ++hints;
              ASSERT_GT(hint, ctx.now());
              ctx.elapse(hint - 1 - ctx.now());
              EXPECT_FALSE(ad.host_rx_ready())
                  << "rx ready one tick before the hint";
              continue;
            }
          }
          if (sent[r] < kSends && rng.chance(0.3) && ad.host_send_space()) {
            const auto bytes =
                static_cast<std::uint32_t>(4 + rng.next_below(221));
            ad.host_enqueue(ctx, mk(1 - r, bytes, static_cast<std::uint32_t>(
                                                      sent[r]++)));
          } else {
            ctx.elapse(static_cast<sim::Time>(1 + rng.next_below(
                                                      sim::usec(12))));
          }
        }
      });
    }
    w.run();

    EXPECT_EQ(sent[0], kSends);
    EXPECT_EQ(sent[1], kSends);
    EXPECT_GT(hints, 10);
    EXPECT_GT(parked_reads, 10);
    EXPECT_EQ(parked_unbounded, 0) << "peer parked, nothing inbound";
  }
}

// With a third adapter, a packet another node submits *after* the hint is
// read can leave the switch before the ledger front and land first.  Node
// 0 queues 20 packets for node 1 ahead of one for node 2; node 1 answers
// its first arrival with a packet to node 2, which overtakes node 0's.
TEST(Fastpath, RxReadyTimeBoundsALaterSenderOnThreeNodes) {
  sim::World w(3);
  SpMachine m(w, SpParams::thin_node());
  sim::Time read_at = 0;
  sim::Time hint = 0;
  sim::Time ready_at = 0;

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      m.adapter(0).host_enqueue(ctx, mk(1, 224, i), /*doorbell_npackets=*/0);
    }
    m.adapter(0).host_enqueue(ctx, mk(2, 4, 20), /*doorbell_npackets=*/21);
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); }, 1);
    m.adapter(1).host_enqueue(ctx, mk(2, 4, 1));
  });
  w.spawn(2, [&](sim::NodeCtx& ctx) {
    ctx.elapse(sim::usec(110));
    read_at = ctx.now();
    hint = m.adapter(2).host_rx_ready_time();
    // One-tick polls find the exact instant the rx FIFO turns ready.
    ctx.poll_until([&] { return m.adapter(2).host_rx_ready(); }, 1);
    ready_at = ctx.now();
  });
  w.run();

  ASSERT_NE(hint, 0u) << "node 0's packet must be in node 2's ledger";
  EXPECT_GT(hint, read_at);
  EXPECT_LE(hint, ready_at) << "the hint must stay a lower bound";
}

// A compute charge() covers the instant a packet lands at node 1 and the
// instant node 0's only send-FIFO entry frees.  The host-side queries must
// settle the caller's charge debt before they read adapter state, so both
// changes are visible right after the charge — exactly as after the
// equivalent elapse() of the per-call reference.
TEST(Adapter, QueriesSeeChangesInsideAChargedInterval) {
  auto run = [](bool per_call) {
    SpParams params = SpParams::thin_node();
    params.send_fifo_entries = 1;
    sim::World w(2);
    SpMachine m(w, params);
    int free_before = -1;
    int free_after = -1;
    bool rx_ready = false;
    auto charge = [per_call](sim::NodeCtx& ctx, sim::Time d) {
      if (per_call) {
        ctx.elapse(d);
      } else {
        ctx.charge(d);
      }
    };
    w.spawn(0, [&](sim::NodeCtx& ctx) {
      m.adapter(0).host_enqueue(ctx, mk(1, 224));
      free_before = m.adapter(0).host_send_free();  // DMA not done yet
      charge(ctx, sim::usec(100));
      free_after = m.adapter(0).host_send_free();
    });
    w.spawn(1, [&](sim::NodeCtx& ctx) {
      charge(ctx, sim::usec(100));
      rx_ready = m.adapter(1).host_rx_ready();
    });
    w.run();
    return std::make_tuple(free_before, free_after, rx_ready);
  };
  const auto per_call = run(/*per_call=*/true);
  EXPECT_EQ(per_call, std::make_tuple(0, 1, true));
  EXPECT_EQ(run(/*per_call=*/false), per_call);
}

// The send FIFO frees lazily (fast path: no per-entry event), yet each
// entry must free at exactly the instant the tx DMA finishes fetching it:
// not one tick early, not one tick late.  Those instants follow from
// SpParams alone: the fetches start at the doorbell and run back to back.
TEST(Fastpath, SendFreeReadyTimeSettlesExactly) {
  SpParams params = SpParams::thin_node();
  params.send_fifo_entries = 4;
  sim::World w(2);
  SpMachine m(w, params);
  const sim::Time per_entry =
      sim::usec(params.dma_setup_us) +
      sim::transfer_time(mk(1, 224).wire_bytes(params), params.mc_dma_mbps);

  w.spawn(0, [&](sim::NodeCtx& ctx) {
    Tb2Adapter& ad = m.adapter(0);
    // Deferred doorbells: nothing is submitted, so the FIFO genuinely
    // fills and no entry frees however long the host waits.
    for (std::uint32_t i = 0; i < 4; ++i) {
      ad.host_enqueue(ctx, mk(1, 224, i), /*doorbell_npackets=*/0);
    }
    EXPECT_FALSE(ad.host_send_space());
    ctx.elapse(sim::usec(100));
    EXPECT_FALSE(ad.host_send_space());
    // Ringing submits all four to the tx DMA at the settled instant.
    ad.host_doorbell(ctx, 4);
    const sim::Time first_free = ctx.now() + per_entry;
    const sim::Time all_free = ctx.now() + 4 * per_entry;
    ctx.elapse(first_free - ctx.now() - 1);
    EXPECT_FALSE(ad.host_send_space());
    ctx.elapse(1);
    EXPECT_TRUE(ad.host_send_space());
    EXPECT_EQ(ad.host_send_free(), 1);
    ctx.elapse(all_free - ctx.now() - 1);
    EXPECT_EQ(ad.host_send_free(), 3);
    ctx.elapse(1);
    EXPECT_EQ(ad.host_send_free(), 4);
  });
  w.spawn(1, [&](sim::NodeCtx& ctx) {
    for (int got = 0; got < 4; ++got) {
      ctx.poll_until([&] { return m.adapter(1).host_rx_ready(); },
                     sim::usec(0.5));
      m.adapter(1).host_rx_take(ctx);
    }
  });
  w.run();
}

}  // namespace
}  // namespace spam::sphw
