#include "micro.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "driver/sweep.hpp"

namespace spam::bench {

namespace {

struct AmFixture {
  sim::World world;
  sphw::SpMachine machine;
  am::AmNet net;
  AmFixture(int nodes, sphw::SpParams hw, am::AmParams amp)
      : world(nodes), machine(world, hw), net(machine, amp) {}
};

std::vector<std::byte> filled(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0x5a});
}

// The arguments of an N-word request are the first N of these.
constexpr am::Word kArgs[] = {1, 2, 3, 4};

/// Out-of-range word counts send the full four words.
int clamp_words(int words) { return words >= 1 && words <= 3 ? words : 4; }

}  // namespace

static double am_rtt_us_raw(int words, sphw::SpParams hw, am::AmParams amp) {
  AmFixture f(2, hw, amp);
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++pongs; });
  const int h_ping = e1.register_handler(
      [&, h_pong](am::Endpoint& ep, am::Token t, const am::Word* a, int n) {
        ep.reply(t, h_pong, a, n);
      });

  sim::Time total = 0;
  constexpr int kWarm = 4, kIters = 32;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    auto fire = [&] { e0.request(1, h_ping, kArgs, clamp_words(words)); };
    for (int i = 0; i < kWarm; ++i) {
      const int want = pongs + 1;
      fire();
      e0.poll_until([&] { return pongs >= want; });
    }
    const sim::Time t0 = ctx.now();
    for (int i = 0; i < kIters; ++i) {
      const int want = pongs + 1;
      fire();
      e0.poll_until([&] { return pongs >= want; });
    }
    total = ctx.now() - t0;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return pongs >= kWarm + kIters; });
  });
  f.world.run();
  return sim::to_usec(total) / kIters;
}

static double raw_rtt_us_raw(sphw::SpParams hw) {
  // Raw ping-pong straight on the adapter: header-only packets, no
  // sequence numbers, no retransmission state, no per-message flow
  // bookkeeping.  Fixed software costs mirror the AM request/reply paths
  // minus the flow-control work the paper attributes the extra 4.5 us to.
  sim::World world(2);
  sphw::SpMachine machine(world, hw);
  constexpr double kSendSw = 2.6, kReplySw = 1.3, kPoll = 1.2, kHandle = 0.95;

  sim::Time total = 0;
  constexpr int kWarm = 2, kIters = 32;
  world.spawn(0, [&](sim::NodeCtx& ctx) {
    auto& ad = machine.adapter(0);
    for (int i = 0; i < kWarm + kIters; ++i) {
      if (i == kWarm) total = ctx.now();
      ctx.elapse(sim::usec(kSendSw));
      sphw::Packet p;
      p.dst = 1;
      p.payload_bytes = 4;
      ad.host_enqueue(ctx, std::move(p));
      ctx.poll_until([&] { return ad.host_rx_ready(); }, sim::usec(kPoll));
      ad.host_rx_take(ctx);
      ctx.elapse(sim::usec(kHandle));
    }
    total = ctx.now() - total;
  });
  world.spawn(1, [&](sim::NodeCtx& ctx) {
    auto& ad = machine.adapter(1);
    for (int i = 0; i < kWarm + kIters; ++i) {
      ctx.poll_until([&] { return ad.host_rx_ready(); }, sim::usec(kPoll));
      ad.host_rx_take(ctx);
      ctx.elapse(sim::usec(kHandle));
      ctx.elapse(sim::usec(kReplySw));
      sphw::Packet p;
      p.dst = 0;
      p.payload_bytes = 4;
      ad.host_enqueue(ctx, std::move(p));
    }
  });
  world.run();
  return sim::to_usec(total) / kIters;
}

static double am_request_cost_us_raw(int words, sphw::SpParams hw) {
  // Time of a successful am_request_N call (includes the poll it performs;
  // paper Table 2 assumes that poll finds the network empty).
  AmFixture f(2, hw, {});
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  int served = 0;
  const int h_serve = e1.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++served; });

  sim::Time req_cost = 0;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    e0.request(1, h_serve, kArgs, clamp_words(words));
    req_cost = ctx.now() - t0;
    e0.poll_until([&] { return served >= 1; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return served >= 1; });
  });
  f.world.run();
  return sim::to_usec(req_cost);
}

static double am_reply_cost_us_raw(int words, sphw::SpParams hw) {
  // Time the am_reply_N call alone, invoked from a handler.
  AmFixture f(2, hw, {});
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  bool ponged = false;
  const int h_pong = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ponged = true; });
  sim::Time reply_cost = 0;
  const int h_serve = e1.register_handler(
      [&, h_pong](am::Endpoint& ep, am::Token t, const am::Word* a, int n) {
        const sim::Time t0 = ep.ctx().now();
        ep.reply(t, h_pong, a, n);
        reply_cost = ep.ctx().now() - t0;
      });

  f.world.spawn(0, [&](sim::NodeCtx&) {
    e0.request(1, h_serve, kArgs, clamp_words(words));
    e0.poll_until([&] { return ponged; });
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return ponged; });
  });
  f.world.run();
  return sim::to_usec(reply_cost);
}

static double am_poll_empty_us_raw(sphw::SpParams hw) {
  AmFixture f(2, hw, {});
  sim::Time cost = 0;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    f.net.ep(0).poll();
    cost = ctx.now() - t0;
  });
  f.world.run();
  return sim::to_usec(cost);
}

static double am_poll_per_msg_us_raw(sphw::SpParams hw) {
  AmFixture f(2, hw, {});
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  int got = 0;
  const int h = e1.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++got; });
  sim::Time poll_with_msg = 0;
  f.world.spawn(0, [&](sim::NodeCtx&) { e0.request_1(1, h, 7); });
  f.world.spawn(1, [&](sim::NodeCtx& ctx) {
    ctx.poll_until([&] { return e1.adapter().host_rx_ready(); },
                   sim::usec(0.3));
    const sim::Time t0 = ctx.now();
    e1.poll();
    poll_with_msg = ctx.now() - t0;
  });
  f.world.run();
  return sim::to_usec(poll_with_msg) - am_poll_empty_us(hw);
}

static double am_bandwidth_mbps_raw(AmBwMode mode, std::size_t bytes,
                                    sphw::SpParams hw, am::AmParams amp) {
  AmFixture f(2, hw, amp);
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  const std::size_t total =
      std::max<std::size_t>(bytes, std::min<std::size_t>(1 << 20, bytes * 64));
  const std::size_t count = total / bytes;
  auto src = filled(bytes);
  std::vector<std::byte> dst(bytes * std::min<std::size_t>(count, 64));
  const std::size_t slots = dst.size() / bytes;

  sim::Time elapsed = 0;
  bool done = false;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    switch (mode) {
      case AmBwMode::kSyncStore:
        for (std::size_t i = 0; i < count; ++i) {
          e0.store(1, dst.data() + (i % slots) * bytes, src.data(), bytes);
          e0.poll_until([&] { return e0.outstanding_bulk_ops() == 0; });
        }
        break;
      case AmBwMode::kSyncGet:
        for (std::size_t i = 0; i < count; ++i) {
          e0.get_blocking(1, src.data(), dst.data() + (i % slots) * bytes,
                          bytes);
        }
        break;
      case AmBwMode::kPipelinedAsyncStore: {
        std::size_t completions = 0;
        for (std::size_t i = 0; i < count; ++i) {
          e0.store_async(1, dst.data() + (i % slots) * bytes, src.data(),
                         bytes, 0, 0, [&] { ++completions; });
        }
        e0.poll_until([&] { return completions == count; });
        break;
      }
      case AmBwMode::kPipelinedAsyncGet: {
        std::size_t completions = 0;
        for (std::size_t i = 0; i < count; ++i) {
          e0.get(1, src.data(), dst.data() + (i % slots) * bytes, bytes, 0, 0,
                 [&] { ++completions; });
        }
        e0.poll_until([&] { return completions == count; });
        break;
      }
    }
    elapsed = ctx.now() - t0;
    done = true;
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return done; });
  });
  f.world.run();
  return static_cast<double>(bytes * count) / sim::to_sec(elapsed) / 1e6;
}

static double mpl_rtt_us_raw(sphw::SpParams hw, mpl::MplParams mp) {
  sim::World world(2);
  sphw::SpMachine machine(world, hw);
  mpl::MplNet net(machine, mp);
  sim::Time total = 0;
  constexpr int kWarm = 2, kIters = 16;
  world.spawn(0, [&](sim::NodeCtx& ctx) {
    int w = 1, r = 0;
    for (int i = 0; i < kWarm + kIters; ++i) {
      if (i == kWarm) total = ctx.now();
      net.ep(0).mpc_bsend(&w, sizeof w, 1, 0);
      net.ep(0).mpc_brecv(&r, sizeof r, 1, 0);
    }
    total = ctx.now() - total;
  });
  world.spawn(1, [&](sim::NodeCtx&) {
    int v = 0;
    for (int i = 0; i < kWarm + kIters; ++i) {
      net.ep(1).mpc_brecv(&v, sizeof v, 0, 0);
      net.ep(1).mpc_bsend(&v, sizeof v, 0, 0);
    }
  });
  world.run();
  return sim::to_usec(total) / kIters;
}

static double mpl_bandwidth_mbps_raw(MplBwMode mode, std::size_t bytes,
                                     sphw::SpParams hw, mpl::MplParams mp) {
  sim::World world(2);
  sphw::SpMachine machine(world, hw);
  mpl::MplNet net(machine, mp);
  const std::size_t total =
      std::max<std::size_t>(bytes, std::min<std::size_t>(1 << 20, bytes * 64));
  const std::size_t count = total / bytes;
  auto src = filled(bytes);
  std::vector<std::byte> dst(bytes);

  sim::Time elapsed = 0;
  world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    if (mode == MplBwMode::kBlocking) {
      for (std::size_t i = 0; i < count; ++i) {
        net.ep(0).mpc_bsend(src.data(), bytes, 1, 0);
        char fin = 0;
        net.ep(0).mpc_brecv(&fin, 0, 1, 1);  // 0-byte echo per transfer
      }
    } else {
      std::vector<int> handles;
      handles.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        handles.push_back(net.ep(0).mpc_send(src.data(), bytes, 1, 0));
      }
      for (int h : handles) net.ep(0).mpc_wait(h);
      char fin = 0;
      net.ep(0).mpc_brecv(&fin, 0, 1, 1);  // single trailing echo
    }
    elapsed = ctx.now() - t0;
  });
  world.spawn(1, [&](sim::NodeCtx&) {
    if (mode == MplBwMode::kBlocking) {
      for (std::size_t i = 0; i < count; ++i) {
        net.ep(1).mpc_brecv(dst.data(), bytes, 0, 0);
        char fin = 0;
        net.ep(1).mpc_bsend(&fin, 0, 0, 1);
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        net.ep(1).mpc_brecv(dst.data(), bytes, 0, 0);
      }
      char fin = 0;
      net.ep(1).mpc_bsend(&fin, 0, 0, 1);
    }
  });
  world.run();
  return static_cast<double>(bytes * count) / sim::to_sec(elapsed) / 1e6;
}

std::vector<std::size_t> figure3_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 16; s <= (1u << 20); s *= 2) {
    sizes.push_back(s);
    if (s * 3 / 2 < (1u << 20)) sizes.push_back(s * 3 / 2);
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

static double mpi_hop_latency_us_raw(const mpi::MpiWorldConfig& cfg,
                                     std::size_t bytes) {
  mpi::MpiWorld w(cfg);
  std::vector<std::byte> buf(std::max<std::size_t>(bytes, 1), std::byte{1});
  sim::Time total = 0;
  constexpr int kWarm = 1, kIters = 4;
  const int ring = w.size();
  w.run([&](mpi::Mpi& mpi) {
    const int me = mpi.rank();
    const int right = (me + 1) % ring;
    const int left = (me + ring - 1) % ring;
    for (int i = 0; i < kWarm + kIters; ++i) {
      if (me == 0) {
        if (i == kWarm) total = mpi.ctx().now();
        mpi.send(buf.data(), bytes, right, 5);
        mpi.recv(buf.data(), bytes, left, 5);
        if (i == kWarm + kIters - 1) total = mpi.ctx().now() - total;
      } else {
        mpi.recv(buf.data(), bytes, left, 5);
        mpi.send(buf.data(), bytes, right, 5);
      }
    }
  });
  return sim::to_usec(total) / kIters / ring;
}

static double mpi_bandwidth_mbps_raw(const mpi::MpiWorldConfig& cfg,
                                     std::size_t bytes) {
  mpi::MpiWorldConfig c2 = cfg;
  c2.nodes = 2;
  mpi::MpiWorld w(c2);
  const std::size_t total =
      std::max<std::size_t>(bytes, std::min<std::size_t>(1 << 20, bytes * 32));
  const std::size_t count = total / bytes;
  std::vector<std::byte> src(bytes, std::byte{2});
  std::vector<std::byte> dst(bytes, std::byte{0});
  sim::Time elapsed = 0;
  w.run([&](mpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      const sim::Time t0 = mpi.ctx().now();
      for (std::size_t i = 0; i < count; ++i) {
        mpi.send(src.data(), bytes, 1, 3);
      }
      char fin = 0;
      mpi.recv(&fin, 1, 1, 4);
      elapsed = mpi.ctx().now() - t0;
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        mpi.recv(dst.data(), bytes, 0, 3);
      }
      char fin = 1;
      mpi.send(&fin, 1, 0, 4);
    }
  });
  return static_cast<double>(bytes * count) / sim::to_sec(elapsed) / 1e6;
}

static double am_store_hop_latency_us_raw(std::size_t bytes,
                                          sphw::SpParams hw) {
  // Reference curve: one-way am_store time from the store() call on node 0
  // to the bulk handler on node 1, averaged over a short train.  The handler
  // replies, so each node waits only on its own endpoint (poll_until).
  AmFixture f(2, hw, {});
  am::Endpoint& e0 = f.net.ep(0);
  am::Endpoint& e1 = f.net.ep(1);
  auto src = filled(std::max<std::size_t>(bytes, 1));
  std::vector<std::byte> dst(src.size());
  int replies = 0, served = 0;
  sim::Time sent_at = 0, one_way = 0;
  const int h_reply = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++replies; });
  const int h = e1.register_bulk_handler(
      [&, h_reply](am::Endpoint& ep, am::Token t, void*, std::size_t,
                   am::Word) {
        one_way += ep.ctx().now() - sent_at;
        ++served;
        ep.reply_1(t, h_reply, 0);
      });
  constexpr int kIters = 4;
  f.world.spawn(0, [&](sim::NodeCtx& ctx) {
    for (int i = 0; i < kIters; ++i) {
      sent_at = ctx.now();
      e0.store(1, dst.data(), src.data(), bytes, h, 0);
      e0.poll_until([&] { return replies > i; });
    }
  });
  f.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return served >= kIters; });
  });
  f.world.run();
  return sim::to_usec(one_way) / kIters;
}

double am_store_bandwidth_mbps(std::size_t bytes, sphw::SpParams hw) {
  return am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, bytes, hw, {});
}

// --- Memoized public entry points -------------------------------------------
// Each measurement is keyed on (bench id, every parameter field, size/mode)
// and goes through cached(), so within one invocation it is computed at
// most once via driver::ResultCache.  A bench's record pass
// (bench/harness.hpp) collects the misses, one parallel phase computes
// them, and the print pass reads them back.  Params are mixed
// field-by-field so padding bytes never reach the key.  The compute
// closures capture by value: a recorded closure outlives the call.

using driver::Hasher;

Hasher& mix(Hasher& h, const sphw::SpParams& p) {
  return h.mix(p.flush_line_us)
      .mix(p.cache_line_bytes)
      .mix(p.host_write_us_per_byte)
      .mix(p.host_copy_us_per_byte)
      .mix(p.mc_access_us)
      .mix(p.mc_dma_mbps)
      .mix(p.dma_setup_us)
      .mix(p.i860_tx_us)
      .mix(p.i860_rx_us)
      .mix(p.link_mbps)
      .mix(p.hop_latency_us)
      .mix(p.send_fifo_entries)
      .mix(p.recv_fifo_entries_per_node)
      .mix(p.packet_data_bytes)
      .mix(p.packet_header_bytes)
      .mix(p.lazy_pop_batch)
      .mix(p.network_fastpath);
}

namespace {

Hasher& mix(Hasher& h, const am::AmParams& p) {
  return h.mix(p.request_window_packets)
      .mix(p.reply_window_packets)
      .mix(p.chunk_packets)
      .mix(p.explicit_ack_divisor)
      .mix(p.keepalive_poll_threshold)
      .mix(p.interrupt_driven)
      .mix(p.interrupt_latency_us)
      .mix(p.poll_empty_us)
      .mix(p.per_msg_handling_us)
      .mix(p.request_cpu_us)
      .mix(p.reply_cpu_us)
      .mix(p.per_word_us)
      .mix(p.bookkeeping_us)
      .mix(p.bulk_setup_us)
      .mix(p.doorbell_batch_packets)
      .mix(p.control_cpu_us);
}

Hasher& mix(Hasher& h, const mpl::MplParams& p) {
  return h.mix(p.send_sw_us)
      .mix(p.recv_sw_us)
      .mix(p.per_packet_us)
      .mix(p.sysbuf_copy_us_per_byte)
      .mix(p.user_copy_us_per_byte)
      .mix(p.poll_us)
      .mix(p.credit_window)
      .mix(p.credit_return_every);
}

Hasher& mix(Hasher& h, const mpi::MpiAmConfig& p) {
  return h.mix(p.optimized)
      .mix(p.peer_buffer_bytes)
      .mix(p.eager_max)
      .mix(p.hybrid)
      .mix(p.hybrid_prefix)
      .mix(p.binned_allocator)
      .mix(p.batch_frees)
      .mix(p.free_batch)
      .mix(p.sw_send_us)
      .mix(p.sw_recv_us)
      .mix(p.copy_us_per_byte)
      .mix(p.alloc_step_us);
}

Hasher& mix(Hasher& h, const mpif::MpiFConfig& p) {
  h.mix(p.eager_max).mix(p.sw_send_us).mix(p.sw_recv_us);
  mix(h, p.transport);
  return h.mix(p.tuned_collectives);
}

/// The record pass running on this thread, if any.  Thread-local, so the
/// parallel phase's workers (and every other caller) compute as usual.
struct Recording {
  std::vector<RecordedPoint> points;
  std::unordered_set<std::uint64_t> seen;
};
thread_local Recording* t_recording = nullptr;

}  // namespace

Hasher& mix(Hasher& h, const mpi::MpiWorldConfig& p) {
  h.mix(p.nodes).mix(p.impl).mix(p.seed);
  mix(h, p.hw);
  mix(h, p.am);
  mix(h, p.am_cfg);
  return mix(h, p.f_cfg);
}

Record cached(const Hasher& key, std::size_t width,
              std::function<Record()> compute) {
  assert(width <= Record::kMaxWidth);
  driver::ResultCache& cache = driver::ResultCache::instance();
  if (t_recording == nullptr) return cache.memoize(key.digest(), compute);
  Record r;
  if (cache.lookup(key.digest(), &r)) return r;
  if (t_recording->seen.insert(key.digest()).second) {
    t_recording->points.push_back({key.digest(), std::move(compute)});
  }
  r.width = width;  // the placeholder
  std::fill_n(r.v.begin(), width, kRecordPlaceholder);
  return r;
}

std::vector<RecordedPoint> record_points(const std::function<void()>& fn) {
  Recording rec;
  t_recording = &rec;
  struct Reset {
    ~Reset() { t_recording = nullptr; }
  } reset;
  fn();
  return std::move(rec.points);
}

double am_rtt_us(int words, sphw::SpParams hw, am::AmParams amp) {
  Hasher h("am_rtt_us");
  mix(mix(h.mix(words), hw), amp);
  return cached(h, [=] { return am_rtt_us_raw(words, hw, amp); });
}

double raw_rtt_us(sphw::SpParams hw) {
  Hasher h("raw_rtt_us");
  mix(h, hw);
  return cached(h, [=] { return raw_rtt_us_raw(hw); });
}

double am_request_cost_us(int words, sphw::SpParams hw) {
  Hasher h("am_request_cost_us");
  mix(h.mix(words), hw);
  return cached(h, [=] { return am_request_cost_us_raw(words, hw); });
}

double am_reply_cost_us(int words, sphw::SpParams hw) {
  Hasher h("am_reply_cost_us");
  mix(h.mix(words), hw);
  return cached(h, [=] { return am_reply_cost_us_raw(words, hw); });
}

double am_poll_empty_us(sphw::SpParams hw) {
  Hasher h("am_poll_empty_us");
  mix(h, hw);
  return cached(h, [=] { return am_poll_empty_us_raw(hw); });
}

double am_poll_per_msg_us(sphw::SpParams hw) {
  Hasher h("am_poll_per_msg_us");
  mix(h, hw);
  return cached(h, [=] { return am_poll_per_msg_us_raw(hw); });
}

double am_bandwidth_mbps(AmBwMode mode, std::size_t bytes, sphw::SpParams hw,
                         am::AmParams amp) {
  Hasher h("am_bandwidth_mbps");
  mix(mix(h.mix(mode).mix(bytes), hw), amp);
  return cached(h, [=] { return am_bandwidth_mbps_raw(mode, bytes, hw, amp); });
}

double mpl_rtt_us(sphw::SpParams hw, mpl::MplParams mp) {
  Hasher h("mpl_rtt_us");
  mix(mix(h, hw), mp);
  return cached(h, [=] { return mpl_rtt_us_raw(hw, mp); });
}

double mpl_bandwidth_mbps(MplBwMode mode, std::size_t bytes,
                          sphw::SpParams hw, mpl::MplParams mp) {
  Hasher h("mpl_bandwidth_mbps");
  mix(mix(h.mix(mode).mix(bytes), hw), mp);
  return cached(h,
                [=] { return mpl_bandwidth_mbps_raw(mode, bytes, hw, mp); });
}

double mpi_hop_latency_us(const mpi::MpiWorldConfig& cfg, std::size_t bytes) {
  Hasher h("mpi_hop_latency_us");
  mix(h.mix(bytes), cfg);
  return cached(h, [=] { return mpi_hop_latency_us_raw(cfg, bytes); });
}

double mpi_bandwidth_mbps(const mpi::MpiWorldConfig& cfg, std::size_t bytes) {
  Hasher h("mpi_bandwidth_mbps");
  mix(h.mix(bytes), cfg);
  return cached(h, [=] { return mpi_bandwidth_mbps_raw(cfg, bytes); });
}

double am_store_hop_latency_us(std::size_t bytes, sphw::SpParams hw) {
  Hasher h("am_store_hop_latency_us");
  mix(h.mix(bytes), hw);
  return cached(h, [=] { return am_store_hop_latency_us_raw(bytes, hw); });
}

}  // namespace spam::bench
