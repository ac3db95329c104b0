// MPI fuzz property suite: seeded random traffic (mixed sizes crossing
// every protocol boundary, random tags, random posting order, wildcard
// receives) executed on the simulated stack and validated message-by-
// message against a sequential reference, over both MPI implementations.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mpif/mpi_world.hpp"

#include "bytes_equal.hpp"

namespace spam::mpi {
namespace {

struct FuzzCase {
  MpiImpl impl;
  // gtest prints each case's param as a byte dump; an explicit zero word
  // here keeps the four bytes after `impl` from being uninitialised padding,
  // so the printed test names are the same on every run.
  std::uint32_t zero_pad = 0;
  std::uint64_t seed;
  int nodes;
  int msgs_per_pair;
};

/// Deterministic payload for message k of pair (src, dst).
std::vector<std::byte> payload_of(int src, int dst, int k, std::size_t len) {
  std::vector<std::byte> v(len);
  sim::Rng rng((static_cast<std::uint64_t>(src) << 40) ^
               (static_cast<std::uint64_t>(dst) << 20) ^
               static_cast<std::uint64_t>(k) * 2654435761u);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return v;
}

/// Sizes chosen to straddle the eager bins, the first-fit region, the
/// 8/16 KB switches, the hybrid prefix, and the chunk size.
std::size_t pick_size(sim::Rng& rng) {
  static const std::size_t anchors[] = {0,    1,    17,   1000, 1024,
                                        4095, 4096, 8064, 8192, 16384,
                                        20000, 40000};
  const std::size_t base = anchors[rng.next_below(std::size(anchors))];
  return base + rng.next_below(7);
}

class MpiFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MpiFuzz, RandomTrafficDeliveredExactly) {
  const FuzzCase fc = GetParam();
  MpiWorldConfig cfg;
  cfg.impl = fc.impl;
  cfg.nodes = fc.nodes;
  cfg.seed = fc.seed;
  MpiWorld w(cfg);

  // Pre-plan the traffic deterministically so every rank agrees.
  // plan[src][dst] = list of (len, tag).
  sim::Rng plan_rng(fc.seed * 31337);
  std::map<std::pair<int, int>, std::vector<std::pair<std::size_t, int>>>
      plan;
  for (int s = 0; s < fc.nodes; ++s) {
    for (int d = 0; d < fc.nodes; ++d) {
      if (s == d) continue;
      auto& msgs = plan[{s, d}];
      for (int k = 0; k < fc.msgs_per_pair; ++k) {
        msgs.emplace_back(pick_size(plan_rng),
                          static_cast<int>(plan_rng.next_below(3)));
      }
    }
  }

  std::vector<std::string> failures;
  w.run([&](Mpi& mpi) {
    const int me = mpi.rank();
    const int p = mpi.size();
    sim::Rng rng(fc.seed + static_cast<std::uint64_t>(me));

    // Each rank: post all receives (as irecv, random interleave with
    // sends), send everything, then wait and validate.
    struct PendingRecv {
      int req;
      int src;
      int k;
      std::size_t len;
      std::vector<std::byte> buf;
    };
    std::vector<PendingRecv> recvs;
    struct PendingSend {
      int req;
    };
    std::vector<int> sends;

    // Build the per-source receive schedules.  Within one (src, tag) the
    // posts must be in message order (non-overtaking); different sources
    // interleave randomly.
    std::vector<std::pair<int, int>> post_order;  // (src, k)
    for (int s = 0; s < p; ++s) {
      if (s == me) continue;
      for (int k = 0; k < fc.msgs_per_pair; ++k) post_order.push_back({s, k});
    }
    // Shuffle preserving per-source order: random merge.
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    std::vector<std::pair<int, int>> merged;
    while (merged.size() < post_order.size()) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
      if (s == me) continue;
      auto& c = cursor[static_cast<std::size_t>(s)];
      if (c < static_cast<std::size_t>(fc.msgs_per_pair)) {
        merged.push_back({s, static_cast<int>(c)});
        ++c;
      }
    }

    // Alternate posting receives and issuing sends.
    std::size_t ri = 0;
    std::vector<std::pair<int, int>> send_order;  // (dst, k)
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      for (int k = 0; k < fc.msgs_per_pair; ++k) send_order.push_back({d, k});
    }
    std::size_t si = 0;
    std::vector<std::vector<std::byte>> send_bufs;
    while (ri < merged.size() || si < send_order.size()) {
      const bool do_recv =
          ri < merged.size() && (si >= send_order.size() || rng.chance(0.5));
      if (do_recv) {
        const auto [s, k] = merged[ri++];
        const auto& m = plan[{s, me}][static_cast<std::size_t>(k)];
        PendingRecv pr;
        pr.src = s;
        pr.k = k;
        pr.len = m.first;
        pr.buf.assign(m.first + 4, std::byte{0x7e});  // canary tail
        pr.req = mpi.irecv(pr.buf.data(), m.first, s, m.second);
        recvs.push_back(std::move(pr));
      } else {
        const auto [d, k] = send_order[si++];
        const auto& m = plan[{me, d}][static_cast<std::size_t>(k)];
        send_bufs.push_back(payload_of(me, d, k, m.first));
        sends.push_back(
            mpi.isend(send_bufs.back().data(), m.first, d, m.second));
      }
    }
    for (int r : sends) mpi.wait(r);
    for (auto& pr : recvs) {
      Status st;
      mpi.wait(pr.req, &st);
      if (st.bytes != pr.len || st.source != pr.src) {
        failures.push_back("rank " + std::to_string(me) + ": bad status");
        continue;
      }
      const auto want = payload_of(pr.src, me, pr.k, pr.len);
      if (!spam::test::bytes_equal(pr.buf.data(), want.data(), pr.len)) {
        failures.push_back("rank " + std::to_string(me) + ": bad bytes from " +
                           std::to_string(pr.src) + " msg " +
                           std::to_string(pr.k));
      }
      for (std::size_t i = pr.len; i < pr.buf.size(); ++i) {
        if (pr.buf[i] != std::byte{0x7e}) {
          failures.push_back("rank " + std::to_string(me) + ": overrun");
          break;
        }
      }
    }
    mpi.barrier();
  });

  for (const auto& f : failures) ADD_FAILURE() << f;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MpiFuzz,
    ::testing::Values(
        FuzzCase{.impl = MpiImpl::kAmOptimized,
                 .seed = 1,
                 .nodes = 3,
                 .msgs_per_pair = 4},
        FuzzCase{.impl = MpiImpl::kAmOptimized,
                 .seed = 2,
                 .nodes = 4,
                 .msgs_per_pair = 3},
        FuzzCase{.impl = MpiImpl::kAmOptimized,
                 .seed = 3,
                 .nodes = 2,
                 .msgs_per_pair = 8},
        FuzzCase{.impl = MpiImpl::kAmOptimized,
                 .seed = 4,
                 .nodes = 4,
                 .msgs_per_pair = 5},
        FuzzCase{.impl = MpiImpl::kAmUnoptimized,
                 .seed = 5,
                 .nodes = 3,
                 .msgs_per_pair = 4},
        FuzzCase{.impl = MpiImpl::kAmUnoptimized,
                 .seed = 6,
                 .nodes = 4,
                 .msgs_per_pair = 3},
        FuzzCase{.impl = MpiImpl::kMpiF,
                 .seed = 7,
                 .nodes = 3,
                 .msgs_per_pair = 4},
        FuzzCase{.impl = MpiImpl::kMpiF,
                 .seed = 8,
                 .nodes = 4,
                 .msgs_per_pair = 3}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      const char* impl = info.param.impl == MpiImpl::kMpiF        ? "MpiF"
                         : info.param.impl == MpiImpl::kAmOptimized
                             ? "AmOpt"
                             : "AmUnopt";
      return std::string(impl) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace spam::mpi
