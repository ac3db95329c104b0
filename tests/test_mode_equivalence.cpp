// Mode-equivalence suite for the network fast path.
//
// SpParams::network_fastpath changes how the simulator computes virtual
// time, never what it computes: fused deliveries, merged wakes and elapse
// skip-ahead instead of the per-hop reference event chain.  Production
// runs with it on.  Every paper output runs in the other cell, with it
// off, and must equal production bit for bit: each bench's table function
// (bench/tables.hpp) whole, every element of every point's record and the
// text, and the Table 5/6 apps warm — three repetitions in one world,
// where the third must match and allocate nothing in either cell.
//
// The suite ends with two seeded fuzzers: a congestion fuzz that forces
// mid-flight fast-path disengagement, and a clock fuzz over the raw World
// layer (suspends, racing resumers, mid-debt wakes) that holds the
// node-local clock's deferred charge() to an elapse() per charge.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"
#include "tables.hpp"

namespace spam {

// gtest prints each case's parameter into its ctest name: print names, not
// bytes or kBenches indices, so adding a bench renames no other case.
namespace bench {
void PrintTo(Cell c, std::ostream* os) {
  *os << (c.fastpath ? "FastpathOn" : "FastpathOff");
}
void PrintTo(const BenchTables& b, std::ostream* os) { *os << b.name; }
}  // namespace bench

namespace {

using bench::Cell;
using bench::hw;
using bench::kProduction;

/// Table 6's world: the default four optimized MPI-AM nodes, in cell `c`.
mpi::MpiWorldConfig nas_cfg(Cell c) {
  mpi::MpiWorldConfig cfg;
  cfg.hw = hw(c);
  return cfg;
}

splitc::SplitCConfig splitc_cfg(Cell c) {
  splitc::SplitCConfig cfg;
  cfg.nodes = 8;
  cfg.hw = hw(c);
  return cfg;
}

/// The one non-production cell: the per-hop reference network.
const auto kOtherCells = ::testing::Values(Cell{false});

std::string cell_name(Cell c) { return ::testing::PrintToString(c); }

/// A world that ignored its cell would compare production with itself.
void expect_cell(const sim::Engine& engine, Cell c) {
  EXPECT_EQ(engine.fastpath(), c.fastpath);
}

class ModeEquivalence : public ::testing::TestWithParam<Cell> {
 protected:
  /// Runs `f` in this case's cell and in production; both must be equal.
  template <typename F>
  void expect_same_as_production(F&& f) {
    EXPECT_EQ(f(GetParam()), f(kProduction));
  }
};

INSTANTIATE_TEST_SUITE_P(Cells, ModeEquivalence, kOtherCells,
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return cell_name(info.param);
                         });

// --- Every bench, whole -----------------------------------------------------

class BenchModeEquivalence
    : public ::testing::TestWithParam<std::tuple<bench::BenchTables, Cell>> {
};

INSTANTIATE_TEST_SUITE_P(
    Benches, BenchModeEquivalence,
    ::testing::Combine(::testing::ValuesIn(bench::kBenches), kOtherCells),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      return name.append("_").append(cell_name(std::get<1>(info.param)));
    });

// Both cells' points run in one parallel phase, as regenerate() runs a
// bench's, so the full-size Table 5 and Table 6 cases stay affordable.
TEST_P(BenchModeEquivalence, EveryPointAndText) {
  const auto [b, cell] = GetParam();
  driver::ResultCache& cache = driver::ResultCache::instance();
  cache.clear();  // both record passes must see every point as a miss
  const auto points = bench::record_points([&] { b.tables(cell); });
  const auto prod = bench::record_points([&] { b.tables(kProduction); });
  ASSERT_EQ(points.size(), prod.size());
  ASSERT_FALSE(points.empty());
  const std::size_t n = points.size();
  std::vector<driver::Record> got(n), want(n);
  driver::SweepRunner().run_indexed(2 * n, [&](std::size_t j) {
    const bench::RecordedPoint& p = j < n ? points[j] : prod[j - n];
    (j < n ? got[j] : want[j - n]) = cache.memoize(p.key, p.compute);
  });
  for (std::size_t i = 0; i < n; ++i) {
    // A point the cell did not reach would compare production with itself.
    EXPECT_NE(points[i].key, prod[i].key) << "point " << i;
    ASSERT_EQ(got[i].size(), want[i].size()) << "point " << i;
    for (std::size_t e = 0; e < got[i].size(); ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i][e]),
                std::bit_cast<std::uint64_t>(want[i][e]))
          << "point " << i << " element " << e << ": "
          << std::setprecision(17) << got[i][e] << " vs " << want[i][e];
    }
  }
  const std::uint64_t misses = cache.stats().misses;
  EXPECT_EQ(b.tables(cell), b.tables(kProduction));
  EXPECT_EQ(cache.stats().misses, misses);  // the texts read only points
}

// --- Table 3 / Table 4: the round trips no bench prints ---------------------

TEST_P(ModeEquivalence, Table3And4RoundTrips) {
  expect_same_as_production([](Cell c) {
    return std::vector<double>{
        bench::am_rtt_us(2, hw(c)), bench::am_rtt_us(3, hw(c)),
        bench::mpl_rtt_us(hw(c, /*wide_nodes=*/true))};
  });
}

// --- Warm worlds: the third repetition of Table 5 and Table 6 ---------------
//
// The bench cases above build a fresh world per run.  These run each app
// three times in one world, so the third repetition starts from warm pools
// and fibers and a nonzero clock.  That repetition must give bit-identical
// virtual time and checksum in every cell, and must grow no pool
// (AllocCounters delta 0).  Two warm-ups, not one: the second rep's event
// pattern differs slightly from the first (virtual time no longer starts
// at zero), so one warm-up can leave the event pool a node short of its
// steady state.

struct WarmRep {
  double virt_s = 0;
  std::uint64_t checksum = 0;  // NAS: the double checksum's bits
  bool valid = false;
  std::uint64_t new_allocs = 0;

  bool operator==(const WarmRep&) const = default;
  friend void PrintTo(const WarmRep& r, std::ostream* os) {
    *os << std::setprecision(17) << "{virt_s " << r.virt_s << ", checksum "
        << r.checksum << ", valid " << r.valid << ", new_allocs "
        << r.new_allocs << "}";
  }
};

WarmRep from_phases(const apps::PhaseTimes& pt) {
  return {pt.total_s, pt.checksum, pt.valid};
}

WarmRep from_nas(const apps::NasResult& nr) {
  return {nr.time_s, std::bit_cast<std::uint64_t>(nr.checksum), nr.finished};
}

/// Runs `rep` three times in the world driven by `engine`; returns the
/// third repetition with the allocation growth across it.
template <typename Rep>
WarmRep third_rep(const sim::Engine& engine, Rep&& rep) {
  rep();
  rep();
  const bench::AllocCounters a0 = bench::AllocCounters::sample(engine);
  WarmRep r = rep();
  r.new_allocs = (bench::AllocCounters::sample(engine) - a0).total();
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.new_allocs, 0u);
  return r;
}

TEST_P(ModeEquivalence, WarmTable5SplitCThirdRep) {
  using apps::SortVariant;
  constexpr std::size_t kKeys = 8 * 1024;
  struct App {
    const char* name;
    std::function<WarmRep(splitc::SplitCWorld&)> run;
  };
  const App suite[] = {
      {"mm", [](splitc::SplitCWorld& w) {
         return from_phases(apps::run_matmul(w, /*nb=*/4, /*bd=*/32));
       }},
      {"smpsort_small", [](splitc::SplitCWorld& w) {
         return from_phases(
             apps::run_sample_sort(w, kKeys, SortVariant::kSmallMessage));
       }},
      {"smpsort_bulk", [](splitc::SplitCWorld& w) {
         return from_phases(
             apps::run_sample_sort(w, kKeys, SortVariant::kBulk));
       }},
      {"rdxsort_small", [](splitc::SplitCWorld& w) {
         return from_phases(
             apps::run_radix_sort(w, kKeys, SortVariant::kSmallMessage));
       }},
      {"rdxsort_bulk", [](splitc::SplitCWorld& w) {
         return from_phases(
             apps::run_radix_sort(w, kKeys, SortVariant::kBulk));
       }},
  };
  for (const App& app : suite) {
    SCOPED_TRACE(app.name);
    expect_same_as_production([&](Cell c) {
      splitc::SplitCWorld w(splitc_cfg(c));
      expect_cell(w.world().engine(), c);
      return third_rep(w.world().engine(), [&] { return app.run(w); });
    });
  }
}

struct NasKernel {
  const char* name;
  apps::NasResult (*run)(mpi::MpiWorld&, int, int);
  int n;
};

constexpr NasKernel kNasKernels[] = {
    {"FT", apps::run_ft, 16}, {"MG", apps::run_mg, 16},
    {"LU", apps::run_lu, 64}, {"BT", apps::run_bt, 16},
    {"SP", apps::run_sp, 16},
};

TEST_P(ModeEquivalence, WarmTable6NasThirdRep) {
  for (const NasKernel& k : kNasKernels) {
    SCOPED_TRACE(k.name);
    expect_same_as_production([&](Cell c) {
      mpi::MpiWorld w(nas_cfg(c));
      expect_cell(w.world().engine(), c);
      return third_rep(w.world().engine(),
                       [&] { return from_nas(k.run(w, k.n, /*iters=*/1)); });
    });
  }
}

// --- Seeded congestion fuzz: force mid-flight disengagement ------------------
//
// Three senders blast randomly sized bursts at random gaps, biased toward
// one hot receiver (many-to-one contention makes later-engaging packets
// exit the switch before queued reservations, rolling the ledger back),
// while the hot receiver arms and disarms a fault hook mid-burst
// (disengaging every reservation still ahead of its switch entry).  The
// entire observable outcome — per-receiver delivery traces with arrival
// instants and drop counts — must match the per-hop reference run
// exactly.

struct FuzzOutcome {
  // (receiver, src, seq, arrival time) in take order per receiver.
  std::vector<std::tuple<int, int, std::uint32_t, sim::Time>> trace;
  std::uint64_t injected_drops = 0;
  std::uint64_t fifo_drops = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t fused = 0;
};

FuzzOutcome run_congestion_fuzz(bool fastpath, std::uint64_t seed) {
  constexpr int kNodes = 4;
  constexpr int kHot = 3;  // every sender favors this receiver
  constexpr int kPacketsPerSender = 160;
  const sim::Time kDeadline = sim::usec(60000);

  FuzzOutcome out;
  sim::World w(kNodes);
  sphw::SpMachine m(w, hw({fastpath}));

  // One fiber per node (the World contract: one NodeCtx, one program).
  // Nodes 0..2 alternate sending bursts with draining their own receive
  // FIFO, then keep draining until the deadline; the hot node only drains,
  // and toggles the fault hook at seeded instants so bursts are mid-flight
  // when it arms.  Toggling happens between polls on the hot node's fiber,
  // a deterministic virtual instant in both modes.
  for (int node = 0; node < kNodes; ++node) {
    w.spawn(node, [&, node](sim::NodeCtx& ctx) {
      std::mt19937_64 rng(seed * 1000003u + static_cast<unsigned>(node));
      std::uniform_int_distribution<int> pick_dst(0, kNodes - 1);
      std::uniform_int_distribution<int> payload(0, 224);
      std::uniform_int_distribution<int> burst_len(1, 12);
      std::uniform_real_distribution<double> gap_us(0.1, 40.0);
      std::uniform_real_distribution<double> pause_us(0.3, 2.1);
      std::uniform_real_distribution<double> arm_gap_us(150.0, 900.0);
      sphw::Tb2Adapter& ad = m.adapter(node);
      const bool sender = node != kHot;
      int sent = 0;
      std::uint32_t seq = 0;
      sim::Time next_toggle =
          node == kHot ? sim::usec(arm_gap_us(rng)) : sim::Time{0};
      bool armed = false;
      auto drain = [&] {
        while (ad.host_rx_ready()) {
          sphw::Packet p = ad.host_rx_take(ctx);
          out.trace.emplace_back(node, static_cast<int>(p.src), p.seq,
                                 ctx.now());
        }
      };
      while (ctx.now() < kDeadline) {
        if (node == kHot && ctx.now() >= next_toggle) {
          armed = !armed;
          if (armed) {
            m.fabric().set_drop_fn(
                [](const sphw::Packet& p) { return p.seq % 7 == 3; });
          } else {
            m.fabric().set_drop_fn(nullptr);
          }
          next_toggle = ctx.now() + sim::usec(arm_gap_us(rng));
        }
        if (sender && sent < kPacketsPerSender) {
          const int burst = std::min(burst_len(rng), kPacketsPerSender - sent);
          for (int i = 0; i < burst; ++i) {
            ctx.poll_until([&] { return ad.host_send_space(); },
                           sim::usec(0.7));
            sphw::Packet p;
            // Mostly many-to-one onto the hot node; occasionally elsewhere.
            int dst = (rng() % 4 != 0) ? kHot : pick_dst(rng);
            if (dst == node) dst = (node + 1) % kNodes;
            p.dst = static_cast<std::int16_t>(dst);
            p.seq = seq++;
            const std::uint32_t bytes =
                static_cast<std::uint32_t>(payload(rng));
            p.payload_bytes = bytes;
            p.payload.assign(bytes, std::byte{0x5a});
            ad.host_enqueue(ctx, std::move(p));
            ++sent;
          }
          drain();
          ctx.elapse(sim::usec(gap_us(rng)));
        } else {
          drain();
          ctx.elapse(sim::usec(pause_us(rng)));
        }
      }
    });
  }

  w.run();
  for (int node = 0; node < kNodes; ++node) {
    const sphw::Tb2Adapter::Stats& st = m.adapter(node).stats();
    out.fifo_drops += st.rx_dropped_fifo_full;
    out.rollbacks += st.fused_rollbacks;
    out.fused += st.fused_deliveries;
  }
  out.injected_drops = m.fabric().stats().dropped_injected;
  return out;
}

TEST(FastpathEquivalence, CongestionFuzzForcesRollbacks) {
  bool saw_rollback = false;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const FuzzOutcome slow = run_congestion_fuzz(false, seed);
    const FuzzOutcome fast = run_congestion_fuzz(true, seed);
    EXPECT_EQ(slow.trace, fast.trace) << "seed " << seed;
    EXPECT_EQ(slow.injected_drops, fast.injected_drops) << "seed " << seed;
    EXPECT_EQ(slow.fifo_drops, fast.fifo_drops) << "seed " << seed;
    EXPECT_EQ(slow.rollbacks, 0u);
    EXPECT_EQ(slow.fused, 0u);
    EXPECT_GT(fast.fused, 0u) << "seed " << seed;
    saw_rollback = saw_rollback || fast.rollbacks > 0;
    // Some traffic must actually flow for the comparison to mean anything.
    EXPECT_GT(slow.trace.size(), 100u) << "seed " << seed;
  }
  EXPECT_TRUE(saw_rollback)
      << "no seed forced a mid-flight disengagement; strengthen the fuzz";
}

// --- Seeded clock fuzz: suspends, racing resumers, mid-debt wakes ------------
//
// Four nodes run a seeded mix of fine-grain charges, real elapses,
// cross-node clock observations, trace emission, and suspend/resume through
// a shared mailbox of resumers.  The racing-resumer case arises naturally:
// a node arms its resumer, charges more debt, then suspend() settles —
// which yields — so a peer can fire the resumer before the suspend
// consumes it (a latched, mid-debt wake).  Node 0 never suspends and
// drains the mailbox after the deadline so no wake is ever lost.  The
// reference run calls elapse() wherever the production run calls
// charge(): one engine sleep per charge.
//
// The fuzz keeps every node's shared-state touches at a *distinct* virtual
// instant: all durations are multiples of kFuzzNodes, node r's clock stays
// in residue class r (mod kFuzzNodes), and a node woken at a peer's
// instant realigns before acting.  This is deliberate — the equivalence
// contract (DESIGN.md §8) guarantees bit-identical per-node virtual times
// and engine-ordered effects, not the seq tie-break among *different*
// nodes' events at the same tick: deferral collapses a run of charge wakes
// into one settle wake whose seq is assigned earlier than the reference's
// last elapse wake, so exact-tie order against an unrelated third event
// can permute.  The protocol stack never
// races shared host state at tied instants (the paper-workload suites
// above are the byte-identical proof); a fuzz that did would test an
// ordering no layer relies on.

constexpr int kFuzzNodes = 4;

struct ClockFuzzOutcome {
  // Per-observer streams of (observed node, observed now).  Observations
  // are logged per node, not in one global vector: host-side append order
  // across nodes legitimately differs between the runs (a charging node runs
  // several pure-compute iterations in one resumption), while the *global*
  // interleaving of engine-ordered effects is checked via the trace
  // stream, whose emission settles first.
  std::array<std::vector<std::pair<int, sim::Time>>, kFuzzNodes> samples;
  std::string trace;
};

/// `per_call` runs the reference: each charge() becomes an elapse().
ClockFuzzOutcome run_clock_fuzz(bool per_call, std::uint64_t seed) {
  constexpr int kNodes = kFuzzNodes;
  const sim::Time kDeadline = sim::usec(4000);

  ClockFuzzOutcome out;
  sim::World w(kNodes, seed);
  sim::Trace::capture_to(&out.trace);
  sim::Trace::enable(sim::TraceCat::kApp);

  std::vector<std::function<void()>> mailbox;
  std::array<bool, kNodes> done{};

  for (int node = 0; node < kNodes; ++node) {
    w.spawn(node, [&, node](sim::NodeCtx& ctx) {
      auto& log = out.samples[static_cast<std::size_t>(node)];
      std::uint64_t marks = 0;
      // Durations are quantized to multiples of kNodes and each node is
      // offset into its own residue class, so no two nodes ever touch the
      // shared mailbox/done state at the same tick (see comment above).
      auto q = [](std::uint64_t n) {
        return static_cast<sim::Time>(kNodes) * n;
      };
      auto charge = [&](sim::Time d) {
        if (per_call) {
          ctx.elapse(d);
        } else {
          ctx.charge(d);
        }
      };
      auto realign = [&] {
        const sim::Time mis = (static_cast<sim::Time>(node) + kNodes -
                               ctx.now() % kNodes) % kNodes;
        if (mis != 0) ctx.elapse(mis);
      };
      if (node != 0) ctx.elapse(static_cast<sim::Time>(node));
      while (ctx.now() < kDeadline) {
        const std::uint64_t roll = ctx.rng().next_below(100);
        if (roll < 50) {
          // Fine-grain compute: accumulates debt.
          charge(q(1 + ctx.rng().next_below(75)));
        } else if (roll < 65) {
          ctx.elapse(q(1 + ctx.rng().next_below(125)));
        } else if (roll < 75) {
          // Cross-node clock observation: an interaction point that must
          // settle this node's debt before reading engine time.
          const int peer = static_cast<int>(ctx.rng().next_below(kNodes));
          log.emplace_back(peer, w.node(peer).now());
          // A node that is not running owes no charge debt.
          if (peer != node) {
            EXPECT_EQ(w.node(peer).debt(), 0u);
          }
        } else if (roll < 83) {
          sim::Trace::log(sim::TraceCat::kApp, ctx.now(), "n%d mark %llu",
                          node, static_cast<unsigned long long>(marks++));
        } else if (roll < 93) {
          // Fire someone's pending resumer, possibly racing their suspend.
          // The mailbox is cross-fiber state: settle before reading it, the
          // same discipline the protocol layers follow for shared flags.
          ctx.settle();
          if (!mailbox.empty()) {
            auto wake = std::move(mailbox.back());
            mailbox.pop_back();
            charge(q(1 + ctx.rng().next_below(12)));  // wake mid-debt
            wake();
          } else {
            charge(q(2));
          }
        } else if (node != 0) {
          // Arm a resumer, pile on debt, then suspend: settle-then-sleep,
          // with the wake possibly already latched by the time we get
          // there.  Settle before publishing the resumer so peers see it
          // at this node's virtual instant in both modes.  The wake lands
          // at the waker's instant, so realign before acting again.
          ctx.settle();
          mailbox.push_back(ctx.make_resumer());
          charge(q(1 + ctx.rng().next_below(50)));
          ctx.suspend();
          realign();
        }
        log.emplace_back(node, ctx.now());
      }
      ctx.settle();  // publish `done` at this node's virtual instant
      done[static_cast<std::size_t>(node)] = true;
      if (node == 0) {
        // Drain: keep firing stranded resumers until every node exits.
        auto all_done = [&] {
          for (bool d : done) {
            if (!d) return false;
          }
          return true;
        };
        while (!all_done()) {
          while (!mailbox.empty()) {
            auto wake = std::move(mailbox.back());
            mailbox.pop_back();
            wake();
          }
          ctx.elapse(q(250));  // 1 µs per drain round, residue-preserving
        }
      }
    });
  }

  w.run();
  sim::Trace::capture_to(nullptr);
  sim::Trace::disable_all();
  return out;
}

TEST(LocalClockEquivalence, ClockFuzzMatchesPerChargeReference) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const ClockFuzzOutcome slow = run_clock_fuzz(/*per_call=*/true, seed);
    const ClockFuzzOutcome fast = run_clock_fuzz(/*per_call=*/false, seed);
    std::size_t total = 0;
    for (int n = 0; n < kFuzzNodes; ++n) {
      EXPECT_EQ(slow.samples[static_cast<std::size_t>(n)],
                fast.samples[static_cast<std::size_t>(n)])
          << "seed " << seed << " node " << n;
      total += slow.samples[static_cast<std::size_t>(n)].size();
    }
    EXPECT_EQ(slow.trace, fast.trace) << "seed " << seed;
    EXPECT_GT(total, 400u) << "seed " << seed;
    EXPECT_FALSE(slow.trace.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spam
