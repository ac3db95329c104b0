// World: an engine plus N simulated nodes, each running its program on a
// cooperative fiber.
//
// A node's program sees virtual time through its NodeCtx: `elapse(t)` /
// `charge(t)` charge CPU time (the only way time passes for that node),
// `suspend()` / `make_resumer()` let hardware models park and wake a node,
// and `now()` reads the clock.
//
// Each node carries a *local virtual clock*: `charge()` accumulates CPU
// time into a per-node debt ledger instead of round-tripping through the
// engine, and the debt materializes as a single engine sleep only at
// interaction points — any `elapse()`, `suspend()`, resumer delivery from
// a fiber, trace emission, cross-node `now()` observation, or fiber exit.
// Debt is summed with the same uint64-ns additions in the same order an
// elapse() per charge would have used, so virtual times are bit-identical
// by construction (DESIGN.md §8).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace spam::sim {

class World;

/// Per-node handle given to simulated programs.
class NodeCtx {
 public:
  NodeCtx(World& world, int rank, Rng rng)
      : world_(&world), rank_(rank), rng_(rng) {}

  int rank() const { return rank_; }
  World& world() { return *world_; }
  Engine& engine();
  Rng& rng() { return rng_; }

  /// Current virtual time as seen by this node (engine clock plus any
  /// unmaterialized charge debt).  Reading another node's clock from a
  /// running fiber first settles the reader, so the observation happens at
  /// the exact instant the per-call path would have reached.
  Time now();

  /// Charges `d` ticks of CPU time to this node: the fiber sleeps until
  /// now()+d while the rest of the system keeps running.  Outstanding
  /// charge debt is folded into the sleep, so an elapse is also a
  /// settlement point.
  void elapse(Time d);

  /// Charges fractional microseconds of CPU time.
  void elapse_us(double us) { elapse(usec(us)); }

  /// Charges `d` ticks of CPU time without interacting with the engine:
  /// the time is added to this node's debt ledger and materializes as one
  /// engine sleep at the next interaction point.  Exactly equivalent to
  /// elapse(d) for code that performs no engine-visible action before the
  /// next settlement; use it for pure-compute charges on hot paths.  The
  /// adapter and AM layers charge their fiber-local per-packet costs (FIFO
  /// store and flush, doorbell access, copy-out, protocol bookkeeping) this
  /// way.
  void charge(Time d);

  /// Charges fractional microseconds of deferred CPU time.
  void charge_us(double us) { charge(usec(us)); }

  /// Materializes any outstanding charge debt as a single engine sleep.
  /// No-op when the ledger is empty.  Every path that yields the fiber or
  /// exposes engine-ordered state calls this first.
  void settle();

  /// Outstanding unmaterialized charge debt (diagnostics/tests).
  Time debt() const { return debt_; }

  /// Parks the fiber until some event calls the resumer returned by
  /// make_resumer().  Wakes may be spurious (two resumers racing): callers
  /// must re-check their condition in a loop.  A wake that arrives while
  /// the node is running or elapsing is latched and consumed by the next
  /// suspend(), so wake-ups are never lost.
  void suspend();

  /// Returns a callable that wakes this node out of suspend().  Safe to
  /// call from engine events or from any fiber (fiber calls are deferred
  /// through an engine event: only events resume fibers).  Does NOT
  /// interrupt elapse(): charged CPU time is indivisible.
  std::function<void()> make_resumer();

  /// Spins until `done()` returns true, charging `poll_cost` per check.
  /// Mirrors the paper's polling discipline: waiting burns CPU in poll
  /// quanta, so "timeouts" can be emulated by counting unsuccessful polls.
  /// Settles outstanding charge debt before the first check (predicates
  /// may read engine-ordered state); an idle wait then composes with the
  /// engine's elapse skip, so each empty quantum is an in-place clock bump
  /// rather than a fiber round-trip.
  template <typename Pred>
  void poll_until(Pred&& done, Time poll_cost) {
    assert(poll_cost > 0 && "zero-cost poll loop would freeze virtual time");
    settle();
    // spam-lint: charge-ok — one quantum per check IS the polling model
    while (!done()) elapse(poll_cost);
  }

 private:
  friend class World;
  enum class SleepState { kRunning, kElapsing, kWaiting };

  /// Yields the fiber until an event wakes it, marking no node running
  /// meanwhile.
  void park();

  World* world_;
  int rank_;
  Rng rng_;
  Fiber* fiber_ = nullptr;  // owned by World
  SleepState sleep_state_ = SleepState::kRunning;
  bool wake_pending_ = false;
  // Local virtual clock: CPU time charged but not yet materialized as an
  // engine sleep.
  Time debt_ = 0;
};

/// The node whose program is currently executing, nullptr in the
/// main/engine context (events, on whichever stack they run).  Set by the
/// program's own fiber: for the body, and again after each yield, which
/// clears it (NodeCtx::park); read by cross-node now(), fiber-originated
/// resumer delivery, the trace pre-emit hook, and the host-side adapter
/// calls to settle the running node's charge debt before its state becomes
/// observable.
inline thread_local NodeCtx* tl_running_node = nullptr;

/// Settles the running node's charge debt (no-op in the main/engine
/// context).  The one rule of the local clock: a host-side call that
/// touches engine-visible state settles its caller first.
inline void settle_running_node() {
  if (NodeCtx* running = tl_running_node) running->settle();
}

class World {
 public:
  explicit World(int num_nodes, std::uint64_t seed = 1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(nodes_.size()); }
  Engine& engine() { return engine_; }
  NodeCtx& node(int rank) { return *nodes_.at(rank); }

  /// Program run by a node: receives its NodeCtx.
  using Program = std::function<void(NodeCtx&)>;

  /// Assigns a program to one node (fiber starts when run() is called).
  void spawn(int rank, Program program);

  /// Assigns the same program to every node.
  void spawn_all(Program program);

  /// Runs the simulation until all programs finish and events drain.
  /// Throws std::runtime_error on deadlock (fibers alive, no events) —
  /// the error lists the stuck ranks.
  void run();

  /// Like run() but gives up once the virtual clock passes `deadline`.
  /// Returns true if all programs finished.
  bool run_until(Time deadline);

 private:
  void launch_pending();
  void check_finished();

  Engine engine_;
  Rng root_rng_;
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::pair<int, Program>> pending_;
};

inline Engine& NodeCtx::engine() { return world_->engine(); }

inline Time NodeCtx::now() {
  // Cross-node observation is an interaction point: settle the running
  // node so the engine clock has advanced to the instant the per-call
  // path would observe from.  (A non-running node's own debt is always
  // zero — every yield path settles first.)
  if (tl_running_node != this) settle_running_node();
  return engine().now() + debt_;
}

inline void NodeCtx::charge(Time d) {
  assert(Fiber::current() == fiber_ && "charge() must run on the node fiber");
  debt_ += d;
}

inline void NodeCtx::settle() {
  if (debt_ == 0) return;
  elapse(0);  // folds the debt into one sleep
}

}  // namespace spam::sim
