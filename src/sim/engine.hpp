// Discrete-event engine: a single virtual clock and an ordered event queue.
//
// Events scheduled for the same instant fire in FIFO order of scheduling,
// which makes every run deterministic.  The engine is single-threaded by
// design; concurrency in the simulated system is expressed as interleaved
// events, never as host threads.
//
// The queue is one circular buffer of (t, node | fiber) entries kept sorted
// by time, with equal times in scheduling order, so the next event is
// always the entry at the head.  An entry holds either an action node
// (at()) or a bare fiber wake (wake_at()); both go through one insert,
// which finds the slot by binary search, after every entry at or before
// its own time, which keeps same-time events FIFO by position alone across
// both kinds, and opens it by moving the shorter side of the buffer one
// place outward.  Most queues are shallow (a few to a few dozen pending
// events) and most events land near the end, so an insert moves a few
// entries; on deep queues (thousands of events in the full Table 5 run)
// the shorter side still bounds the move.  Peek and pop are O(1).  The
// buffer keeps its high-water size: in steady state scheduling an event
// allocates nothing.
//
// Action nodes are recycled through a free list and each node embeds its
// action in InlineAction small-buffer storage.  A wake entry needs neither:
// step() calls Fiber::resume() on it directly, with no node, no action
// relocation and no indirect call.  pool_stats() exposes the allocation
// counters that let benchmarks and tests assert the zero-allocation
// property.
//
// The engine also hosts the elapse skip used by the fiber layer
// (src/sim/world.cpp): try_skip_elapse(d) advances the clock across a dead
// interval without queueing a wake, when provably equivalent (no pending
// event at or before now()+d, and now()+d within the active run
// deadline).  Since the fiber handoff a skipped wake would not have cost a
// stack switch either; the skip saves the insert and pop of one bare wake
// entry, and still pays for itself on the two-node microbenchmark's
// latency (docs/network-fastpath.md, "Surviving shortcuts").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace spam::sim {

class Fiber;

class Engine {
 public:
  using Action = InlineAction;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  void at(Time t, Action fn);

  /// Schedules `fn` to run `delay` ticks from now.
  void after(Time delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules a bare wake of `f` at absolute time `t` (clamped to now()):
  /// at its turn the event is f->resume() and nothing else.  Same-time
  /// order with at() events is scheduling order, as among at() events.
  void wake_at(Time t, Fiber* f);

  /// Runs events until the queue drains or stop() is called.
  /// Returns the number of events executed, including those a hosted
  /// fiber loop (sim::Fiber::host) ran on fiber stacks.
  std::uint64_t run();

  /// Runs until the clock would pass `deadline`; events at exactly
  /// `deadline` still execute.  Returns events executed, as run() does.
  std::uint64_t run_until(Time deadline);

  /// True while the active run()/run_until() has an event left to
  /// execute: not stopped, and the earliest event exists and is within the
  /// run's deadline.  The one loop test, on the main stack and on every
  /// fiber stack that hosts the loop.
  bool due() const {
    return !stopped_ && count_ != 0 && ring_[head_].t <= run_deadline_;
  }

  /// Executes the single earliest event.  Returns false if queue empty.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return count_; }

  /// The earliest instant at which anything but the running code can act:
  /// the earliest pending event's time, or the instant control returns to
  /// the run()/run_until() caller if that comes first (the run's deadline,
  /// or now() once stopped).  Requires !empty().  Read-only.
  Time next_event_bound() const {
    if (stopped_) return now_;
    const Time t = ring_[head_].t;
    return t < run_deadline_ ? t : run_deadline_;
  }

  /// Enables/disables every proven-equivalent shortcut that hangs off the
  /// engine (elapse skip-ahead here; the network fast path reads the same
  /// flag through sphw::SpParams).  On by default; ModeEquivalence
  /// (tests/test_mode_equivalence.cpp) flips it off for the comparison.
  void set_fastpath(bool on) { fastpath_ = on; }
  bool fastpath() const { return fastpath_; }

  /// Fast path for NodeCtx::elapse: if no pending event fires at or before
  /// now()+d and now()+d does not cross the active run()/run_until()
  /// deadline, advances the clock directly (no wake timer is scheduled).
  /// Returns false — caller must schedule + yield as usual — otherwise.
  /// An event at exactly now()+d denies: per-hop mode would run it before
  /// the wake timer, which would be scheduled after it.
  bool try_skip_elapse(Time d) {
    if (!fastpath_ || stopped_) return false;
    const Time target = now_ + d;
    if (target > run_deadline_) return false;
    if (count_ != 0 && ring_[head_].t <= target) return false;
    now_ = target;
    return true;
  }

  /// Total events executed since construction (monotonic; host-perf metric).
  std::uint64_t events_executed() const { return executed_; }

  /// Allocation counters for the event core.  In steady state (after
  /// warmup) scheduling events must not change `nodes_allocated`,
  /// `queue_capacity` or `action_heap_fallbacks`: that is the
  /// zero-allocation invariant SteadyState.* asserts.
  struct PoolStats {
    std::uint64_t nodes_allocated = 0;      // pool growth, total nodes ever
    std::uint64_t nodes_free = 0;           // currently on the free list
    std::uint64_t nodes_live = 0;           // action nodes in the queue
    std::uint64_t action_heap_fallbacks = 0;  // InlineAction heap closures
    std::uint64_t queue_capacity = 0;       // event buffer's high water
  };
  PoolStats pool_stats() const {
    return {nodes_allocated_, nodes_free_, nodes_allocated_ - nodes_free_,
            InlineAction::heap_fallbacks(), ring_.size()};
  }

 private:
  struct Node {
    Action fn;
    Node* next_free = nullptr;  // free-list link
  };

  /// One queued event.  The time lives in the entry, not the node, so the
  /// binary search and the peek read the buffer alone.  `p` is a Node*, or
  /// a Fiber* with kWakeTag set for a bare wake (both are at least 2-byte
  /// aligned, which engine.cpp asserts).
  struct Entry {
    Time t;
    std::uintptr_t p;
  };
  static constexpr std::uintptr_t kWakeTag = 1;

  Node* acquire();
  void release(Node* n);
  void insert(Time t, std::uintptr_t p);

  // Node storage: fixed-size blocks keep node addresses stable while the
  // pool grows; the free list threads through recycled nodes.
  static constexpr std::size_t kBlockNodes = 256;
  std::vector<std::unique_ptr<Node[]>> blocks_;
  Node* free_list_ = nullptr;
  std::uint64_t nodes_allocated_ = 0;
  std::uint64_t nodes_free_ = 0;

  // Pending events sorted by (t, scheduling order) in a circular buffer
  // whose size is a power of two: the i-th next event is
  // ring_[(head_ + i) & (ring_.size() - 1)], so ring_[head_] is the next
  // event to run.
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  void grow();

  Time now_ = 0;
  std::uint64_t executed_ = 0;
  // True outside run()/run_until() and after stop(): nothing is due.
  bool stopped_ = true;
  bool fastpath_ = true;
  // Deadline of the active run()/run_until(): a skipped elapse must not
  // move the clock past the point where control would have returned to
  // the caller.
  Time run_deadline_ = 0;
};

}  // namespace spam::sim
