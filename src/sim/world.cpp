#include "sim/world.hpp"

#include <sstream>
#include <utility>

#include "sim/trace.hpp"

namespace spam::sim {

void NodeCtx::elapse(Time d) {
  assert(Fiber::current() == fiber_ && "elapse() must run on the node fiber");
  // Fold the charge debt into this sleep: same uint64-ns additions in the
  // same order as per-call elapses, so the wake instant is bit-identical.
  d += debt_;
  debt_ = 0;
  // Fast path: when no pending event would fire during the interval,
  // advance the clock in place.  Equivalent because nothing could have
  // observed or interleaved with this node while it slept.  The wake it
  // saves would cost no stack switch (the yielding fiber hosts the loop and
  // its own wake is the next event), only the insert and pop of a bare
  // wake entry, but that still shows in the two-node latency
  // (docs/network-fastpath.md, "Surviving shortcuts").
  if (engine().try_skip_elapse(d)) return;
  sleep_state_ = SleepState::kElapsing;
  engine().wake_at(engine().now() + d, fiber_);
  park();
  // Only our own wake ends an elapse; resumers cannot shorten charged CPU
  // time (they latch wake_pending_ instead).  The wake switches straight
  // into this fiber, so no event runs between it and this store.
  assert(sleep_state_ == SleepState::kElapsing);
  sleep_state_ = SleepState::kRunning;
}

void NodeCtx::park() {
  // Events run while the fiber is parked, possibly on its own stack: they
  // see the main/engine context, so no node is running until it wakes.
  tl_running_node = nullptr;
  Fiber::yield();
  tl_running_node = this;
}

void NodeCtx::suspend() {
  assert(Fiber::current() == fiber_ && "suspend() must run on the node fiber");
  // Settle before looking at the latch: resumer calls riding on events up
  // to this node's virtual instant must land first, exactly as they would
  // have during the per-call path's final elapse.
  settle();
  if (wake_pending_) {
    // A wake arrived while we were running/elapsing; consume it now.
    wake_pending_ = false;
    return;
  }
  sleep_state_ = SleepState::kWaiting;
  park();
}

std::function<void()> NodeCtx::make_resumer() {
  return [this] {
    auto deliver = [this] {
      if (fiber_ == nullptr || fiber_->finished()) return;
      if (sleep_state_ == SleepState::kWaiting) {
        sleep_state_ = SleepState::kRunning;
        fiber_->resume();
      } else {
        // Running or elapsing: latch for the next suspend().
        wake_pending_ = true;
      }
    };
    if (Fiber::current() == nullptr) {
      deliver();  // already in an engine event (on whichever stack)
    } else {
      // Called from some fiber: defer, since only events resume fibers.
      // Settle the caller first — the deferred delivery must be stamped
      // with the caller's virtual instant, not a stale engine clock.
      settle_running_node();
      engine().at(engine().now(), deliver);
    }
  };
}

World::World(int num_nodes, std::uint64_t seed) : root_rng_(seed) {
  nodes_.reserve(num_nodes);
  for (int r = 0; r < num_nodes; ++r) {
    nodes_.push_back(std::make_unique<NodeCtx>(*this, r, root_rng_.split(r)));
  }
  // Trace emission is a charge-debt interaction point (the line renders a
  // timestamp, which must be the node's settled instant); idempotent across
  // Worlds — the hook only touches the thread's running node.
  Trace::set_pre_emit_hook(&settle_running_node);
}

World::~World() = default;

void World::spawn(int rank, Program program) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("World::spawn: bad rank");
  }
  pending_.emplace_back(rank, std::move(program));
}

void World::spawn_all(Program program) {
  for (int r = 0; r < size(); ++r) spawn(r, program);
}

void World::launch_pending() {
  for (auto& [rank, program] : pending_) {
    NodeCtx& ctx = *nodes_[rank];
    auto fiber = std::make_unique<Fiber>(
        [&ctx, prog = std::move(program)] {
          tl_running_node = &ctx;
          prog(ctx);
          // A program that ends mid-charge still owes its CPU time: the
          // node's completion instant must match the per-call path.
          ctx.settle();
          tl_running_node = nullptr;
        },
        512 * 1024, "node" + std::to_string(rank));
    ctx.fiber_ = fiber.get();
    engine_.wake_at(engine_.now(), fiber.get());
    fibers_.push_back(std::move(fiber));
  }
  pending_.clear();
}

void World::check_finished() {
  std::ostringstream stuck;
  int n_stuck = 0;
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->finished()) {
      if (n_stuck++) stuck << ", ";
      stuck << fibers_[i]->name();
    }
  }
  if (n_stuck > 0) {
    throw std::runtime_error(
        "World::run: deadlock — event queue drained with " +
        std::to_string(n_stuck) + " program(s) still blocked: " + stuck.str());
  }
}

void World::run() {
  launch_pending();
  Fiber::host(&engine_);
  engine_.run();
  Fiber::host(nullptr);
  check_finished();
}

bool World::run_until(Time deadline) {
  launch_pending();
  Fiber::host(&engine_);
  engine_.run_until(deadline);
  Fiber::host(nullptr);
  for (const auto& f : fibers_) {
    if (!f->finished()) return false;
  }
  return true;
}

}  // namespace spam::sim
