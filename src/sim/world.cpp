#include "sim/world.hpp"

#include <sstream>
#include <utility>

#include "sim/trace.hpp"

namespace spam::sim {

namespace {

// Marks `node` as the running node for the dynamic extent of a
// fiber_->resume() call, restoring the previous value (the main context's
// nullptr) when the fiber yields back.
struct RunningNodeGuard {
  NodeCtx* prev;
  explicit RunningNodeGuard(NodeCtx* node) : prev(tl_running_node) {
    tl_running_node = node;
  }
  ~RunningNodeGuard() { tl_running_node = prev; }
  RunningNodeGuard(const RunningNodeGuard&) = delete;
  RunningNodeGuard& operator=(const RunningNodeGuard&) = delete;
};

}  // namespace

void NodeCtx::elapse(Time d) {
  assert(Fiber::current() == fiber_ && "elapse() must run on the node fiber");
  // Fold the charge debt into this sleep: same uint64-ns additions in the
  // same order as per-call elapses, so the wake instant is bit-identical.
  d += debt_;
  debt_ = 0;
  // Fast path: when no pending event would fire during the interval, the
  // wake timer and two fiber switches are pure overhead — advance the
  // clock in place.  Equivalent because nothing could have observed or
  // interleaved with this node while it slept.
  if (engine().try_skip_elapse(d)) return;
  sleep_state_ = SleepState::kElapsing;
  auto wake = [this] {
    // Only our own timer ends an elapse; resumers cannot shorten charged
    // CPU time (they latch wake_pending_ instead).
    assert(sleep_state_ == SleepState::kElapsing);
    sleep_state_ = SleepState::kRunning;
    RunningNodeGuard guard(this);
    fiber_->resume();
  };
  static_assert(Engine::Action::fits_inline<decltype(wake)>,
                "elapse() timer closure must not heap-allocate");
  engine().after(d, std::move(wake));
  Fiber::yield();
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
  Fiber::yield();
}

std::function<void()> NodeCtx::make_resumer() {
  return [this] {
    auto deliver = [this] {
      if (fiber_ == nullptr || fiber_->finished()) return;
      if (sleep_state_ == SleepState::kWaiting) {
        sleep_state_ = SleepState::kRunning;
        RunningNodeGuard guard(this);
        fiber_->resume();
      } else {
        // Running or elapsing: latch for the next suspend().
        wake_pending_ = true;
      }
    };
    if (Fiber::current() == nullptr) {
      deliver();  // already in the main context (an engine event)
    } else {
      // Called from some fiber: defer so fibers never switch directly.
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
  // timestamp, and settling keeps the trace stream byte-identical between
  // local-clock modes); idempotent across Worlds — the hook only touches
  // the thread's running node.
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
          prog(ctx);
          // A program that ends mid-charge still owes its CPU time: the
          // node's completion instant must match the per-call path.
          ctx.settle();
        },
        512 * 1024, "node" + std::to_string(rank));
    ctx.fiber_ = fiber.get();
    Fiber* f = fiber.get();
    engine_.at(engine_.now(), [f, &ctx] {
      RunningNodeGuard guard(&ctx);
      f->resume();
    });
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
  engine_.run();
  check_finished();
}

bool World::run_until(Time deadline) {
  launch_pending();
  engine_.run_until(deadline);
  for (const auto& f : fibers_) {
    if (!f->finished()) return false;
  }
  return true;
}

}  // namespace spam::sim
