#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "sim/fiber.hpp"
#include "sim/hot.hpp"

namespace spam::sim {

namespace {
constexpr Time kTimeMax = std::numeric_limits<Time>::max();
}  // namespace

SPAM_HOT Engine::Node* Engine::acquire() {
  if (free_list_ == nullptr) {
    blocks_.push_back(std::make_unique<Node[]>(kBlockNodes));
    Node* block = blocks_.back().get();
    for (std::size_t i = 0; i < kBlockNodes; ++i) {
      block[i].next_free = free_list_;
      free_list_ = &block[i];
    }
    nodes_allocated_ += kBlockNodes;
    nodes_free_ += kBlockNodes;
  }
  Node* n = free_list_;
  free_list_ = n->next_free;
  --nodes_free_;
  return n;
}

SPAM_HOT void Engine::release(Node* n) {
  // The action has been moved out (or never set); the node slot is clean.
  n->next_free = free_list_;
  free_list_ = n;
  ++nodes_free_;
}

void Engine::grow() {
  // Doubles the buffer (64 entries on first use) and unwraps it so the
  // next event sits at index 0.  Runs only when the queue passes its high
  // water, never in a warm steady state.
  std::vector<Entry> bigger(ring_.empty() ? 64 : 2 * ring_.size());
  const std::size_t mask = ring_.size() - 1;
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = ring_[(head_ + i) & mask];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

SPAM_HOT void Engine::insert(Time t, std::uintptr_t p) {
  static_assert(alignof(Node) > kWakeTag && alignof(Fiber) > kWakeTag,
                "node and fiber addresses must leave the wake tag bit free");
  if (t < now_) t = now_;
  if (count_ == ring_.size()) grow();
  // Locals, not members: the entry stores below could otherwise alias
  // head_ and count_ and force a reload on every step of the moves.
  Entry* const ring = ring_.data();
  const std::size_t mask = ring_.size() - 1;
  const std::size_t count = count_;
  std::size_t head = head_;
  // The slot after every entry at or before `t`: same-time events
  // scheduled earlier stay ahead of this one, so they run first.
  std::size_t lo = 0;
  for (std::size_t len = count; len > 0;) {
    const std::size_t half = len / 2;
    const bool after = ring[(head + lo + half) & mask].t <= t;
    lo = after ? lo + half + 1 : lo;
    len = after ? len - half - 1 : half;
  }
  // Open the slot by moving the shorter side one place outward.
  if (lo < count - lo) {
    head = (head - 1) & mask;
    for (std::size_t i = 0; i < lo; ++i) {
      ring[(head + i) & mask] = ring[(head + i + 1) & mask];
    }
    head_ = head;
  } else {
    for (std::size_t i = count; i > lo; --i) {
      ring[(head + i) & mask] = ring[(head + i - 1) & mask];
    }
  }
  ring[(head + lo) & mask] = Entry{t, p};
  count_ = count + 1;
}

SPAM_HOT void Engine::at(Time t, Action fn) {
  Node* n = acquire();
  n->fn = std::move(fn);
  insert(t, reinterpret_cast<std::uintptr_t>(n));
}

SPAM_HOT void Engine::wake_at(Time t, Fiber* f) {
  insert(t, reinterpret_cast<std::uintptr_t>(f) | kWakeTag);
}

SPAM_HOT bool Engine::step() {
  if (count_ == 0) return false;
  const Entry next = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  now_ = next.t;
  ++executed_;
  if ((next.p & kWakeTag) != 0) {
    reinterpret_cast<Fiber*>(next.p & ~kWakeTag)->resume();
    return true;
  }
  // Move the action out and recycle the node *before* invoking: the event
  // body usually schedules the next event, which then reuses this hot node.
  Node* const n = reinterpret_cast<Node*>(next.p);
  Action fn = std::move(n->fn);
  release(n);
  fn();
  return true;
}

std::uint64_t Engine::run() { return run_until(kTimeMax); }

SPAM_HOT std::uint64_t Engine::run_until(Time deadline) {
  const std::uint64_t start = executed_;
  stopped_ = false;
  run_deadline_ = deadline;
  while (due()) step();
  stopped_ = true;
  return executed_ - start;
}

}  // namespace spam::sim
