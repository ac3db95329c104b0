// Cooperative fibers used to run one simulated node's program per fiber on
// top of the single-threaded event engine.
//
// Discipline: only engine events (or the main context) resume fibers; a
// fiber's program never resumes another fiber.  A fiber that yields runs
// the engine's event loop on its own stack while an event loop is hosted
// (Fiber::host, installed by World::run/run_until): an event that wakes
// another fiber switches straight from the executing stack into it, a wake
// for the yielding fiber returns from yield() with no switch at all, and
// control goes back to the main stack only when the run ends (queue empty,
// deadline passed, stop()).  So one wake costs one stack switch, not the
// main→fiber→main pair.  The loop runs on whichever stack yielded, in the
// same (t, seq) order as on the main stack.  Without a hosted loop (a bare
// Engine::run(), the Fiber unit tests) yield() switches back to the main
// context.  Two rules follow for events: a fiber wake must be the event's
// last action (the rest of the event runs only when its stack next gets
// control, and on a finished fiber's stack never), and events must not
// throw (they may be running on a fiber stack).
//
// On x86-64 the context switch is a hand-rolled callee-saved-register swap
// (~15 ns per switch).  glibc's swapcontext makes a sigprocmask syscall on
// every switch (~200 ns), which would dominate the whole event loop.  The
// fast path deliberately does NOT preserve per-fiber signal masks or FP
// exception state beyond mxcsr/fpcw — the simulator is single-threaded
// and signal-free.  Other architectures (or -DSPAM_SIM_FORCE_UCONTEXT)
// keep the portable ucontext path; both share the handoff logic.
#pragma once

#include <cstdint>

#if !defined(__x86_64__) || defined(SPAM_SIM_FORCE_UCONTEXT)
#define SPAM_SIM_UCONTEXT_FIBER 1
#include <ucontext.h>
#endif

// Under ThreadSanitizer the manual stack switches must be announced via the
// sanitizer fiber API, or TSan's shadow stack diverges from reality at the
// first switch (crashes and phantom races).  The annotations also give each
// fiber its own happens-before context, so the driver's thread pool can run
// whole Worlds-with-fibers concurrently under TSan.
#if defined(__SANITIZE_THREAD__)
#define SPAM_SIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPAM_SIM_TSAN_FIBERS 1
#endif
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace spam::sim {

class Engine;

class Fiber {
 public:
  enum class State { kCreated, kRunning, kSuspended, kFinished };

  /// Creates a fiber that will execute `body` on first resume().
  /// `stack_bytes` must comfortably hold the deepest call chain of the
  /// simulated program; application arrays belong on the heap.
  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = 512 * 1024,
                 std::string name = {});
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Wakes the fiber: switches from the executing stack straight into it,
  /// or does nothing more than mark it running when the executing stack is
  /// its own (an event it hosts woke it).  Called from an engine event or
  /// the main context, never from a fiber's program, and not on a running
  /// or finished fiber.
  void resume();

  /// Suspends the running fiber until some event resume()s it.  Runs the
  /// hosted event loop on this fiber's stack meanwhile; switches to the
  /// main context when no loop is hosted or the hosted run has nothing due.
  /// Must be called from inside a fiber.
  static void yield();

  /// The fiber whose program is executing, or nullptr in the main context
  /// and while an engine event runs (on any stack).
  static Fiber* current();

  /// Installs `engine` (nullptr: none) as this thread's hosted event loop:
  /// yield() then runs the engine's active run()/run_until() on the
  /// yielding fiber's stack.  World::run/run_until install their engine
  /// for the extent of the run.
  static void host(Engine* engine);

  /// Total resume() calls on this host thread since it started.  Benches
  /// read deltas to report fiber wakes (sim.switches) per simulated
  /// message.
  static std::uint64_t resume_count();

  /// Total physical stack switches on this host thread since it started:
  /// at most one per resume() plus one per return to the main context.
  static std::uint64_t stack_switches();

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }
  const std::string& name() const { return name_; }

 private:
  [[noreturn]] void run_body();
  void host_events();
  // The one physical switch, from the executing stack `from` to `to`
  // (nullptr: the main stack).  Force-inlined so the TSan announcement
  // executes in the *same instrumented frame* as the stack switch.  As an
  // out-of-line function its __tsan_func_entry lands on one fiber's shadow
  // call stack and the matching __tsan_func_exit pops the *other* fiber's
  // (the switch happens mid-function), underflowing the shadow stack until
  // libtsan crashes.
  __attribute__((always_inline)) static inline void switch_stack(Fiber* from,
                                                                  Fiber* to);

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  std::string name_;
#if defined(SPAM_SIM_UCONTEXT_FIBER)
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t ctx_{};
#else
  friend void fiber_entry_dispatch();
  void prepare_stack();
  void* sp_ = nullptr;  // fiber's saved stack pointer when switched out
#endif
#if defined(SPAM_SIM_TSAN_FIBERS)
  void tsan_destroy();
  void* tsan_fiber_ = nullptr;  // __tsan_create_fiber handle, lazily made
#else
  void tsan_destroy() {}
#endif
  State state_ = State::kCreated;
};

}  // namespace spam::sim
