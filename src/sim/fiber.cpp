#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "sim/engine.hpp"

#if defined(SPAM_SIM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace spam::sim {
namespace {

// This thread's scheduling state.  Per-thread so concurrent driver Worlds
// don't race; every field is reloaded after each switch (the switch is an
// opaque call), never cached across one.
struct Scheduler {
  Fiber* current = nullptr;  // fiber whose program runs (Fiber::current)
  Fiber* on_stack = nullptr;  // fiber whose stack executes; nullptr: main
  Engine* hosted = nullptr;   // event loop yield() runs (Fiber::host)
  std::uint64_t resumes = 0;   // see resume_count()
  std::uint64_t switches = 0;  // see stack_switches()
#if defined(SPAM_SIM_UCONTEXT_FIBER)
  ucontext_t main_ctx{};  // main context while a fiber stack executes
#else
  void* main_sp = nullptr;  // main stack pointer while a fiber executes
#endif
#if defined(SPAM_SIM_TSAN_FIBERS)
  void* main_tsan = nullptr;  // TSan fiber of the main stack
#endif
};

thread_local Scheduler g_sched;

}  // namespace

#if defined(SPAM_SIM_TSAN_FIBERS)
void Fiber::tsan_destroy() {
  if (tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
}
#endif

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes),
      name_(std::move(name)) {}

Fiber::~Fiber() {
  // Destroying a suspended fiber abandons its stack.  That is deliberate:
  // teardown after a detected deadlock or a run_until() timeout must not
  // require unwinding parked programs.
  tsan_destroy();
}

Fiber* Fiber::current() { return g_sched.current; }

void Fiber::host(Engine* engine) { g_sched.hosted = engine; }

std::uint64_t Fiber::resume_count() { return g_sched.resumes; }

std::uint64_t Fiber::stack_switches() { return g_sched.switches; }

#if !defined(SPAM_SIM_UCONTEXT_FIBER)
extern "C" void spam_sim_fiber_switch(void** save_sp, void* load_sp);
#endif

__attribute__((always_inline)) inline void Fiber::switch_stack(Fiber* from,
                                                                Fiber* to) {
  Scheduler& s = g_sched;
  ++s.switches;
  s.on_stack = to;
#if defined(SPAM_SIM_TSAN_FIBERS)
  if (from == nullptr) s.main_tsan = __tsan_get_current_fiber();
  if (to != nullptr && to->tsan_fiber_ == nullptr) {
    to->tsan_fiber_ = __tsan_create_fiber(0);
  }
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber_ : s.main_tsan, 0);
#endif
#if defined(SPAM_SIM_UCONTEXT_FIBER)
  swapcontext(from != nullptr ? &from->ctx_ : &s.main_ctx,
              to != nullptr ? &to->ctx_ : &s.main_ctx);
#else
  spam_sim_fiber_switch(from != nullptr ? &from->sp_ : &s.main_sp,
                        to != nullptr ? to->sp_ : s.main_sp);
#endif
}

void Fiber::resume() {
  assert(g_sched.current == nullptr &&
         "resume() must be called from an event or the main context");
  assert(state_ != State::kFinished && "cannot resume a finished fiber");
  assert(state_ != State::kRunning);

  ++g_sched.resumes;
#if defined(SPAM_SIM_UCONTEXT_FIBER)
  if (state_ == State::kCreated) {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr;  // the trampoline never returns
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
  }
#else
  if (state_ == State::kCreated) prepare_stack();
#endif
  state_ = State::kRunning;
  // An event this fiber hosts woke it: host_events() returns into yield()
  // once the event does, with no switch.
  if (g_sched.on_stack != this) switch_stack(g_sched.on_stack, this);
}

void Fiber::yield() {
  Fiber* self = g_sched.current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  assert(self == g_sched.on_stack);
  self->state_ = State::kSuspended;
  g_sched.current = nullptr;
  self->host_events();
  g_sched.current = self;
}

// Runs the hosted event loop on this fiber's stack until an event wakes
// the fiber (forever once it has finished).  Control leaves the stack
// inside resume() when an event wakes another fiber, and here when the
// run has nothing due; either way it comes back only through a wake of
// this fiber, which ends the loop.
void Fiber::host_events() {
  while (state_ != State::kRunning) {
    Engine* loop = g_sched.hosted;
    if (loop != nullptr && loop->due()) {
      loop->step();
    } else {
      switch_stack(this, nullptr);
    }
  }
}

void Fiber::run_body() {
  g_sched.current = this;
  body_();
  // Finished: keep dispatching on this dead stack until an event hands
  // control to another fiber, or the run ends, for good.
  state_ = State::kFinished;
  g_sched.current = nullptr;
  host_events();
  std::abort();  // unreachable: a finished fiber is never woken
}

#if defined(SPAM_SIM_UCONTEXT_FIBER)

// ---------------------------------------------------------------------------
// Portable path: ucontext.  One sigprocmask syscall per switch, but works
// on every POSIX architecture.
// ---------------------------------------------------------------------------

void Fiber::trampoline(unsigned hi, unsigned lo) {
  reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                           static_cast<std::uintptr_t>(lo))
      ->run_body();
}

#else

// ---------------------------------------------------------------------------
// Fast path: hand-rolled x86-64 SysV context switch (boost.context style).
// Saves the callee-saved registers plus mxcsr/fpcw on the suspending stack,
// swaps stack pointers, restores, returns.  No syscall, no signal-mask
// bookkeeping.  One frame below the switch there is no CFI, so debugger
// backtraces stop at the switch — an accepted cost of the ~14x speedup.
// ---------------------------------------------------------------------------

extern "C" void spam_sim_fiber_entry();

asm(R"(
.text
.globl spam_sim_fiber_switch
.hidden spam_sim_fiber_switch
.type spam_sim_fiber_switch,@function
.align 16
spam_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq  $8, %rsp
  stmxcsr 4(%rsp)
  fnstcw  (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 4(%rsp)
  fldcw   (%rsp)
  addq  $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size spam_sim_fiber_switch,.-spam_sim_fiber_switch

.globl spam_sim_fiber_entry
.hidden spam_sim_fiber_entry
.type spam_sim_fiber_entry,@function
.align 16
spam_sim_fiber_entry:
  subq $8, %rsp
  call spam_sim_fiber_entry_cxx
  ud2
.size spam_sim_fiber_entry,.-spam_sim_fiber_entry
)");

void fiber_entry_dispatch();

// First activation of a fiber lands here (via the ret in fiber_switch).
// switch_stack() set on_stack to the fiber just before the switch.
extern "C" void spam_sim_fiber_entry_cxx() { fiber_entry_dispatch(); }

void fiber_entry_dispatch() { g_sched.on_stack->run_body(); }

void Fiber::prepare_stack() {
  // Lay the stack out exactly as spam_sim_fiber_switch leaves it when
  // suspending, with spam_sim_fiber_entry as the return target.  The entry
  // is reached by `ret`, landing with rsp ≡ 8 (mod 16) exactly as if it
  // had been called; its own sub-8 then 16-aligns rsp before calling into
  // C++ — SSE spills in the body segfault if this is off by 8.
  auto top = reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes_;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;  // fake return slot: entry never returns
  *--sp = reinterpret_cast<std::uint64_t>(&spam_sim_fiber_entry);
  for (int i = 0; i < 6; ++i) *--sp = 0;  // rbp, rbx, r12-r15
  --sp;  // fpcw (low 2 bytes) and mxcsr (at offset 4), seeded from current
  std::uint32_t mxcsr;
  std::uint16_t fpcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
  auto* slot = reinterpret_cast<char*>(sp);
  *reinterpret_cast<std::uint16_t*>(slot) = fpcw;
  *reinterpret_cast<std::uint32_t*>(slot + 4) = mxcsr;
  sp_ = sp;
}

#endif  // SPAM_SIM_UCONTEXT_FIBER

}  // namespace spam::sim
