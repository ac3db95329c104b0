// Fixture: fiber-unsafe patterns.  Lines with a trailing EXPECT marker
// are parsed by tests/test_spam_lint.cpp.
//
// This file is linted, never compiled.
extern "C" void __tsan_switch_to_fiber(void* fiber, unsigned flags);

namespace fixture {

thread_local int cached_across_switches = 0;  // EXPECT: fiber-tls

inline void announce_out_of_line(void* f) {
  __tsan_switch_to_fiber(f, 0);  // EXPECT: fiber-tsan-inline
}

inline void announce_in_block_out_of_line(void* f) {
  if (f != nullptr) {
    __tsan_switch_to_fiber(f, 0);  // EXPECT: fiber-tsan-inline
  }
}

__attribute__((always_inline)) inline void announce_inline(void* f) {
  __tsan_switch_to_fiber(f, 0);  // inlined into the switching frame: ok
}

}  // namespace fixture
