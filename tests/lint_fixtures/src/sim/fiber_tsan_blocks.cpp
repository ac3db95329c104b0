// Fixture: TSan fiber announcements inside control blocks of an
// always_inline function.  The enclosing function is the one whose
// signature carries the attribute, not the if/for/while/switch block
// around the call, so nothing here may be flagged.
//
// This file is linted, never compiled.
extern "C" void __tsan_switch_to_fiber(void* fiber, unsigned flags);
extern "C" void* __tsan_get_current_fiber();

namespace fixture {

__attribute__((always_inline)) inline void announce_if(void* f) {
  if (f != nullptr) {
    __tsan_switch_to_fiber(f, 0);
  }
}

__attribute__((always_inline)) inline void announce_nested(void** fs,
                                                           int n) {
  for (int i = 0; i < n; ++i) {
    while (fs[i] != nullptr) {
      switch (i) {
        case 0: {
          __tsan_switch_to_fiber(fs[i], 0);
          break;
        }
        default:
          break;
      }
      if constexpr (sizeof(void*) == 8) {
        fs[i] = __tsan_get_current_fiber();
      } else {
        fs[i] = nullptr;
      }
    }
  }
}

}  // namespace fixture
