// Internal: ThreadSanitizer fiber annotations for the ucontext switches.
//
// TSan tracks happens-before per thread. A ULT that suspends on one xstream
// and resumes on another would otherwise carry the first thread's shadow
// state (vector clock, held locks, shadow stack) onto the second, so TSan
// reports races between a ULT and itself and loses track of its frames.
// The sanitizer fiber protocol gives every ULT its own TSan context: create
// one per ULT, announce each switch with __tsan_switch_to_fiber immediately
// before swapcontext, and destroy it with the ULT. Switches synchronize
// (flag 0): whatever ran before a switch happens-before what runs after it,
// which is exactly what the scheduler's hand-off guarantees. Without TSan
// these helpers compile to nothing.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define HEP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEP_TSAN_FIBERS 1
#endif
#endif

#if defined(HEP_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace hep::abt::detail {

/// TSan context of the calling thread (the scheduler's own stack).
inline void* tsan_current_fiber() {
#if defined(HEP_TSAN_FIBERS)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

/// Fresh TSan context for a ULT stack.
inline void* tsan_create_fiber() {
#if defined(HEP_TSAN_FIBERS)
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

/// Release a ULT's context; never called for the running context.
inline void tsan_destroy_fiber(void* fiber) {
#if defined(HEP_TSAN_FIBERS)
    if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

/// Call immediately before swapcontext into `fiber`'s stack.
inline void tsan_switch_to(void* fiber) {
#if defined(HEP_TSAN_FIBERS)
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

}  // namespace hep::abt::detail
