// Internal: per-OS-thread scheduler state shared by ult.cpp and xstream.cpp.
#pragma once

#include <cstddef>
#include <memory>
#include <ucontext.h>

namespace hep::abt {

class Ult;

namespace detail {

// Set by the xstream scheduler loop; ULT code re-reads it after every context
// switch because a ULT may migrate between xstreams.
struct SchedContext {
    ucontext_t sched_ctx{};
    std::shared_ptr<Ult> current;
    enum class PostAction : int { kNone, kYield, kSuspend, kTerminate };
    PostAction post_action = PostAction::kNone;

    // ASan fiber bookkeeping (see asan_fiber.hpp; unused without ASan).
    // fake_stack parks the scheduler's fake stack while a ULT runs; the
    // sched_stack bounds are captured by the ULT's finish_switch on entry so
    // switches back to the scheduler can announce the target stack.
    void* asan_fake_stack = nullptr;
    const void* asan_sched_stack = nullptr;
    std::size_t asan_sched_stack_size = 0;
    // TSan context of the scheduler's own stack, the target of every switch
    // back from a ULT (see tsan_fiber.hpp; null without TSan).
    void* tsan_sched_fiber = nullptr;
};

SchedContext*& sched_tls();

}  // namespace detail
}  // namespace hep::abt
