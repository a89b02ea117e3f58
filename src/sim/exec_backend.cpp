#include "src/sim/exec_backend.hpp"

#include <cstdlib>

#if defined(BRIDGE_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#endif

namespace bridge::sim {

namespace {

std::size_t fiber_stack_bytes_from_env() {
#if defined(BRIDGE_ASAN_FIBERS)
  // ASan redzones roughly double frame sizes; default deeper stacks.
  std::size_t kb = 1024;
#else
  std::size_t kb = 512;
#endif
  if (const char* env = std::getenv("BRIDGE_SIM_STACK_KB")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 64) {
      kb = static_cast<std::size_t>(parsed);
    }
  }
  return kb * 1024;
}

bool fiber_watermark_from_env() {
  // Opt-in: stamping + scanning touches every page of every stack, which
  // costs ~100x on stack-churn-heavy runs (see FiberStackPool).
  const char* env = std::getenv("BRIDGE_SIM_STACK_WATERMARK");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

}  // namespace

FiberBackend::FiberBackend(Scheduler& sched)
    : sched_(sched),
      pool_(fiber_stack_bytes_from_env(), /*guard_pages=*/1,
            fiber_watermark_from_env()) {}

void FiberBackend::switch_to_fiber(Process& p) {
  detail::t_current_process = &p;
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&controller_fake_stack_,
                                 p.stack_.usable_base(),
                                 p.stack_.usable_size());
#endif
  FiberContext::switch_between(controller_ctx_, p.ctx_);
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(controller_fake_stack_, nullptr, nullptr);
#endif
  detail::t_current_process = nullptr;
}

void FiberBackend::reap_if_finished(Process& p) {
  if (p.state_ == Process::State::kFinished && p.stack_.valid()) {
    pool_.release(p.stack_);
    p.stack_ = FiberStack{};
    // release() is where the watermark scan runs; mirror it out so stats
    // snapshots taken between dispatches see the deepest use so far.
    sched_.stats_.fiber_stack_high_water = pool_.stack_high_water();
  }
}

void FiberBackend::resume(Process& p) {
  if (!p.stack_.valid()) {
    p.stack_ = pool_.acquire();
    p.ctx_.init(p.stack_.usable_base(), p.stack_.usable_size(), &p);
    sched_.stats_.fiber_stacks_allocated = pool_.stacks_allocated();
    sched_.stats_.fiber_stacks_reused = pool_.stacks_reused();
    sched_.stats_.fiber_stack_live_peak = pool_.live_peak();
  }
  switch_to_fiber(p);
  reap_if_finished(p);
}

void FiberBackend::yield(Process& p) {
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&p.asan_fake_stack_, controller_stack_bottom_,
                                 controller_stack_size_);
#endif
  FiberContext::switch_between(p.ctx_, controller_ctx_);
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(p.asan_fake_stack_, nullptr, nullptr);
#endif
}

void FiberBackend::finish(Process& p) {
  p.state_ = Process::State::kFinished;
  if (sched_.current_ == &p) sched_.current_ = nullptr;
#if defined(BRIDGE_ASAN_FIBERS)
  // nullptr fake-stack save: this fiber is dying, release its fake frames.
  __sanitizer_start_switch_fiber(nullptr, controller_stack_bottom_,
                                 controller_stack_size_);
#endif
  // The controller's pending switch_to_fiber call observes kFinished and
  // recycles the stack; nothing ever switches back here.
  FiberContext::switch_between(p.ctx_, controller_ctx_);
  std::abort();  // unreachable
}

void FiberBackend::entry(Process& p) {
  FiberBackend* backend = p.sched_.backend_.get();
#if defined(BRIDGE_ASAN_FIBERS)
  // First time on this fiber's stack: complete the controller's switch and
  // learn the controller stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &backend->controller_stack_bottom_,
                                  &backend->controller_stack_size_);
#else
  (void)backend;
#endif
  p.state_ = Process::State::kRunning;
  p.sched_.run_process_body(p);  // ends in finish(), which never returns
  std::abort();                  // unreachable
}

void FiberBackend::teardown() {
  // Unwind suspended fibers in spawn order (deterministic): resuming a
  // parked process while draining_ is set and current_ != it makes
  // park_current throw, so the body unwinds, runs its destructors, and
  // lands in finish().  Index loop: a destructor may legally spawn.
  for (std::size_t i = 0; i < sched_.processes_.size(); ++i) {
    Process& p = *sched_.processes_[i];
    while (p.state_ == Process::State::kParked) {
      switch_to_fiber(p);
      reap_if_finished(p);
    }
    if (p.state_ == Process::State::kCreated) {
      // Never dispatched: no stack, nothing to unwind.
      p.state_ = Process::State::kFinished;
    }
  }
}

}  // namespace bridge::sim

// C linkage entry point reached from the assembly thunk (fiber_switch.S) or
// the ucontext trampoline (fiber.cpp).
extern "C" void bridge_fiber_entry(void* arg) {
  bridge::sim::FiberBackend::entry(*static_cast<bridge::sim::Process*>(arg));
}
