// How a suspended simulated process keeps its stack between dispatches: each
// process is a stackful fiber multiplexed on the controller thread.
//
// The Scheduler owns all semantics — event order, parking epochs, state
// transitions, teardown policy.  FiberBackend only implements the control
// transfers those semantics need:
//
//   resume   controller -> process (dispatch an event to it)
//   yield    process -> controller (it parked)
//   finish   the process body returned/unwound; hand back control for good
//
// plus teardown(), which force-unwinds whatever is still suspended when the
// scheduler is destroyed.  Handoff is a user-space context switch
// (fiber.hpp); stacks come from a guard-paged free-list pool sized by
// BRIDGE_SIM_STACK_KB.
#pragma once

#include "src/sim/fiber.hpp"
#include "src/sim/scheduler.hpp"

namespace bridge::sim {

class FiberBackend {
 public:
  explicit FiberBackend(Scheduler& sched);

  /// Transfer control to `p` until it parks or finishes.  Called from the
  /// controller; current_ has already been set to &p for a dispatch.  The
  /// stack is acquired lazily, on the first resume.
  void resume(Process& p);
  /// Suspend the calling process until the controller resumes it.  Called
  /// from park_current on the process's own stack.
  void yield(Process& p);
  /// The process body has returned (or unwound): mark it finished and give
  /// control back to the controller.  Never returns.
  [[noreturn]] void finish(Process& p);
  /// Scheduler destructor, draining_ already set: unwind every suspended
  /// process so its stack can be reclaimed.
  void teardown();

  /// First-switch landing pad, invoked (via the assembly thunk or the
  /// ucontext trampoline) on the fiber's own stack.  Never returns.
  [[noreturn]] static void entry(Process& p);

 private:
  /// Controller-side half of a switch: run `p` until it switches back.
  void switch_to_fiber(Process& p);
  /// If `p` finished while we were inside it, recycle its stack.
  void reap_if_finished(Process& p);

  Scheduler& sched_;
  FiberStackPool pool_;
  FiberContext controller_ctx_;
  // ASan fiber-annotation state for the controller's own stack: its bounds
  // are learned from the first __sanitizer_finish_switch_fiber on a fiber.
  void* controller_fake_stack_ = nullptr;
  const void* controller_stack_bottom_ = nullptr;
  std::size_t controller_stack_size_ = 0;
};

}  // namespace bridge::sim
