// Deterministic discrete-event scheduler over stackful fibers.
//
// The scheduler admits exactly ONE simulated process at a time, resuming them
// in (virtual time, sequence) order.  Process code is therefore written in
// plain blocking style (sleep / recv / rpc-call) yet the whole simulation is
// deterministic: two runs with the same seed produce identical event orders
// and identical virtual timings.
//
// Every process is a stackful fiber on the controller thread (FiberBackend,
// exec_backend.hpp); suspension is a user-space context switch into a
// pooled, guard-paged stack (fiber.hpp).  Only one process runs at a time and
// all of them share one OS thread, so the scheduler state needs no lock.
// Same-seed runs give byte-identical traces (tests/sim_backend_test.cpp) and
// bench rows (bench/baseline.jsonl).
//
// Parking protocol: a process parks for exactly one reason at a time (sleep
// expiry or a channel/mailbox wait).  Every park is tagged with the process's
// current epoch; wake events carry the epoch they intend to wake.  A wake
// event whose epoch no longer matches is stale and is skipped, which makes
// spurious or duplicate wakeups harmless.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/fiber.hpp"
#include "src/sim/time.hpp"
#include "src/sim/timed_queue.hpp"

namespace bridge::analysis {
class RaceDetector;
}  // namespace bridge::analysis

namespace bridge::sim {

class Scheduler;
class FiberBackend;

using NodeId = std::uint32_t;
using ProcessId = std::uint64_t;

/// One simulated process.  Created via Scheduler::spawn; users interact with
/// it through Context (see context.hpp) from inside and ProcessHandle from
/// outside.
class Process {
 public:
  Process(Scheduler& sched, ProcessId id, NodeId node, std::string name);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFinished; }

  /// Daemon processes (long-lived servers) may remain parked when the event
  /// queue drains without counting as a deadlock.
  void set_daemon(bool daemon) noexcept { daemon_ = daemon; }
  [[nodiscard]] bool daemon() const noexcept { return daemon_; }

 private:
  friend class Scheduler;
  friend class FiberBackend;

  enum class State : std::uint8_t { kCreated, kParked, kRunning, kFinished };

  Scheduler& sched_;
  ProcessId id_;
  NodeId node_;
  std::string name_;
  State state_ = State::kCreated;
  bool daemon_ = false;
  std::uint64_t epoch_ = 0;  ///< incremented on every resume; stales old wakes
  SimTime log_now_{0};       ///< virtual clock snapshotted at dispatch, read
                             ///< by the log-context provider
  std::function<void()> body_;
  // The suspended context and its pooled stack (acquired lazily at first
  // dispatch, returned to the pool on finish).
  FiberContext ctx_;
  FiberStack stack_;
  void* asan_fake_stack_ = nullptr;  ///< ASan fiber-switch bookkeeping
};

/// Opaque reference to a spawned process.
class ProcessHandle {
 public:
  ProcessHandle() = default;
  explicit ProcessHandle(Process* p) : process_(p) {}
  [[nodiscard]] bool valid() const noexcept { return process_ != nullptr; }
  [[nodiscard]] ProcessId id() const noexcept { return process_->id(); }
  [[nodiscard]] NodeId node() const noexcept { return process_->node(); }
  [[nodiscard]] bool finished() const noexcept { return process_->finished(); }

  /// Underlying process; for library-internal plumbing (Runtime, tests).
  [[nodiscard]] Process* get() const noexcept { return process_; }

 private:
  friend class Scheduler;
  Process* process_ = nullptr;
};

/// Aggregate statistics maintained by the scheduler, for tests and traces.
struct SchedulerStats {
  std::uint64_t events_dispatched = 0;
  std::uint64_t processes_spawned = 0;
  std::uint64_t wakes_scheduled = 0;
  std::uint64_t stale_wakes_skipped = 0;
  // Fiber stack pool.
  std::uint64_t fiber_stacks_allocated = 0;  ///< fresh mmaps
  std::uint64_t fiber_stacks_reused = 0;     ///< free-list hits
  std::uint64_t fiber_stack_live_peak = 0;   ///< max stacks in use at once
  /// Deepest measured stack use (bytes) across released fibers.  Only
  /// populated under BRIDGE_SIM_STACK_WATERMARK=1 (see FiberStackPool);
  /// cross-checks the static budget from tools/analysis/stack_audit.py.
  std::uint64_t fiber_stack_high_water = 0;
};

namespace detail {
/// The process whose body is executing on this OS thread (nullptr on a
/// controller thread between dispatches).  Every process runs on its
/// controller's thread, so FiberBackend updates this at every context switch.
extern thread_local Process* t_current_process;
}  // namespace detail

/// The discrete-event core.  Not thread-safe for external callers: spawn and
/// run from one controlling thread; process bodies use Context.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a process pinned to `node` whose body is `fn`.  It starts when
  /// run() reaches the current virtual time (plus `delay`).
  ProcessHandle spawn(NodeId node, std::string name, std::function<void()> fn,
                      SimTime delay = SimTime(0));

  /// Dispatch events until none remain.  Returns when every spawned process
  /// has finished or is parked with no pending wake (the latter is a
  /// deadlock; see deadlocked()).
  void run();

  /// True if run() returned with parked-but-unwakeable processes.
  [[nodiscard]] bool deadlocked() const noexcept { return deadlocked_; }
  /// Names of processes still parked after run(); empty unless deadlocked.
  [[nodiscard]] std::vector<std::string> parked_process_names() const;

  [[nodiscard]] SimTime now() const noexcept { return clock_; }
  [[nodiscard]] const SchedulerStats& stats() const noexcept { return stats_; }

  /// How processes execute; always "fibers".
  [[nodiscard]] const char* backend_name() const noexcept { return "fibers"; }

  /// Total events dispatched by every Scheduler this process has created
  /// (monotonic, across scheduler lifetimes).  Benchmarks use the delta to
  /// report harness events/sec next to wall-clock time.
  [[nodiscard]] static std::uint64_t lifetime_events_dispatched() noexcept;

  /// Install a passive clock hook: called from run()'s dispatch loop every
  /// time the virtual clock moves forward, with the new time.  The observer
  /// must only read plain memory — no scheduler calls, no blocking.  Used by
  /// obs::TimeSeriesSampler; one observer at a time (nullptr-ish empty
  /// function removes it).
  void set_time_observer(std::function<void(SimTime)> observer) {
    time_observer_ = std::move(observer);
  }

  // --- Primitives used by Context / Channel / Mailbox (process-side). ---
  // These must be called from the currently running simulated process.

  /// Block the current process until `when`, then resume it.
  void sleep_until(SimTime when);
  /// Park the current process with no scheduled wake; some other agent must
  /// call schedule_wake_locked first or later.
  void park_current();
  /// Schedule a wake for `p` at `when` targeting its current epoch.
  void schedule_wake_locked(Process& p, SimTime when);
  /// The currently running process (nullptr if called from the controller).
  [[nodiscard]] Process* current() const noexcept { return current_; }

  // --- Race-detector plumbing (see src/analysis/race.hpp). ---

  /// Install (or remove, with nullptr) the happens-before detector.  The
  /// Runtime owns it; the scheduler and channels only feed it causal edges.
  void set_race_detector(analysis::RaceDetector* detector) noexcept {
    race_ = detector;
  }
  [[nodiscard]] analysis::RaceDetector* race_detector() const noexcept {
    return race_;
  }

  /// Channel send/recv edge hooks.  on_send snapshots the current process's
  /// vector clock and returns a token stored on the in-flight item (0 when
  /// the detector is off); on_recv joins that snapshot into the receiver's
  /// clock.  The nullptr check is inline so a disabled detector costs one
  /// predictable branch on the send/recv hot paths.
  [[nodiscard]] std::uint64_t race_on_send_locked() {
    return race_ == nullptr ? 0 : race_send_slow();
  }
  void race_on_recv_locked(std::uint64_t token) {
    if (race_ != nullptr && token != 0) race_recv_slow(token);
  }
  /// An in-flight item is being dropped without delivery (its channel is
  /// being destroyed): release the clock snapshot held for `token` so
  /// abandoned fire-and-forget channels do not leak detector state.
  void race_on_drop_locked(std::uint64_t token) {
    if (race_ != nullptr && token != 0) race_drop_slow(token);
  }

 private:
  friend class FiberBackend;

  struct Event {
    SimTime at;
    std::uint64_t seq;       ///< tie-breaker: FIFO among same-time events
    Process* process;
    std::uint64_t epoch;     ///< wake is stale unless process->epoch_ matches
    bool is_start;           ///< first dispatch of a freshly spawned process
  };

  void dispatch(const Event& ev);
  /// Process trunk, run on the process's own stack: run the body, absorb
  /// teardown/crash, hand control back.
  void run_process_body(Process& p);
  /// util::log_line per-thread context provider; reads the dispatch-time
  /// clock snapshot (Process::log_now_), never live scheduler state.
  static std::string log_context_tls(void* unused);
  /// Fold events_dispatched into the static lifetime counter.
  void flush_lifetime_events() noexcept;

  std::uint64_t race_send_slow();
  void race_recv_slow(std::uint64_t token);
  void race_drop_slow(std::uint64_t token);

  TimedMinQueue<Event> events_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;  ///< non-null while a process owns the sim
  SimTime clock_{0};
  std::uint64_t next_seq_ = 0;
  ProcessId next_pid_ = 1;
  SchedulerStats stats_;
  std::uint64_t lifetime_flushed_ = 0;  ///< events already folded into the
                                        ///< static lifetime counter
  std::function<void(SimTime)> time_observer_;
  bool deadlocked_ = false;
  bool draining_ = false;  ///< destructor: force-finish parked processes
  std::unique_ptr<FiberBackend> backend_;
  analysis::RaceDetector* race_ = nullptr;  ///< owned by the Runtime
};

}  // namespace bridge::sim
