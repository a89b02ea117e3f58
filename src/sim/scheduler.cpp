#include "src/sim/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/analysis/race.hpp"
#include "src/sim/exec_backend.hpp"
#include "src/util/logging.hpp"

namespace bridge::sim {

namespace detail {
thread_local Process* t_current_process = nullptr;
}  // namespace detail

namespace {
/// Thrown into a parked process when the scheduler is torn down so its stack
/// unwinds and its fiber stack can be reclaimed.  Never escapes
/// run_process_body.
struct ProcessKilled {};

/// Events dispatched by every scheduler this process ever created; benches
/// read deltas of this to report events/sec next to wall-clock numbers.
std::atomic<std::uint64_t> g_lifetime_events{0};
}  // namespace

std::string SimTime::to_string() const {
  char buf[64];
  if (us_ >= 60'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f min", minutes());
  } else if (us_ >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f s", sec());
  } else if (us_ >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ms());
  } else {
    std::snprintf(buf, sizeof(buf), "%lld us", static_cast<long long>(us_));
  }
  return buf;
}

Process::Process(Scheduler& sched, ProcessId id, NodeId node, std::string name)
    : sched_(sched), id_(id), node_(node), name_(std::move(name)) {}

Process::~Process() = default;

Scheduler::Scheduler() : backend_(std::make_unique<FiberBackend>(*this)) {
  events_.reserve(64);
}

Scheduler::~Scheduler() {
  // Unwind any process that never finished (daemon servers, parked waiters).
  draining_ = true;
  backend_->teardown();
  flush_lifetime_events();
}

std::uint64_t Scheduler::lifetime_events_dispatched() noexcept {
  return g_lifetime_events.load(std::memory_order_relaxed);
}

void Scheduler::flush_lifetime_events() noexcept {
  g_lifetime_events.fetch_add(stats_.events_dispatched - lifetime_flushed_,
                              std::memory_order_relaxed);
  lifetime_flushed_ = stats_.events_dispatched;
}

ProcessHandle Scheduler::spawn(NodeId node, std::string name,
                               std::function<void()> fn, SimTime delay) {
  auto proc = std::make_unique<Process>(*this, next_pid_++, node, std::move(name));
  Process* p = proc.get();
  p->body_ = std::move(fn);
  events_.push(Event{clock_ + delay, next_seq_++, p, /*epoch=*/0, /*is_start=*/true});
  processes_.push_back(std::move(proc));
  ++stats_.processes_spawned;
  if (race_ != nullptr) {
    // Causal edge: the spawner's history happened before the child's body.
    race_->on_spawn(current_ == nullptr ? 0 : current_->id(), p->id());
  }
  return ProcessHandle(p);
}

std::string Scheduler::log_context_tls(void* /*unused*/) {
  Process* p = detail::t_current_process;
  if (p == nullptr) return {};
  // log_now_ was snapshotted by the controller at dispatch, so this reads no
  // live scheduler state.
  return "[t=" + p->log_now_.to_string() + " n" + std::to_string(p->node_) +
         "/" + p->name_ + "]";
}

void Scheduler::run_process_body(Process& p) {
  detail::t_current_process = &p;
  // Any log_line from this process carries its virtual time + node id.
  util::set_thread_log_context(&Scheduler::log_context_tls, nullptr);
  try {
    p.body_();
  } catch (const ProcessKilled&) {
    // Teardown: fall through to the finish handoff.
  } catch (const std::exception& e) {
    util::LogMessage(util::LogLevel::kError, "sim")
        << "process '" << p.name_ << "' died: " << e.what();
  }
  backend_->finish(p);  // never returns
}

void Scheduler::schedule_wake_locked(Process& p, SimTime when) {
  events_.push(Event{std::max(when, clock_), next_seq_++, &p, p.epoch_,
                     /*is_start=*/false});
  ++stats_.wakes_scheduled;
}

void Scheduler::park_current() {
  Process* self = current_;
  self->state_ = Process::State::kParked;
  current_ = nullptr;
  backend_->yield(*self);
  if (draining_ && current_ != self) throw ProcessKilled{};
  self->state_ = Process::State::kRunning;
  ++self->epoch_;  // stale any other pending wakes aimed at the old park
}

void Scheduler::sleep_until(SimTime when) {
  schedule_wake_locked(*current_, when);
  park_current();
}

void Scheduler::dispatch(const Event& ev) {
  Process* p = ev.process;
  if (ev.is_start) {
    if (p->state_ != Process::State::kCreated) return;
  } else {
    if (p->state_ != Process::State::kParked || ev.epoch != p->epoch_) {
      ++stats_.stale_wakes_skipped;
      return;
    }
  }
  ++stats_.events_dispatched;
  p->log_now_ = clock_;  // snapshot for the log-context provider
  current_ = p;
  backend_->resume(*p);
}

void Scheduler::run() {
  while (!events_.empty()) {
    Event ev = events_.top();
    events_.pop();
    SimTime before = clock_;
    clock_ = std::max(clock_, ev.at);
    if (time_observer_ && clock_ > before) time_observer_(clock_);
    dispatch(ev);
  }
  deadlocked_ = false;
  for (auto& p : processes_) {
    if (p->state_ == Process::State::kParked && !p->daemon_) deadlocked_ = true;
  }
  if (race_ != nullptr) {
    // run() returning is a real barrier: the controller (and anything it
    // spawns afterwards) is causally after every process's history.
    race_->on_quiescence();
  }
  flush_lifetime_events();
}

std::uint64_t Scheduler::race_send_slow() {
  return race_->on_send(current_ == nullptr ? 0 : current_->id());
}

void Scheduler::race_recv_slow(std::uint64_t token) {
  race_->on_recv(current_ == nullptr ? 0 : current_->id(), token);
}

void Scheduler::race_drop_slow(std::uint64_t token) {
  race_->drop_token(token);
}

std::vector<std::string> Scheduler::parked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (p->state_ == Process::State::kParked && !p->daemon_) {
      names.push_back(p->name_);
    }
  }
  return names;
}

}  // namespace bridge::sim
