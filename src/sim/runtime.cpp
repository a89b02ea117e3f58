#include "src/sim/runtime.hpp"

#include <stdexcept>

#include "src/analysis/race.hpp"

namespace bridge::sim {

Runtime::Runtime(std::uint32_t num_nodes, Topology topology, std::uint64_t seed)
    : num_nodes_(num_nodes), topology_(topology), seed_(seed) {
  if (num_nodes == 0) {
    throw std::invalid_argument("Runtime requires at least one node");
  }
#ifdef BRIDGE_RACE_CHECK
  enable_race_check();
#endif
  stages_.set_flight(&flight_);
}

Runtime::~Runtime() {
  // Processes the scheduler unwinds at teardown may still run code that
  // consults the detector through channel hooks; detach it before it is
  // destroyed.
  sched_.set_race_detector(nullptr);
}

void Runtime::enable_timeseries(std::int64_t interval_us,
                                std::size_t capacity) {
  if (obs::globally_disabled() || interval_us <= 0) return;
  timeseries_.configure(interval_us, capacity);
  // The observer runs inside Scheduler::run's dispatch loop; the sampler
  // only reads probe callbacks over plain state, which is safe because no
  // simulated process runs concurrently with the dispatch loop.
  obs::TimeSeriesSampler* sampler = &timeseries_;
  sched_.set_time_observer(
      [sampler](SimTime now) { sampler->on_time_advance(now.us()); });
}

void Runtime::enable_race_check() {
  if (race_ != nullptr) return;
  race_ = std::make_unique<analysis::RaceDetector>();
  sched_.set_race_detector(race_.get());
}

ProcessHandle Runtime::spawn(NodeId node, std::string name,
                             std::function<void(Context&)> body, SimTime delay) {
  if (node >= num_nodes_) {
    throw std::invalid_argument("spawn: node id out of range");
  }
  Runtime* rt = this;
  // The body closure needs the Process* that spawn creates.  The start event
  // cannot fire until control returns to the scheduler, so filling the slot
  // right after spawn() and before returning is race-free.
  auto slot = std::make_shared<Process*>(nullptr);
  ProcessHandle handle = sched_.spawn(
      node, std::move(name),
      [rt, body = std::move(body), slot] {
        Context ctx(*rt, **slot);
        body(ctx);
      },
      delay);
  *slot = handle.get();
  // Lane metadata for traces: every process gets a named lane even if the
  // tracer is enabled later.
  tracer_.set_process_name(node, handle.id(), handle.get()->name());
  return handle;
}

void Runtime::account_message(NodeId from, NodeId to, std::size_t bytes) {
  if (from == to) {
    ++msg_stats_.local_messages;
    msg_stats_.local_bytes += bytes;
  } else {
    ++msg_stats_.remote_messages;
    msg_stats_.remote_bytes += bytes;
  }
}

SimTime Context::now() const noexcept { return rt_->scheduler().now(); }

void Context::sleep(SimTime d) const {
  if (d.us() <= 0) return;
  rt_->scheduler().sleep_until(rt_->scheduler().now() + d);
}

Rng Context::rng() const {
  return Rng(rt_->seed() * 0x9e3779b97f4a7c15ULL + self_->id());
}

void MessageStats::publish(obs::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.counter(prefix + ".local_messages").set(local_messages);
  registry.counter(prefix + ".remote_messages").set(remote_messages);
  registry.counter(prefix + ".local_bytes").set(local_bytes);
  registry.counter(prefix + ".remote_bytes").set(remote_bytes);
}

ScopedSpan::ScopedSpan(const Context& ctx, std::string_view name,
                       obs::TraceContext parent) {
  obs::Tracer& tracer = ctx.runtime().tracer();
  if (!tracer.enabled()) return;
  ctx_ = &ctx;
  if (!parent.active()) parent = tracer.current_context(ctx.pid());
  id_ = tracer.begin_span(ctx.node(), ctx.pid(), name, ctx.now().us(), parent);
}

ScopedSpan::~ScopedSpan() {
  if (ctx_ != nullptr) {
    ctx_->runtime().tracer().end_span(ctx_->pid(), ctx_->now().us());
  }
}

ScopedRequest::ScopedRequest(const Context& ctx, std::string_view op) {
  obs::StageLedger& stages = ctx.runtime().stages();
  if (!stages.enabled()) return;
  start_us_ = ctx.now().us();
  id_ = stages.begin(ctx.pid(), op, start_us_);
  if (id_ != 0) ctx_ = &ctx;
}

ScopedRequest::~ScopedRequest() {
  if (ctx_ == nullptr) return;
  obs::StageLedger& stages = ctx_->runtime().stages();
  std::int64_t now_us = ctx_->now().us();
  // The whole round trip is client wait; queue/service charges recorded by
  // the servers live inside it (inclusive stages, see stages.hpp).
  stages.charge(id_, obs::Stage::kClientWait, now_us - start_us_);
  stages.end(ctx_->pid(), id_, now_us);
}

AdoptedRequest::AdoptedRequest(const Context& ctx, std::uint64_t request_id) {
  obs::StageLedger& stages = ctx.runtime().stages();
  if (!stages.enabled() || request_id == 0) return;
  ctx_ = &ctx;
  prev_ = stages.set_active(ctx.pid(), request_id);
}

AdoptedRequest::~AdoptedRequest() {
  if (ctx_ == nullptr) return;
  ctx_->runtime().stages().set_active(ctx_->pid(), prev_);
}

}  // namespace bridge::sim
