// Shared pieces of the Bridge benchmark harness: the host clock, the
// measured BridgeApi decorator every workload hands to its clients and
// tools, the record generator, and the per-round result.
//
// Two clocks run through everything here.  Virtual time is the modelled
// machine (sim::SimTime, microseconds) and repeats exactly for a fixed seed.
// Host time is what the simulator costs on the machine running it.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/api.hpp"
#include "src/sim/runtime.hpp"

namespace perfbench {

namespace core = bridge::core;
namespace sim = bridge::sim;
namespace util = bridge::util;

// Host time is the quantity being measured here; it never feeds the
// simulation.
using HostClock = std::chrono::steady_clock;

inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// CPU seconds this process has used.  Set-up and timed phases are charged
/// in CPU time: the simulator is single-threaded on the fibers backend, so
/// this is its host cost without the time other processes on the machine
/// take from it.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

/// A 960-byte user record: little-endian uint64 key, then filler derived
/// from the key.  The sort tool orders records by the key.
std::vector<std::byte> keyed_record(std::uint64_t key);

/// One operation: a BridgeApi call, or a call into an access method layered
/// on it (replication reads, rebuilds).  Client ops are the ones a workload's
/// clients issue themselves; the rest are issued from inside a tool or an
/// access method on a client's behalf.
struct OpSpan {
  std::string_view op;  ///< op class; always a string literal
  bool client = true;
  std::int64_t v_start_us = 0;
  std::int64_t v_end_us = 0;
  std::int64_t h_start_ns = 0;  ///< 0 unless the log keeps host times
  std::int64_t h_end_ns = 0;
  bool ok = true;

  [[nodiscard]] std::int64_t v_us() const { return v_end_us - v_start_us; }
};

/// Every span of one round, from every client of the workload.
class SpanLog {
 public:
  explicit SpanLog(bool host_times) : host_times_(host_times) {}

  /// Time `fn` (returning a Status or Result) as one span of class `op`.
  template <typename Fn>
  auto record(sim::Context& ctx, std::string_view op, Fn&& fn,
              bool client = true) {
    OpSpan span;
    span.op = op;
    span.client = client;
    span.v_start_us = ctx.now().us();
    if (host_times_) span.h_start_ns = host_ns();
    auto result = fn();
    span.v_end_us = ctx.now().us();
    if (host_times_) span.h_end_ns = host_ns();
    span.ok = result.is_ok();
    spans_.push_back(span);
    return result;
  }

  [[nodiscard]] const std::vector<OpSpan>& spans() const { return spans_; }

 private:
  bool host_times_;
  std::vector<OpSpan> spans_;
};

/// BridgeApi decorator: forwards every call to the wrapped client and
/// records one span per call in the round's SpanLog.  `client` says whether
/// the calls are client ops (false for the API handed to a tool or an
/// access method).
class MeasuredApi final : public core::BridgeApi {
 public:
  MeasuredApi(sim::Context& ctx, core::BridgeApi& inner, SpanLog& log,
              bool client = true)
      : ctx_(ctx), inner_(inner), log_(log), client_(client) {}

  util::Result<core::BridgeFileId> create(
      const std::string& name, core::CreateOptions options = {}) override {
    return span("create", [&] { return inner_.create(name, options); });
  }
  util::Status remove(const std::string& name) override {
    return span("remove", [&] { return inner_.remove(name); });
  }
  util::Status remove_many(const std::vector<std::string>& names) override {
    return span("remove_many", [&] { return inner_.remove_many(names); });
  }
  util::Result<core::OpenResponse> open(const std::string& name) override {
    return span("open", [&] { return inner_.open(name); });
  }
  util::Result<core::SeqReadResponse> seq_read(
      std::uint64_t session) override {
    return span("seq_read", [&] { return inner_.seq_read(session); });
  }
  util::Result<std::uint64_t> seq_write(
      std::uint64_t session, std::span<const std::byte> data) override {
    return span("seq_write", [&] { return inner_.seq_write(session, data); });
  }
  util::Result<std::vector<std::byte>> random_read(
      core::BridgeFileId id, std::uint64_t block_no) override {
    return span("random_read",
                [&] { return inner_.random_read(id, block_no); });
  }
  util::Status random_write(core::BridgeFileId id, std::uint64_t block_no,
                            std::span<const std::byte> data) override {
    return span("random_write", [&] {
      return inner_.random_write(id, block_no, data);
    });
  }
  util::Result<core::SeqReadManyResponse> seq_read_many(
      std::uint64_t session, std::uint32_t max_blocks) override {
    return span("seq_read_many", [&] {
      return inner_.seq_read_many(session, max_blocks);
    });
  }
  util::Result<core::SeqWriteManyResponse> seq_write_many(
      std::uint64_t session,
      std::vector<std::vector<std::byte>> blocks) override {
    return span("seq_write_many", [&] {
      return inner_.seq_write_many(session, std::move(blocks));
    });
  }
  util::Result<core::RandomReadManyResponse> random_read_many(
      core::BridgeFileId id, std::uint64_t first_block,
      std::uint32_t count) override {
    return span("random_read_many", [&] {
      return inner_.random_read_many(id, first_block, count);
    });
  }
  util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                       std::uint64_t block_no) override {
    return span("seq_seek",
                [&] { return inner_.seq_seek(session, block_no); });
  }
  util::Result<std::uint64_t> truncate(core::BridgeFileId id,
                                       std::uint64_t new_size_blocks) override {
    return span("truncate",
                [&] { return inner_.truncate(id, new_size_blocks); });
  }
  util::Result<std::uint64_t> parallel_open(
      std::uint64_t session,
      const std::vector<sim::Address>& workers) override {
    return span("parallel_open",
                [&] { return inner_.parallel_open(session, workers); });
  }
  util::Result<core::ParallelReadResponse> parallel_read(
      std::uint64_t job) override {
    return span("parallel_read", [&] { return inner_.parallel_read(job); });
  }
  util::Result<core::ParallelWriteResponse> parallel_write(
      std::uint64_t job) override {
    return span("parallel_write", [&] { return inner_.parallel_write(job); });
  }
  util::Result<core::BridgeFileId> rename(const std::string& from,
                                          const std::string& to) override {
    return span("rename", [&] { return inner_.rename(from, to); });
  }
  util::Result<std::vector<core::ListEntry>> list(
      const std::string& prefix) override {
    return span("list", [&] { return inner_.list(prefix); });
  }
  util::Result<core::GetInfoResponse> get_info() override {
    return span("get_info", [&] { return inner_.get_info(); });
  }
  util::Result<core::ResolveResponse> resolve(core::BridgeFileId id,
                                              std::uint64_t first,
                                              std::uint32_t count) override {
    return span("resolve", [&] { return inner_.resolve(id, first, count); });
  }

 private:
  template <typename Fn>
  auto span(std::string_view op, Fn&& fn) -> decltype(fn()) {
    return log_.record(ctx_, op, std::forward<Fn>(fn), client_);
  }

  sim::Context& ctx_;
  core::BridgeApi& inner_;
  SpanLog& log_;
  bool client_;
};

/// How a round runs: the workload's seed, and whether this round is traced
/// (program tracer on, host times on every span, per-layer collection).
struct RoundParams {
  std::uint64_t seed = 1;
  bool traced = false;
};

/// Everything one round of a workload measured.
struct RoundResult {
  double setup_host_s = 0;  ///< boot + preload, host seconds
  double timed_host_s = 0;  ///< the timed phase, host seconds
  double virt_s = 0;        ///< the timed phase, virtual seconds
  std::uint64_t blocks = 0; ///< user data blocks the timed phase moved
  std::vector<OpSpan> spans;
  /// Virtual per-phase figures of the workload (copy_s, rebuild_s, ...),
  /// printed in the table and reported again as per-layer metrics.
  std::map<std::string, double> figures;
  std::uint64_t checks = 0;          ///< outputs checked
  std::uint64_t check_failures = 0;  ///< wrong or missing outputs
  std::vector<std::string> errors;   ///< first few failure descriptions
  /// Per-layer values (traced rounds only), keyed by BENCHMARK.json name.
  std::map<std::string, double> layers;

  /// Count one output check; a false `ok` is a failure with `what` logged.
  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++check_failures;
    if (errors.size() < 8) errors.push_back(what);
  }
};

}  // namespace perfbench
