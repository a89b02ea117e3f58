#include "src/util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "src/util/status.hpp"

namespace bridge::util {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
// NOLINT(bridge-fiber-thread-primitive): stderr is host-side and shared by
// every host thread of the program (each may drive its own simulation); the
// mutex only keeps log lines whole.  One simulation's fibers share a thread
// and never contend for it.
std::mutex g_mutex;

thread_local std::string (*t_context_provider)(void*) = nullptr;
thread_local void* t_context_arg = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_thread_log_context(std::string (*provider)(void*), void* arg) noexcept {
  t_context_provider = provider;
  t_context_arg = arg;
}

std::string thread_log_context() {
  return t_context_provider != nullptr ? t_context_provider(t_context_arg)
                                       : std::string();
}

void log_line(LogLevel level, std::string_view component, std::string_view message) {
  std::string context = thread_log_context();
  // NOLINT(bridge-fiber-thread-primitive): see g_mutex above — host-side
  // log-line ordering only, uncontended under the fiber backend.
  std::lock_guard<std::mutex> lock(g_mutex);
  if (context.empty()) {
    std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  } else {
    std::fprintf(stderr, "[%s] %s %.*s: %.*s\n", level_name(level),
                 context.c_str(),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  }
}

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kAlreadyExists: return "ALREADY_EXISTS";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kOutOfSpace: return "OUT_OF_SPACE";
    case ErrorCode::kCorrupt: return "CORRUPT";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string s = error_code_name(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace bridge::util
