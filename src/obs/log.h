#ifndef DELEX_OBS_LOG_H_
#define DELEX_OBS_LOG_H_

// Leveled, thread-safe structured logger — the observability layer's
// replacement for the old abort-only common/logging.h (whose DELEX_CHECK
// macros survive unchanged and now route their failure line through this
// sink before aborting).
//
//   DELEX_LOG(INFO) << "snapshot " << gen << " done";
//
// Levels: DEBUG < INFO < WARN < ERROR. The threshold comes from the
// DELEX_LOG_LEVEL environment variable ("debug", "info", "warn", "error",
// "off", or the corresponding integer 0-4; default "warn" so library code
// stays quiet under benches and tests) and can be overridden at runtime
// with SetLogLevel(). A disabled statement costs one threshold load and
// never evaluates its stream operands.
//
// Header-only on purpose: every layer (including the base storage and
// matcher libraries) can log without a link-time dependency on the obs
// library.

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <string>
#include <string_view>

#include "common/mutex.h"

namespace delex {
namespace obs {

enum class LogLevel : int {
  kDEBUG = 0,
  kINFO = 1,
  kWARN = 2,
  kERROR = 3,
  kOFF = 4,
};

inline char LogLevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kDEBUG:
      return 'D';
    case LogLevel::kINFO:
      return 'I';
    case LogLevel::kWARN:
      return 'W';
    case LogLevel::kERROR:
      return 'E';
    case LogLevel::kOFF:
      return '-';
  }
  return '?';
}

/// Small dense thread id (1, 2, 3, ... in first-use order) — stable for a
/// thread's lifetime and far more readable in logs and traces than the
/// platform handle.
inline uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace log_internal {

inline int ParseLogLevelEnv() {
  const char* value = std::getenv("DELEX_LOG_LEVEL");
  if (value == nullptr || *value == '\0') {
    return static_cast<int>(LogLevel::kWARN);
  }
  if (std::isdigit(static_cast<unsigned char>(value[0]))) {
    int v = std::atoi(value);
    if (v < 0) v = 0;
    if (v > static_cast<int>(LogLevel::kOFF)) {
      v = static_cast<int>(LogLevel::kOFF);
    }
    return v;
  }
  std::string lower;
  for (const char* p = value; *p != '\0'; ++p) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lower == "debug") return static_cast<int>(LogLevel::kDEBUG);
  if (lower == "info") return static_cast<int>(LogLevel::kINFO);
  if (lower == "warn" || lower == "warning") {
    return static_cast<int>(LogLevel::kWARN);
  }
  if (lower == "error") return static_cast<int>(LogLevel::kERROR);
  if (lower == "off" || lower == "none") {
    return static_cast<int>(LogLevel::kOFF);
  }
  return static_cast<int>(LogLevel::kWARN);
}

inline std::atomic<int>& ThresholdStorage() {
  static std::atomic<int> threshold{ParseLogLevelEnv()};
  return threshold;
}

inline ::delex::Mutex& SinkMutex() {
  static ::delex::Mutex mu{"obs.log.sink"};
  return mu;
}

/// Optional sink override (tests capture lines instead of spamming
/// stderr). Called with the fully formatted line, under the sink mutex.
using LogSinkFn = void (*)(LogLevel level, const std::string& line);
inline std::atomic<LogSinkFn>& SinkHook() {
  static std::atomic<LogSinkFn> hook{nullptr};
  return hook;
}

/// Formats and emits one log line. `level` may be past the threshold —
/// check failures use this directly so they are never filtered out.
inline void EmitLogLine(LogLevel level, const char* file, int line,
                        const std::string& message) {
  const char* base = std::strrchr(file, '/');
  base = base != nullptr ? base + 1 : file;

  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                       now.time_since_epoch())
                       .count() %
                   1000000;
  std::tm tm_buf{};
#if defined(_WIN32)
  localtime_s(&tm_buf, &seconds);
#else
  localtime_r(&seconds, &tm_buf);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%m%d %H:%M:%S", &tm_buf);

  char prefix[128];
  std::snprintf(prefix, sizeof(prefix), "%c%s.%06lld t%u %s:%d] ",
                LogLevelLetter(level), stamp,
                static_cast<long long>(micros), CurrentThreadId(), base, line);

  std::string full = prefix;
  full += message;
  full += '\n';

  ::delex::MutexLock lock(&SinkMutex());
  LogSinkFn hook = SinkHook().load(std::memory_order_acquire);
  if (hook != nullptr) {
    hook(level, full);
  } else {
    std::fwrite(full.data(), 1, full.size(), stderr);
    std::fflush(stderr);
  }
}

/// Swallows the ostream in DELEX_LOG's ternary (the glog idiom); `&` binds
/// looser than `<<` so the whole chained expression becomes the operand.
struct Voidify {
  void operator&(std::ostream&) {}
};

// ---- Crash-flush hooks -------------------------------------------------
//
// Observability sinks that buffer in memory (the trace ring buffers)
// register a flush function here; the
// DELEX_CHECK failure path runs every hook before aborting so a crash
// does not lose the buffers. Function pointers keep this header-only:
// layers below the obs library (storage, text) use DELEX_CHECK without
// linking the sinks' translation units.

using CrashFlushFn = void (*)();
inline constexpr int kMaxCrashFlushHooks = 8;

inline std::atomic<CrashFlushFn>* CrashFlushSlots() {
  static std::atomic<CrashFlushFn> slots[kMaxCrashFlushHooks] = {};
  return slots;
}

/// Registers a hook (idempotent; silently dropped once all slots fill).
inline void RegisterCrashFlushHook(CrashFlushFn fn) {
  if (fn == nullptr) return;
  std::atomic<CrashFlushFn>* slots = CrashFlushSlots();
  for (int i = 0; i < kMaxCrashFlushHooks; ++i) {
    CrashFlushFn seen = slots[i].load(std::memory_order_acquire);
    if (seen == fn) return;  // already registered
    if (seen == nullptr) {
      CrashFlushFn expected = nullptr;
      if (slots[i].compare_exchange_strong(expected, fn,
                                           std::memory_order_acq_rel)) {
        return;
      }
      if (expected == fn) return;  // lost the race to ourselves
    }
  }
}

/// Runs every registered hook once. Reentrancy-guarded: a hook that
/// itself CHECK-fails will not recurse into the hook list.
inline void RunCrashFlushHooks() {
  static std::atomic<bool> running{false};
  bool expected = false;
  if (!running.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return;
  }
  std::atomic<CrashFlushFn>* slots = CrashFlushSlots();
  for (int i = 0; i < kMaxCrashFlushHooks; ++i) {
    CrashFlushFn fn = slots[i].load(std::memory_order_acquire);
    if (fn != nullptr) fn();
  }
  running.store(false, std::memory_order_release);
}

}  // namespace log_internal

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         log_internal::ThresholdStorage().load(std::memory_order_relaxed);
}

inline void SetLogLevel(LogLevel level) {
  log_internal::ThresholdStorage().store(static_cast<int>(level),
                                         std::memory_order_relaxed);
}

inline LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      log_internal::ThresholdStorage().load(std::memory_order_relaxed));
}

/// Installs (or clears, with nullptr) a process-wide capture hook for
/// formatted log lines. Test-only; not intended for concurrent install.
inline void SetLogSinkForTesting(log_internal::LogSinkFn hook) {
  log_internal::SinkHook().store(hook, std::memory_order_release);
}

/// Registers a flush function the DELEX_CHECK failure path runs before
/// aborting (idempotent — safe to call on every sink start).
inline void RegisterCrashFlushHook(log_internal::CrashFlushFn fn) {
  log_internal::RegisterCrashFlushHook(fn);
}

/// \brief One log statement: buffers the streamed message, emits it on
/// destruction (one atomic line per statement, safe across threads).
class LogMessage {
 public:
  LogMessage(const char* file, int line, LogLevel level)
      : file_(file), line_(line), level_(level) {}

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    log_internal::EmitLogLine(level_, file_, line_, stream_.str());
  }

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace obs
}  // namespace delex

/// Leveled log statement: DELEX_LOG(INFO) << "message" << value;
/// Operands are not evaluated when the level is below the threshold.
#define DELEX_LOG(severity)                                              \
  (!::delex::obs::LogEnabled(::delex::obs::LogLevel::k##severity))       \
      ? (void)0                                                          \
      : ::delex::obs::log_internal::Voidify() &                          \
            ::delex::obs::LogMessage(__FILE__, __LINE__,                 \
                                     ::delex::obs::LogLevel::k##severity) \
                .stream()

#endif  // DELEX_OBS_LOG_H_
