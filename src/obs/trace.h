#ifndef DELEX_OBS_TRACE_H_
#define DELEX_OBS_TRACE_H_

// Low-overhead trace recorder emitting Chrome trace-event / Perfetto
// compatible JSON (load the file in ui.perfetto.dev or chrome://tracing).
//
//   DELEX_TRACE_SPAN("eval_page", page_did);   // RAII scoped span
//
// Disabled (the default), a span costs exactly one relaxed atomic load and
// one predicted branch — no clock read, no allocation. Enabled
// (TraceRecorder::Global().Start(path), or the DELEX_TRACE env var via
// MaybeStartTraceFromEnv), each span takes two steady-clock reads and one
// append into its thread's ring buffer
// (per-thread mutex, never contended on the hot path; the lock exists so
// Stop() can drain buffers TSan-clean). Buffers are rings: when a thread
// records more than kRingCapacity events the oldest are overwritten and
// counted as dropped in the trace's otherData.
//
// Span names must be string literals (or otherwise outlive the recorder) —
// events store the pointer, not a copy.
//
// Header-only so every layer (storage, matcher, engine) can emit spans
// without a link dependency on the obs library.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/json_writer.h"
#include "obs/log.h"

namespace delex {
namespace obs {

inline constexpr int64_t kTraceNoArg = std::numeric_limits<int64_t>::min();

struct TraceEvent {
  const char* name = nullptr;  // static-storage string
  const char* cat = nullptr;
  int64_t ts_us = 0;   // microseconds since trace start
  int64_t dur_us = 0;  // complete-event ("ph":"X") duration
  int64_t arg = kTraceNoArg;
  uint32_t tid = 0;
};

/// \brief Process-wide trace recorder with per-thread ring buffers.
class TraceRecorder {
 public:
  static constexpr size_t kRingCapacity = 1 << 14;  // events per thread

  static TraceRecorder& Global() {
    static TraceRecorder recorder;
    return recorder;
  }

  /// True when spans are being recorded (the hot-path gate).
  static bool enabled() {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Begins recording into `path` (written at Stop / process exit). A
  /// second Start while recording keeps the first session and returns
  /// InvalidArgument — tracing is process-global.
  Status Start(const std::string& path) {
    MutexLock lock(&mu_);
    if (started_) {
      return Status::InvalidArgument("trace already recording to " + path_);
    }
    if (path.empty()) {
      return Status::InvalidArgument("empty trace path");
    }
    path_ = path;
    for (auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      buffer->ring.clear();
      buffer->count = 0;
    }
    t0_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count(),
                 std::memory_order_relaxed);
    started_ = true;
    if (!atexit_registered_) {
      // Best-effort flush for processes that never call Stop (benches
      // under DELEX_TRACE): write whatever the rings hold at exit.
      atexit_registered_ = true;
      std::atexit([] { (void)TraceRecorder::Global().Stop(); });
    }
    // A DELEX_CHECK failure flushes the rings too, so a crashing run
    // still leaves a loadable trace of its final moments.
    RegisterCrashFlushHook([] { (void)TraceRecorder::Global().Stop(); });
    recording_.store(true, std::memory_order_release);
    return Status::OK();
  }

  bool started() const {
    MutexLock lock(&mu_);
    return started_;
  }

  /// Stops recording and writes the JSON trace. No-op when not recording.
  Status Stop() {
    recording_.store(false, std::memory_order_release);
    MutexLock lock(&mu_);
    if (!started_) return Status::OK();
    started_ = false;
    return WriteLocked();
  }

  /// Microseconds since Start (span timestamps).
  int64_t NowUs() const {
    int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
    return (now_ns - t0_ns_.load(std::memory_order_relaxed)) / 1000;
  }

  /// Records one complete span event into the calling thread's ring.
  void AppendComplete(const char* name, const char* cat, int64_t ts_us,
                      int64_t dur_us, int64_t arg) {
    ThreadBuffer* buffer = LocalBuffer();
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.arg = arg;
    event.tid = CurrentThreadId();
    MutexLock lock(&buffer->mu);
    if (buffer->ring.size() < kRingCapacity) {
      buffer->ring.push_back(event);
    } else {
      buffer->ring[buffer->count % kRingCapacity] = event;
    }
    ++buffer->count;
  }

  /// Snapshot of all buffered events (tests; also the writer's source).
  std::vector<TraceEvent> SnapshotEvents() const {
    MutexLock lock(&mu_);
    return SnapshotEventsLocked();
  }

  /// Total events currently buffered across threads.
  int64_t BufferedEventCount() const {
    MutexLock lock(&mu_);
    int64_t total = 0;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      total += static_cast<int64_t>(buffer->ring.size());
    }
    return total;
  }

  /// Events lost to ring-buffer wraparound so far this session (the same
  /// number the trace file reports in otherData) — run reports surface it.
  int64_t DroppedEventCount() const {
    MutexLock lock(&mu_);
    int64_t dropped = 0;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      if (buffer->count > buffer->ring.size()) {
        dropped += static_cast<int64_t>(buffer->count - buffer->ring.size());
      }
    }
    return dropped;
  }

  /// Drops all buffered events (tests).
  void ClearForTesting() {
    MutexLock lock(&mu_);
    for (auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      buffer->ring.clear();
      buffer->count = 0;
    }
  }

 private:
  /// One thread's event ring. Buffers are pooled, never destroyed while
  /// the recorder lives: a thread leases one for its lifetime (returned by
  /// the thread_local handle's destructor), so Stop can always walk every
  /// buffer without use-after-free, and short-lived pool threads across
  /// many runs reuse storage instead of growing the registry unboundedly.
  struct ThreadBuffer {
    // All buffers share one construction site on purpose: a thread only
    // ever holds its own buffer's lock, so orderings among buffers never
    // arise. The canonical nesting is recorder mu_ -> buffer mu.
    Mutex mu{"obs.trace.buffer"};
    std::vector<TraceEvent> ring DELEX_GUARDED_BY(mu);
    size_t count DELEX_GUARDED_BY(mu) = 0;  // total appended; > ring.size() once wrapped
    bool leased = false;  // guarded by the recorder's mu_, not this->mu
  };

  struct TlsHandle {
    TraceRecorder* owner = nullptr;
    ThreadBuffer* buffer = nullptr;
    ~TlsHandle() {
      if (owner != nullptr && buffer != nullptr) owner->Release(buffer);
    }
  };

  ThreadBuffer* LocalBuffer() {
    thread_local TlsHandle handle;
    if (handle.buffer == nullptr || handle.owner != this) {
      MutexLock lock(&mu_);
      ThreadBuffer* found = nullptr;
      for (auto& buffer : buffers_) {
        if (!buffer->leased) {
          found = buffer.get();
          break;
        }
      }
      if (found == nullptr) {
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        found = buffers_.back().get();
      }
      found->leased = true;
      handle.owner = this;
      handle.buffer = found;
    }
    return handle.buffer;
  }

  void Release(ThreadBuffer* buffer) {
    MutexLock lock(&mu_);
    buffer->leased = false;  // events stay buffered for the final flush
  }

  std::vector<TraceEvent> SnapshotEventsLocked() const DELEX_REQUIRES(mu_) {
    std::vector<TraceEvent> events;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                return a.dur_us > b.dur_us;  // enclosing span first
              });
    return events;
  }

  Status WriteLocked() DELEX_REQUIRES(mu_) {
    int64_t dropped = 0;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      if (buffer->count > buffer->ring.size()) {
        dropped += static_cast<int64_t>(buffer->count - buffer->ring.size());
      }
    }
    std::vector<TraceEvent> events = SnapshotEventsLocked();

    JsonWriter json;
    json.BeginObject();
    json.Key("traceEvents").BeginArray();
    for (const TraceEvent& event : events) {
      json.BeginObject();
      json.KV("name", event.name);
      json.KV("cat", event.cat != nullptr ? event.cat : "delex");
      json.KV("ph", "X");
      json.KV("ts", event.ts_us);
      json.KV("dur", event.dur_us);
      json.KV("pid", static_cast<int64_t>(1));
      json.KV("tid", static_cast<int64_t>(event.tid));
      if (event.arg != kTraceNoArg) {
        json.Key("args").BeginObject().KV("id", event.arg).EndObject();
      }
      json.EndObject();
    }
    json.EndArray();
    json.KV("displayTimeUnit", "ms");
    json.Key("otherData")
        .BeginObject()
        .KV("dropped_events", dropped)
        .KV("recorder", "delex")
        .EndObject();
    json.EndObject();

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError("cannot write trace file " + path_);
    }
    const std::string& out = json.str();
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (written != out.size()) {
      return Status::IOError("short write to trace file " + path_);
    }
    DELEX_LOG(INFO) << "trace written: " << path_ << " (" << events.size()
                    << " events, " << dropped << " dropped)";
    return Status::OK();
  }

  // The hot-path gate. A static member, not a member of Global()'s
  // function-local static: the disabled-path check is then a single
  // relaxed load with no initialization guard in front of it.
  static inline std::atomic<bool> recording_{false};
  mutable Mutex mu_{"obs.trace.recorder"};  // registry + start/stop + path
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ DELEX_GUARDED_BY(mu_);
  std::atomic<int64_t> t0_ns_{0};
  std::string path_ DELEX_GUARDED_BY(mu_);
  bool started_ DELEX_GUARDED_BY(mu_) = false;
  bool atexit_registered_ DELEX_GUARDED_BY(mu_) = false;
};

/// \brief RAII span: records one complete trace event from construction to
/// destruction. When tracing is disabled the constructor is a single
/// predicted branch and the destructor a dead-flag check.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name, int64_t arg = kTraceNoArg,
                           const char* cat = "delex") {
    if (!TraceRecorder::enabled()) return;
    name_ = name;
    cat_ = cat;
    arg_ = arg;
    start_us_ = TraceRecorder::Global().NowUs();
  }

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

  ~ScopedTraceSpan() {
    if (name_ == nullptr) return;
    // If tracing stopped mid-span the event is dropped — Stop() owns the
    // buffers from that point on.
    if (!TraceRecorder::enabled()) return;
    TraceRecorder& recorder = TraceRecorder::Global();
    recorder.AppendComplete(name_, cat_, start_us_,
                            recorder.NowUs() - start_us_, arg_);
  }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  int64_t arg_ = kTraceNoArg;
  int64_t start_us_ = 0;
};

/// Starts tracing if DELEX_TRACE names a path and no session is active.
inline void MaybeStartTraceFromEnv() {
  const char* path = std::getenv("DELEX_TRACE");
  if (path == nullptr || *path == '\0') return;
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.started()) return;
  Status st = recorder.Start(path);
  if (!st.ok()) {
    DELEX_LOG(WARN) << "DELEX_TRACE: " << st.ToString();
  }
}

}  // namespace obs
}  // namespace delex

#define DELEX_OBS_CONCAT_INNER(a, b) a##b
#define DELEX_OBS_CONCAT(a, b) DELEX_OBS_CONCAT_INNER(a, b)

/// Scoped trace span: DELEX_TRACE_SPAN("name") or
/// DELEX_TRACE_SPAN("name", id). The name must be a string literal.
#define DELEX_TRACE_SPAN(...)                               \
  ::delex::obs::ScopedTraceSpan DELEX_OBS_CONCAT(           \
      delex_trace_span_, __LINE__)(__VA_ARGS__)

#endif  // DELEX_OBS_TRACE_H_
