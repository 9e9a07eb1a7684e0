#include "obs/profiler.h"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/annotations.h"
#include "common/mutex.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace delex {
namespace obs {

namespace {

using trace_internal::kSpanStackMaxDepth;

// The sample table the SIGPROF handler aggregates into. Open-addressed,
// fixed size, never resized: a handler may not allocate. A slot moves
// empty -> claimed -> ready exactly once; counts only accumulate on ready
// slots, and the rare tick that lands on a mid-claim slot or a full probe
// chain is counted as lost rather than waited for — a profiler must never
// block the thread it interrupts.
constexpr int kTableSize = 2048;  // power of two (mask probing)
constexpr int kMaxProbes = 32;

constexpr uint32_t kSlotEmpty = 0;
constexpr uint32_t kSlotClaimed = 1;
constexpr uint32_t kSlotReady = 2;

struct Slot {
  std::atomic<uint32_t> state{kSlotEmpty};
  std::atomic<int64_t> count{0};
  uint64_t hash = 0;                         // written before state=ready
  int len = 0;                               // written before state=ready
  const char* path[kSpanStackMaxDepth] = {}; // written before state=ready
};

Slot g_table[kTableSize];
std::atomic<int64_t> g_total_samples{0};
std::atomic<int64_t> g_lost_samples{0};
std::atomic<int64_t> g_no_span_samples{0};
std::atomic<bool> g_sampling{false};

uint64_t HashPath(const char* const* path, int len) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 over pointer bytes
  for (int i = 0; i < len; ++i) {
    // delex-lint: allow(reinterpret-cast) -- hashing the pointer VALUE
    uint64_t p = reinterpret_cast<uint64_t>(path[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (p >> (b * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h == 0 ? 1 : h;
}

extern "C" void DelexSigprofHandler(int) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  g_total_samples.fetch_add(1, std::memory_order_relaxed);

  trace_internal::SpanStack& stack = trace_internal::LocalSpanStack();
  int depth = stack.depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  int len = depth < kSpanStackMaxDepth ? depth : kSpanStackMaxDepth;
  if (len <= 0) {
    g_no_span_samples.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const char* path[kSpanStackMaxDepth];
  for (int i = 0; i < len; ++i) {
    path[i] = stack.names[i].load(std::memory_order_relaxed);
  }

  uint64_t hash = HashPath(path, len);
  for (int probe = 0; probe < kMaxProbes; ++probe) {
    Slot& slot =
        g_table[(hash + static_cast<uint64_t>(probe)) & (kTableSize - 1)];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == kSlotEmpty) {
      uint32_t expected = kSlotEmpty;
      if (slot.state.compare_exchange_strong(expected, kSlotClaimed,
                                             std::memory_order_acq_rel)) {
        slot.hash = hash;
        slot.len = len;
        for (int i = 0; i < len; ++i) slot.path[i] = path[i];
        slot.state.store(kSlotReady, std::memory_order_release);
        slot.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state == kSlotClaimed) {
      // Another thread is publishing this slot right now; don't spin in a
      // signal handler.
      g_lost_samples.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // kSlotReady: match?
    if (slot.hash == hash && slot.len == len &&
        std::memcmp(slot.path, path, sizeof(path[0]) * len) == 0) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  g_lost_samples.fetch_add(1, std::memory_order_relaxed);
}

struct ProfilerState {
  mutable Mutex mu{"obs.profiler"};
  bool running DELEX_GUARDED_BY(mu) = false;
  bool atexit_registered DELEX_GUARDED_BY(mu) = false;
  std::string folded_path DELEX_GUARDED_BY(mu);
  struct sigaction previous_action DELEX_GUARDED_BY(mu) = {};
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState;  // leaked on purpose
  return *state;
}

// One folded path with its count, for sorting outside the handler.
struct FoldedLine {
  std::string path;
  const char* leaf = nullptr;
  int64_t count = 0;
};

std::vector<FoldedLine> SnapshotFolded() {
  std::vector<FoldedLine> lines;
  for (Slot& slot : g_table) {
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    int64_t count = slot.count.load(std::memory_order_relaxed);
    if (count <= 0) continue;
    FoldedLine line;
    for (int i = 0; i < slot.len; ++i) {
      if (i > 0) line.path += ';';
      line.path += slot.path[i];
    }
    line.leaf = slot.path[slot.len - 1];
    line.count = count;
    lines.push_back(std::move(line));
  }
  int64_t no_span = g_no_span_samples.load(std::memory_order_relaxed);
  if (no_span > 0) {
    FoldedLine line;
    line.path = "(no_span)";
    line.leaf = "(no_span)";
    line.count = no_span;
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end(),
            [](const FoldedLine& a, const FoldedLine& b) {
              return a.path < b.path;
            });
  return lines;
}

Status WriteFoldedFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot write folded profile " + path);
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IOError("short write to folded profile " + path);
  }
  return Status::OK();
}

}  // namespace

SpanProfiler& SpanProfiler::Global() {
  static SpanProfiler profiler;
  return profiler;
}

Status SpanProfiler::Start(int hz, const std::string& folded_path) {
  if (hz < 1) hz = 1;
  if (hz > 1000) hz = 1000;
  ProfilerState& state = State();
  MutexLock lock(&state.mu);
  if (state.running) {
    return Status::InvalidArgument("profiler already running");
  }
  state.folded_path = folded_path;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = DelexSigprofHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &state.previous_action) != 0) {
    return Status::Internal("sigaction(SIGPROF) failed");
  }

  // Maintain the per-thread span stacks, then start counting ticks.
  trace_internal::SetSpanHook(trace_internal::kHookProfile, true);
  g_sampling.store(true, std::memory_order_release);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / hz);
  if (timer.it_interval.tv_usec <= 0) timer.it_interval.tv_usec = 1000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_release);
    trace_internal::SetSpanHook(trace_internal::kHookProfile, false);
    sigaction(SIGPROF, &state.previous_action, nullptr);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }

  state.running = true;
  if (!state.atexit_registered) {
    state.atexit_registered = true;
    std::atexit([] { (void)SpanProfiler::Global().Stop(); });
  }
  if (folded_path.empty()) {
    DELEX_LOG(INFO) << "span profiler started at " << hz << " Hz";
  } else {
    DELEX_LOG(INFO) << "span profiler started at " << hz << " Hz -> "
                    << folded_path;
  }
  return Status::OK();
}

Status SpanProfiler::Stop() {
  ProfilerState& state = State();
  MutexLock lock(&state.mu);
  if (!state.running) return Status::OK();
  state.running = false;

  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  setitimer(ITIMER_PROF, &timer, nullptr);
  g_sampling.store(false, std::memory_order_release);
  trace_internal::SetSpanHook(trace_internal::kHookProfile, false);
  sigaction(SIGPROF, &state.previous_action, nullptr);

  Status status = Status::OK();
  if (!state.folded_path.empty()) {
    std::vector<FoldedLine> lines = SnapshotFolded();
    std::string text;
    for (const FoldedLine& line : lines) {
      text += line.path;
      text += ' ';
      text += std::to_string(line.count);
      text += '\n';
    }
    status = WriteFoldedFile(state.folded_path, text);
    if (status.ok()) {
      DELEX_LOG(INFO) << "folded profile written: " << state.folded_path
                      << " (" << lines.size() << " paths, "
                      << g_total_samples.load(std::memory_order_relaxed)
                      << " samples)";
    } else {
      DELEX_LOG(WARN) << status.ToString();
    }
  }
  return status;
}

bool SpanProfiler::running() const {
  ProfilerState& state = State();
  MutexLock lock(&state.mu);
  return state.running;
}

std::string SpanProfiler::FoldedText() const {
  std::string text;
  for (const FoldedLine& line : SnapshotFolded()) {
    text += line.path;
    text += ' ';
    text += std::to_string(line.count);
    text += '\n';
  }
  return text;
}

std::vector<SpanSelfSample> SpanProfiler::TopSelfSamples(int limit) const {
  // Self time of a span == ticks where it was innermost == the leaf of
  // the sampled path.
  std::vector<SpanSelfSample> totals;
  for (const FoldedLine& line : SnapshotFolded()) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanSelfSample& s) {
                             return s.span == line.leaf;
                           });
    if (it == totals.end()) {
      SpanSelfSample sample;
      sample.span = line.leaf;
      sample.self_samples = line.count;
      totals.push_back(std::move(sample));
    } else {
      it->self_samples += line.count;
    }
  }
  std::sort(totals.begin(), totals.end(),
            [](const SpanSelfSample& a, const SpanSelfSample& b) {
              if (a.self_samples != b.self_samples) {
                return a.self_samples > b.self_samples;
              }
              return a.span < b.span;
            });
  if (limit >= 0 && static_cast<size_t>(limit) < totals.size()) {
    totals.resize(static_cast<size_t>(limit));
  }
  return totals;
}

int64_t SpanProfiler::TotalSamples() const {
  return g_total_samples.load(std::memory_order_relaxed);
}

int64_t SpanProfiler::LostSamples() const {
  return g_lost_samples.load(std::memory_order_relaxed);
}

void SpanProfiler::ClearForTesting() {
  ProfilerState& state = State();
  MutexLock lock(&state.mu);
  if (state.running) return;  // never race the handler
  for (Slot& slot : g_table) {
    slot.state.store(kSlotEmpty, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
    slot.hash = 0;
    slot.len = 0;
  }
  g_total_samples.store(0, std::memory_order_relaxed);
  g_lost_samples.store(0, std::memory_order_relaxed);
  g_no_span_samples.store(0, std::memory_order_relaxed);
}

void MaybeStartProfilerFromEnv() {
  const char* value = std::getenv("DELEX_PROFILE");
  if (value == nullptr || *value == '\0' ||
      std::strcmp(value, "0") == 0) {
    return;
  }
  SpanProfiler& profiler = SpanProfiler::Global();
  if (profiler.running()) return;
  int hz = 97;
  const char* hz_env = std::getenv("DELEX_PROFILE_HZ");
  if (hz_env != nullptr && *hz_env != '\0') {
    int parsed = std::atoi(hz_env);
    if (parsed > 0) hz = parsed;
  }
  std::string folded_path;
  if (std::strcmp(value, "1") != 0) folded_path = value;
  Status status = profiler.Start(hz, folded_path);
  if (!status.ok()) {
    DELEX_LOG(WARN) << "DELEX_PROFILE: " << status.ToString();
  }
}

}  // namespace obs
}  // namespace delex
