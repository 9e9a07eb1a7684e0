#ifndef DELEX_OBS_MEM_H_
#define DELEX_OBS_MEM_H_

// Observability layer 4, memory side: tagged per-subsystem byte accounting
// plus a background process sampler (/proc/self/statm + getrusage).
//
// The accounting core is header-only for the same reason trace.h is: the
// charge sites live in storage, text and common, none of which link the
// obs library. A charge is one relaxed fetch_add plus a CAS-max loop on
// the peak — cheap enough to stay compiled in unconditionally, which is
// what lets ci/bench_compare.py gate its overhead at <= 2%.
//
//   // At an ownership point (a member; see ScopedMemCharge on teardown):
//   obs::ScopedMemCharge mem_{obs::MemTag::kSnapshot};
//   mem_.Set(bytes_now_owned);   // re-charge the delta on growth
//
// The process sampler, gauge export (`mem.*`), /memz JSON and the run
// report `resources` block live in mem.cc (MemSampler, MemzJson,
// CollectResourceUsage) — see obs/export.h for the HTTP surface.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace delex {
namespace obs {

/// Subsystems that account their bytes. Keep MemTagName in sync.
enum class MemTag : int {
  kSnapshot = 0,     // page text + urls held by storage::Snapshot
  kReuseReader = 1,  // reuse-file v2 reader state (index, cursors, scratch)
  kResultCache = 2,  // result-cache reader/writer scratch
  kThreadPool = 3,   // queued-task estimate in common::ThreadPool
  kMatcher = 4,      // suffix-automaton states + dictionary storage
  kShard = 5,        // sharded-engine per-shard overhead (partitions, merge)
  kPipeline = 6,     // page state held in the engine's pipeline ring slots
  kCount = 7,
};

inline constexpr int kMemTagCount = static_cast<int>(MemTag::kCount);

inline const char* MemTagName(MemTag tag) {
  switch (tag) {
    case MemTag::kSnapshot: return "snapshot";
    case MemTag::kReuseReader: return "reuse_reader";
    case MemTag::kResultCache: return "result_cache";
    case MemTag::kThreadPool: return "thread_pool";
    case MemTag::kMatcher: return "matcher";
    case MemTag::kShard: return "shard";
    case MemTag::kPipeline: return "pipeline";
    case MemTag::kCount: break;
  }
  return "unknown";
}

namespace mem_internal {
struct TagCell {
  std::atomic<int64_t> current{0};
  std::atomic<int64_t> peak{0};
};
inline TagCell g_cells[kMemTagCount] = {};
// Whole-tracker totals so "tracked peak" is a real high-water mark of the
// sum, not the (larger) sum of per-tag peaks taken at different times.
inline std::atomic<int64_t> g_total_current{0};
inline std::atomic<int64_t> g_total_peak{0};

inline void RaisePeak(std::atomic<int64_t>& peak, int64_t candidate) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !peak.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace mem_internal

/// Charges `bytes` (may be negative to discharge) against `tag`.
inline void MemCharge(MemTag tag, int64_t bytes) {
  if (bytes == 0) return;
  mem_internal::TagCell& cell = mem_internal::g_cells[static_cast<int>(tag)];
  int64_t now =
      cell.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes > 0) mem_internal::RaisePeak(cell.peak, now);
  int64_t total = mem_internal::g_total_current.fetch_add(
                      bytes, std::memory_order_relaxed) +
                  bytes;
  if (bytes > 0) mem_internal::RaisePeak(mem_internal::g_total_peak, total);
}

inline int64_t MemCurrent(MemTag tag) {
  return mem_internal::g_cells[static_cast<int>(tag)].current.load(
      std::memory_order_relaxed);
}

inline int64_t MemPeak(MemTag tag) {
  return mem_internal::g_cells[static_cast<int>(tag)].peak.load(
      std::memory_order_relaxed);
}

/// Sum of all live tagged bytes right now.
inline int64_t MemTrackedCurrent() {
  return mem_internal::g_total_current.load(std::memory_order_relaxed);
}

/// High-water mark of the tracked total.
inline int64_t MemTrackedPeak() {
  return mem_internal::g_total_peak.load(std::memory_order_relaxed);
}

/// Zeroes every cell (tests only — live ScopedMemCharge objects will
/// discharge below zero afterwards).
inline void MemResetForTesting() {
  for (auto& cell : mem_internal::g_cells) {
    cell.current.store(0, std::memory_order_relaxed);
    cell.peak.store(0, std::memory_order_relaxed);
  }
  mem_internal::g_total_current.store(0, std::memory_order_relaxed);
  mem_internal::g_total_peak.store(0, std::memory_order_relaxed);
}

/// \brief RAII charge bound to one owner object: Set() re-charges the
/// delta as the owned footprint grows or shrinks, the destructor returns
/// whatever is still charged. Members are destroyed in reverse
/// declaration order, so a charge declared before the owned containers is
/// returned after they are freed, and one declared after them before.
/// Either order is fine: teardown only lowers the current counts, and
/// peaks are set while the owner grows, never while it is destroyed.
/// Movable (ownership of the charge moves), copyable (the copy charges its
/// own bytes) so owners keep their default copy/move semantics.
class ScopedMemCharge {
 public:
  explicit ScopedMemCharge(MemTag tag, int64_t bytes = 0) : tag_(tag) {
    Set(bytes);
  }
  ~ScopedMemCharge() { Set(0); }

  ScopedMemCharge(const ScopedMemCharge& other) : tag_(other.tag_) {
    Set(other.bytes_);
  }
  ScopedMemCharge& operator=(const ScopedMemCharge& other) {
    if (this != &other) {
      Set(0);
      tag_ = other.tag_;
      Set(other.bytes_);
    }
    return *this;
  }
  ScopedMemCharge(ScopedMemCharge&& other) noexcept
      : tag_(other.tag_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ScopedMemCharge& operator=(ScopedMemCharge&& other) noexcept {
    if (this != &other) {
      Set(0);
      tag_ = other.tag_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }

  /// Makes the outstanding charge exactly `bytes`.
  void Set(int64_t bytes) {
    if (bytes < 0) bytes = 0;
    if (bytes == bytes_) return;
    MemCharge(tag_, bytes - bytes_);
    bytes_ = bytes;
  }

  /// Grows the outstanding charge by `delta` bytes.
  void Add(int64_t delta) { Set(bytes_ + delta); }

  int64_t bytes() const { return bytes_; }
  MemTag tag() const { return tag_; }

 private:
  MemTag tag_;
  int64_t bytes_ = 0;
};

/// \brief Point-in-time resource view: every tagged subsystem plus the
/// process counters the sampler maintains. Feeds /memz, /statusz, the run
/// report `resources` block and delex_inspect mem.
struct ResourceUsage {
  struct Subsystem {
    std::string tag;
    int64_t current_bytes = 0;
    int64_t peak_bytes = 0;
  };
  std::vector<Subsystem> subsystems;   // MemTag order
  int64_t tracked_bytes = 0;           // sum of live tagged bytes
  int64_t tracked_peak_bytes = 0;      // high-water mark of that sum
  int64_t rss_bytes = 0;               // /proc/self/statm resident, sampled
  int64_t vm_bytes = 0;                // /proc/self/statm size, sampled
  int64_t peak_rss_bytes = 0;          // getrusage ru_maxrss
};

// ----- everything below is implemented in mem.cc (links delex_obs) -----

/// Reads /proc/self/statm + getrusage right now, refreshes the `mem.*`
/// gauges, and returns the combined view. Safe without the sampler.
ResourceUsage CollectResourceUsage();

/// \brief Background sampler: refreshes process RSS/VM gauges every
/// `interval_ms` so exporters and /statusz see fresh numbers without a
/// collector in the hot path. Start is idempotent; Stop joins the thread.
class MemSampler {
 public:
  static MemSampler& Global();
  void Start(int interval_ms);
  void Stop();
  bool running() const;
  /// Samples observed since Start (tests: peak monotonicity).
  int64_t sample_count() const;

 private:
  MemSampler() = default;
};

/// Starts the sampler when DELEX_MEM_SAMPLE_MS is set (interval in ms;
/// "0" disables). Called from MaybeStartExportersFromEnv.
void MaybeStartMemSamplerFromEnv();

/// /memz payload: the ResourceUsage as one JSON object.
std::string MemzJson();

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_MEM_H_
