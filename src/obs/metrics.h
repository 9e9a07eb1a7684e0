#ifndef DELEX_OBS_METRICS_H_
#define DELEX_OBS_METRICS_H_

// Process-wide metrics registry: named monotone counters, registered
// lazily at first use and snapshotted into every run report.
//
//   static obs::Counter* demotions =
//       obs::MetricsRegistry::Global().GetCounter("engine.fast_path.demotions");
//   demotions->Increment();
//
// Counters are relaxed atomics — safe from any thread, negligible cost.
// Registration takes a mutex-guarded map lookup on every call, so hot
// paths must cache the returned pointer (function-local static); the
// pointers stay valid until process exit.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace delex {
namespace obs {

/// \brief One named monotone counter. Lifetime: owned by the registry,
/// valid until process exit — cache the pointer freely.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// \brief Registry of all counters in the process.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter named `name`, creating it on first use.
  Counter* GetCounter(std::string_view name);

  /// Counter name→value snapshot, sorted by name (run-report order).
  std::vector<std::pair<std::string, int64_t>> Snapshot() const;

  /// Zeroes every counter (tests and per-process report baselines).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_{"obs.metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DELEX_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_METRICS_H_
