#include "obs/metrics.h"

namespace delex {
namespace obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto counter = std::unique_ptr<Counter>(new Counter(std::string(name)));
    it = counters_.emplace(std::string(name), std::move(counter)).first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
}

}  // namespace obs
}  // namespace delex
