#include "obs/mem.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace delex {
namespace obs {

namespace {

// /proc/self/statm reports pages: "size resident shared text lib data dt".
// Returns false (leaving the outputs at 0) on non-Linux or a read failure —
// tracked accounting still works, only the process columns go dark.
bool ReadStatm(int64_t* vm_bytes, int64_t* rss_bytes) {
  *vm_bytes = 0;
  *rss_bytes = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return false;
  long size_pages = 0;
  long resident_pages = 0;
  int fields = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return false;
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  *vm_bytes = static_cast<int64_t>(size_pages) * page;
  *rss_bytes = static_cast<int64_t>(resident_pages) * page;
  return true;
}

// ru_maxrss is kilobytes on Linux.
int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

ResourceUsage CollectResourceUsage() {
  ResourceUsage usage;
  usage.subsystems.reserve(kMemTagCount);
  for (int i = 0; i < kMemTagCount; ++i) {
    MemTag tag = static_cast<MemTag>(i);
    ResourceUsage::Subsystem sub;
    sub.tag = MemTagName(tag);
    sub.current_bytes = MemCurrent(tag);
    sub.peak_bytes = MemPeak(tag);
    usage.subsystems.push_back(std::move(sub));
  }
  usage.tracked_bytes = MemTrackedCurrent();
  usage.tracked_peak_bytes = MemTrackedPeak();
  ReadStatm(&usage.vm_bytes, &usage.rss_bytes);
  // getrusage and statm read different kernel accounting (per-thread rss
  // counters are batched), so ru_maxrss can trail the live value by a few
  // pages. The reported peak is the high-water of both across every
  // collection, so peak >= current holds and the peak never falls.
  static std::atomic<int64_t> reported_peak{0};
  mem_internal::RaisePeak(reported_peak,
                          std::max(PeakRssBytes(), usage.rss_bytes));
  usage.peak_rss_bytes = reported_peak.load(std::memory_order_relaxed);
  return usage;
}

}  // namespace obs
}  // namespace delex
