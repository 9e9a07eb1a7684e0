#ifndef DELEX_OBS_HISTOGRAM_H_
#define DELEX_OBS_HISTOGRAM_H_

// Log-bucketed (HDR-style) latency histograms, observability layer 2.
//
// Bucket scheme (shared by every histogram in the process):
//   - values are non-negative int64 microseconds (negatives clamp to 0),
//   - values 0..15 get one exact bucket each (16 linear buckets),
//   - above that, each power-of-two octave is split into 16 sub-buckets,
//     so any recorded value lands in a bucket whose width is at most
//     1/16 of its lower bound — every percentile estimate carries at
//     most ~6.25 % relative error,
//   - 36 octaves cover [16, 2^40) µs ≈ 12.7 days; larger values clamp
//     into the last bucket. 16 + 36*16 = 592 buckets total.
//
// LocalHistogram holds plain (non-atomic) counts with a single writer.
// These are the per-thread shards: each per-page RunStats owns
// LocalHistograms and the engine folds them together through
// RunStats::MergeFrom, so the hot path never touches shared cache lines.
// Buckets allocate lazily on the first Record — an empty histogram is a
// null vector. The run report summarizes the merged shards.
//
// Recording is gated on HistogramsEnabled() (env DELEX_HISTOGRAMS,
// default on). Call sites should skip the clock reads entirely when the
// gate is off — use ScopedLatencyTimer, which compiles to one relaxed
// load and a predicted branch when disabled.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cmath>
#include <vector>

namespace delex {
namespace obs {

namespace hist {

inline constexpr int kLinearBuckets = 16;    // values 0..15, exact
inline constexpr int kSubBuckets = 16;       // per octave above that
inline constexpr int kOctaves = 36;          // [16, 2^40) µs
inline constexpr int kBucketCount = kLinearBuckets + kOctaves * kSubBuckets;

/// Bucket index for a value (negatives clamp to 0, huge values into the
/// last bucket).
inline int BucketIndex(int64_t value) {
  if (value < kLinearBuckets) return value < 0 ? 0 : static_cast<int>(value);
  int msb = 63 - std::countl_zero(static_cast<uint64_t>(value));
  int octave = msb - 4;  // 4 == log2(kLinearBuckets)
  if (octave >= kOctaves) return kBucketCount - 1;
  int sub = static_cast<int>((static_cast<uint64_t>(value) >> (msb - 4)) & 15u);
  return kLinearBuckets + octave * kSubBuckets + sub;
}

/// Smallest value that lands in bucket `index`.
inline int64_t BucketLowerBound(int index) {
  if (index < kLinearBuckets) return index;
  int octave = (index - kLinearBuckets) / kSubBuckets;
  int sub = (index - kLinearBuckets) % kSubBuckets;
  return static_cast<int64_t>(kLinearBuckets + sub) << octave;
}

/// Largest value that lands in bucket `index` (inclusive).
inline int64_t BucketUpperBound(int index) {
  if (index < kLinearBuckets) return index;
  if (index >= kBucketCount - 1) return INT64_MAX;  // clamp catch-all
  int octave = (index - kLinearBuckets) / kSubBuckets;
  return BucketLowerBound(index) + (static_cast<int64_t>(1) << octave) - 1;
}

}  // namespace hist

namespace hist_internal {
inline bool EnabledFromEnv() {
  const char* env = std::getenv("DELEX_HISTOGRAMS");
  return env == nullptr || *env == '\0' || std::atoi(env) != 0;
}
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{EnabledFromEnv()};
  return flag;
}
}  // namespace hist_internal

/// Global histogram gate (DELEX_HISTOGRAMS=0 disables all recording).
inline bool HistogramsEnabled() {
  return hist_internal::EnabledFlag().load(std::memory_order_relaxed);
}
inline void SetHistogramsEnabled(bool on) {
  hist_internal::EnabledFlag().store(on, std::memory_order_relaxed);
}

/// \brief Single-writer histogram shard, merged per run.
class LocalHistogram {
 public:
  void Record(int64_t value_us) {
    if (value_us < 0) value_us = 0;
    EnsureBuckets();
    ++buckets_[hist::BucketIndex(value_us)];
    ++count_;
    sum_ += value_us;
    if (value_us > max_) max_ = value_us;
  }

  void MergeFrom(const LocalHistogram& other) {
    if (other.count_ == 0) return;
    EnsureBuckets();
    for (int i = 0; i < hist::kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t max() const { return max_; }
  double Mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / count_ : 0.0;
  }

  /// Bucket-resolution percentile estimate, p in [0,100]: the upper bound
  /// of the bucket holding the rank-⌈p/100·count⌉ observation (capped by
  /// the exact max). Never below the exact percentile; at most ~6.25 %
  /// above it. Returns 0 on an empty histogram.
  int64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    double want = std::ceil(p / 100.0 * static_cast<double>(count_));
    int64_t rank = static_cast<int64_t>(want);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    int64_t cumulative = 0;
    for (int i = 0; i < hist::kBucketCount; ++i) {
      cumulative += buckets_[i];
      if (cumulative >= rank) {
        int64_t upper = hist::BucketUpperBound(i);
        return upper < max_ ? upper : max_;
      }
    }
    return max_;  // unreachable: cumulative == count_ after the loop
  }

  /// Raw bucket counts (empty vector until the first Record).
  const std::vector<int64_t>& buckets() const { return buckets_; }

  void Reset() {
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

 private:
  void EnsureBuckets() {
    if (buckets_.empty()) buckets_.assign(hist::kBucketCount, 0);
  }

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t max_ = 0;
};

/// \brief RAII latency sample into a histogram shard. When histograms are
/// disabled the constructor is one relaxed load and a predicted branch —
/// no clock reads at all.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LocalHistogram* shard)
      : shard_(shard), armed_(HistogramsEnabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  ~ScopedLatencyTimer() {
    if (!armed_) return;
    shard_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LocalHistogram* shard_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_HISTOGRAM_H_
