#ifndef DELEX_OBS_PROFILER_H_
#define DELEX_OBS_PROFILER_H_

// Observability layer 4, CPU side: a SIGPROF-driven span-sampling
// profiler. Each timer tick the handler reads the interrupted thread's
// own stack of open DELEX_TRACE_SPAN names (trace.h maintains it while
// the profile hook is on) and bumps a count for that span path in a
// lock-free fixed-size table. No symbolization, no unwinding, no
// allocation in the handler — span names are string literals, so a path
// is just an array of stable pointers.
//
// Output is the folded-stack format flamegraph.pl and speedscope consume
// directly, one "root;child;leaf COUNT" line per distinct path:
//
//   DELEX_PROFILE=/tmp/delex.folded DELEX_PROFILE_HZ=97 ./run_experiment …
//   flamegraph.pl /tmp/delex.folded > flame.svg
//
// DELEX_PROFILE=1 profiles without writing a file (read the run report's
// resources.profile block instead). Sampling uses
// ITIMER_PROF, so ticks land on whichever thread is burning CPU and the
// sample distribution approximates self-time. The profiler is process-
// global and off by default; when off, span cost is unchanged (one
// relaxed load + branch — see trace.h).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace delex {
namespace obs {

/// One span's aggregate from the sample table (run report top-N).
struct SpanSelfSample {
  std::string span;         // leaf (innermost) span name
  int64_t self_samples = 0; // ticks where this span was innermost
};

/// \brief Process-wide span-sampling profiler. Start installs the SIGPROF
/// handler and arms ITIMER_PROF; Stop disarms, restores the previous
/// handler and freezes the sample table for reading.
class SpanProfiler {
 public:
  static SpanProfiler& Global();

  /// Begins sampling at `hz` ticks/sec (clamped to [1, 1000]). If
  /// `folded_path` is non-empty the folded output is written there at
  /// Stop — and at process exit, for runs that never call Stop. A second
  /// Start while running returns InvalidArgument.
  Status Start(int hz, const std::string& folded_path = "");

  /// Stops sampling; writes the folded file when one was requested.
  Status Stop();

  bool running() const;

  /// Folded-stack text: one "a;b;c N" line per path, sorted by path so
  /// equal workloads produce byte-identical output regardless of thread
  /// count or table fill order. Empty-stack ticks fold as "(no_span)".
  std::string FoldedText() const;

  /// Leaf-span self-sample totals, largest first, at most `limit`.
  std::vector<SpanSelfSample> TopSelfSamples(int limit) const;

  int64_t TotalSamples() const;  // every tick observed
  /// Ticks dropped because the table was full or a slot was mid-claim.
  int64_t LostSamples() const;

  /// Drops all samples (only while stopped; tests).
  void ClearForTesting();

 private:
  SpanProfiler() = default;
};

/// Starts the profiler when DELEX_PROFILE is set: "1" samples without a
/// file, any other non-empty value is the folded output path. The rate
/// comes from DELEX_PROFILE_HZ (default 97 — an off-round prime so ticks
/// do not phase-lock with 10ms-aligned periodic work).
void MaybeStartProfilerFromEnv();

}  // namespace obs
}  // namespace delex

#endif  // DELEX_OBS_PROFILER_H_
