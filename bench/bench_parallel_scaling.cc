// Parallel page-pipeline scaling: pages/sec and speedup at 1/2/4/8 worker
// threads, emitted as machine-readable JSON so future PRs have a perf
// trajectory to regress against.
//
//   build/bench/bench_parallel_scaling [> scaling.json]
//
// Scale knobs (bench_util.h): DELEX_PAGES_DBLIFE / DELEX_PAGES_WIKI /
// DELEX_SNAPSHOTS / DELEX_SEED. Thread counts are fixed — they ARE the
// experiment. Speedup is relative to the 1-thread run of the same series
// (the same pipeline, evaluating pages inline on the calling thread);
// `results_match` asserts Theorem-1 equivalence held at every thread
// count. Note `hardware_concurrency` in the output: on a machine with
// fewer cores than workers, the speedup ceiling is the core count, not
// the thread count.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "delex/ie_unit.h"

namespace delex {
namespace bench {
namespace {

struct ScalingRun {
  int threads = 0;
  double seconds = 0;
  double pages_per_sec = 0;
  double speedup = 0;
  bool results_match = false;
};

size_t NumUnits(const ProgramSpec& spec) {
  auto analysis = AnalyzeUnits(spec.plan);
  if (!analysis.ok()) {
    std::fprintf(stderr, "AnalyzeUnits(%s): %s\n", spec.name.c_str(),
                 analysis.status().ToString().c_str());
    std::exit(1);
  }
  return analysis->units.size();
}

SeriesRun RunAtThreads(const ProgramSpec& spec,
                       const std::vector<Snapshot>& series, int threads) {
  DelexSolutionOptions options;
  options.num_threads = threads;
  // Force a uniform ST assignment: the optimizer's per-snapshot choices
  // are themselves timing-dependent inputs; pinning the plan isolates the
  // pipeline's scaling from plan churn.
  options.forced_assignment =
      MatcherAssignment::Uniform(NumUnits(spec), MatcherKind::kST);
  auto delex = MakeDelexSolution(
      spec, WorkDir("scaling-" + spec.name + "-t" + std::to_string(threads)),
      options);
  return MustRun(delex.get(), series, /*keep_results=*/true);
}

bool ResultsMatch(const SeriesRun& a, const SeriesRun& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (!SameResults(a.results[i], b.results[i])) return false;
  }
  return true;
}

void BenchProgram(const std::string& name, bool first) {
  ProgramSpec spec = MustProgram(name);
  const int pages = PagesFor(spec);
  std::vector<Snapshot> series = SeriesFor(spec);
  // Pages actually timed: consecutive snapshots 2..n (the first is an
  // uncounted capture-only warm-up, as everywhere in §8).
  const double timed_pages =
      static_cast<double>(pages) * static_cast<double>(series.size() - 1);

  SeriesRun serial = RunAtThreads(spec, series, 1);
  std::printf("%s    {\"program\": \"%s\", \"profile\": \"%s\", "
              "\"pages\": %d, \"snapshots\": %zu, \"runs\": [\n",
              first ? "" : ",\n", name.c_str(),
              spec.wiki ? "Wikipedia" : "DBLife", pages, series.size());
  bool first_run = true;
  for (int threads : {1, 2, 4, 8}) {
    SeriesRun run = threads == 1 ? serial : RunAtThreads(spec, series, threads);
    ScalingRun row;
    row.threads = threads;
    row.seconds = run.TotalSeconds();
    row.pages_per_sec = row.seconds > 0 ? timed_pages / row.seconds : 0;
    row.speedup =
        row.seconds > 0 ? serial.TotalSeconds() / row.seconds : 0;
    row.results_match = ResultsMatch(serial, run);
    std::printf("%s      {\"threads\": %d, \"seconds\": %.4f, "
                "\"pages_per_sec\": %.1f, \"speedup\": %.3f, "
                "\"results_match\": %s}",
                first_run ? "" : ",\n", row.threads, row.seconds,
                row.pages_per_sec, row.speedup,
                row.results_match ? "true" : "false");
    first_run = false;
    std::fflush(stdout);
  }
  std::printf("\n    ]}");
}

void Main() {
  std::printf("{\n  \"bench\": \"parallel_scaling\",\n"
              "  \"meta\": %s,\n"
              "  \"hardware_concurrency\": %u,\n  \"programs\": [\n",
              MetaJson().c_str(), std::thread::hardware_concurrency());
  // DBLife is the acceptance profile (the paper's primary corpus); the
  // Wikipedia program rides along for the low-overlap regime.
  BenchProgram("chair", /*first=*/true);
  BenchProgram("play", /*first=*/false);
  std::printf("\n  ]\n}\n");
}

}  // namespace
}  // namespace bench
}  // namespace delex

int main(int argc, char** argv) {
  // Meta is embedded in the JSON document, not printed as a header line —
  // stdout must stay one parseable document.
  delex::bench::BenchInit(argc, argv, /*print_meta_line=*/false);
  delex::bench::Main();
  return 0;
}
