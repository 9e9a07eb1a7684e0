#ifndef DELEX_BENCH_BENCH_UTIL_H_
#define DELEX_BENCH_BENCH_UTIL_H_

// Shared plumbing for the experiment-reproduction binaries. Each bench
// regenerates one table/figure of the paper's §8 on the synthetic corpora;
// scale knobs come from the environment so a laptop smoke run and a
// beefier full run use the same binaries:
//
//   DELEX_PAGES_DBLIFE / DELEX_PAGES_WIKI   pages per snapshot
//   DELEX_SNAPSHOTS                         snapshots per series
//   DELEX_SEED                              corpus seed
//   DELEX_THREADS                           engine worker threads
//                                           (1 = serial, 0 = all cores)
//   DELEX_FAST_PATH                         identical-page fast path
//                                           (1 = on, default; 0 = off)
//   DELEX_SHARDS                            hash-partitioned engine shards
//                                           (1 = unsharded, default)
//   DELEX_BENCH_REPS                        min-of-N repetitions where a
//                                           bench repeats timed runs
//
// Observability (obs/): DELEX_TRACE=<path> records a Chrome-trace JSON of
// the run, DELEX_STATS_JSON=<path> (or the --stats-json <path> flag, via
// BenchInit) appends per-snapshot run reports, and every bench stamps its
// output with MetaJson() — git sha, build type, and the knob values — so
// stored results are traceable to the tree and environment that produced
// them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/programs.h"
#include "harness/table.h"
#include "obs/json_writer.h"
#include "obs/mem.h"
#include "obs/trace.h"

#ifndef DELEX_GIT_SHA
#define DELEX_GIT_SHA "unknown"
#endif
#ifndef DELEX_BUILD_TYPE
#define DELEX_BUILD_TYPE "unknown"
#endif

namespace delex {
namespace bench {

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

inline int PagesFor(const ProgramSpec& spec) {
  return static_cast<int>(spec.wiki ? EnvInt("DELEX_PAGES_WIKI", 180)
                                    : EnvInt("DELEX_PAGES_DBLIFE", 250));
}

inline int Snapshots() {
  return static_cast<int>(EnvInt("DELEX_SNAPSHOTS", 8));
}

inline uint64_t Seed() {
  return static_cast<uint64_t>(EnvInt("DELEX_SEED", 20090629));  // SIGMOD'09
}

/// Engine worker threads; results are identical at any setting.
inline int Threads() { return static_cast<int>(EnvInt("DELEX_THREADS", 1)); }

/// Identical-page fast path; results are identical either way.
inline bool FastPath() { return EnvInt("DELEX_FAST_PATH", 1) != 0; }

/// Engine shards for Delex (hash-partitioned pages on one shared pool);
/// results are identical at any setting.
inline int Shards() {
  int shards = static_cast<int>(EnvInt("DELEX_SHARDS", 1));
  return shards > 1 ? shards : 1;
}

/// Min-of-N repetitions for benches that repeat timed runs.
inline int BenchReps() {
  int reps = static_cast<int>(EnvInt("DELEX_BENCH_REPS", 3));
  return reps > 1 ? reps : 1;
}

/// The host's CPU model (the first "model name" line of /proc/cpuinfo), or
/// "unknown" where there is none.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t value = line.find_first_not_of(" \t", colon + 1);
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

/// Shared metadata object stamped into every bench's output: build
/// provenance, the machine shape (hardware_concurrency and cpu_model, which
/// ci/bench_compare.py requires to match the baseline's) and the effective
/// scale knobs. Table-style benches print it
/// as a standalone {"bench_meta": ...} line (BenchInit); JSON-document
/// benches embed it as a "meta" member so their whole stdout stays one
/// parseable document.
inline std::string MetaJson() {
  obs::JsonWriter json;
  json.BeginObject()
      .KV("git_sha", DELEX_GIT_SHA)
      .KV("build_type", DELEX_BUILD_TYPE)
      .KV("hardware_concurrency",
          static_cast<int64_t>(std::thread::hardware_concurrency()))
      .KV("cpu_model", CpuModel())
      .KV("threads", static_cast<int64_t>(Threads()))
      .KV("bench_reps", static_cast<int64_t>(BenchReps()))
      .KV("seed", static_cast<int64_t>(Seed()))
      .KV("snapshots", static_cast<int64_t>(Snapshots()))
      .KV("pages_dblife", EnvInt("DELEX_PAGES_DBLIFE", 250))
      .KV("pages_wiki", EnvInt("DELEX_PAGES_WIKI", 180))
      .KV("fast_path", FastPath())
      .KV("shards", static_cast<int64_t>(Shards()))
      .EndObject();
  return json.str();
}

/// Whole-process peak RSS (getrusage high-water, via obs); benches stamp
/// it into their JSON document so the perf gate can regress memory too.
inline int64_t PeakRssBytes() {
  return obs::CollectResourceUsage().peak_rss_bytes;
}

/// Standard bench entry point. Parses `--stats-json <path>` (run-report
/// JSONL destination, same effect as DELEX_STATS_JSON), starts the trace
/// recorder if DELEX_TRACE is set, and — unless `print_meta_line` is false
/// (JSON-document benches, which embed MetaJson() instead) — prints the
/// shared metadata header line.
inline void BenchInit(int& argc, char** argv, bool print_meta_line = true) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      SetStatsJsonPath(argv[i + 1]);
      ++i;  // consume the flag and its value (argv is compacted so later
            // parsers — e.g. google-benchmark's — never see them)
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  obs::MaybeStartTraceFromEnv();
  if (print_meta_line) {
    std::printf("{\"bench_meta\": %s}\n\n", MetaJson().c_str());
  }
}

/// Fresh scratch directory for reuse files.
inline std::string WorkDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("delex-bench-" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Generates the series for a program at bench scale.
inline std::vector<Snapshot> SeriesFor(const ProgramSpec& spec,
                                       int snapshots = 0, int pages = 0) {
  DatasetProfile profile = spec.Profile();
  profile.num_sources = pages > 0 ? pages : PagesFor(spec);
  return GenerateSeries(profile, snapshots > 0 ? snapshots : Snapshots(),
                        Seed());
}

/// Loads a program or dies with a message (benches have no error channel).
inline ProgramSpec MustProgram(const std::string& name) {
  auto spec = MakeProgram(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "MakeProgram(%s): %s\n", name.c_str(),
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(spec).ValueOrDie();
}

/// Runs a solution over a series or dies.
inline SeriesRun MustRun(Solution* solution,
                         const std::vector<Snapshot>& series,
                         bool keep_results = false) {
  auto run = RunSeries(solution, series, keep_results);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", solution->Name().c_str(),
                 run.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(run).ValueOrDie();
}

/// The standard four-solution lineup of §8.
struct Lineup {
  std::unique_ptr<Solution> no_reuse;
  std::unique_ptr<Solution> shortcut;
  std::unique_ptr<Solution> cyclex;
  std::unique_ptr<Solution> delex;

  std::vector<Solution*> All() const {
    return {no_reuse.get(), shortcut.get(), cyclex.get(), delex.get()};
  }
};

inline Lineup MakeLineup(const ProgramSpec& spec, const std::string& tag) {
  Lineup lineup;
  lineup.no_reuse = MakeNoReuseSolution(spec);
  lineup.shortcut = MakeShortcutSolution(spec);
  std::string work = WorkDir(tag);
  lineup.cyclex = MakeCyclexSolution(spec, work + "/cyclex", Threads());
  DelexSolutionOptions delex_options;
  delex_options.num_threads = Threads();
  delex_options.disable_page_fast_path = !FastPath();
  delex_options.num_shards = Shards();
  lineup.delex = MakeDelexSolution(spec, work + "/delex", delex_options);
  return lineup;
}

}  // namespace bench
}  // namespace delex

#endif  // DELEX_BENCH_BENCH_UTIL_H_
