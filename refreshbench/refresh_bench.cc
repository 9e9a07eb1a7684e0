// refresh_bench: the closed-loop "daily recrawl" client behind run.py.
//
// One process per step, so that the generator and the reference never set
// the measured process's peak RSS:
//
//   refresh_bench gen --profile dblife|wikipedia|synthetic --pages N
//                     --seed S --count K --out DIR
//       Writes the seeded series DIR/snap-0000.rec .. snap-<K-1>.rec.
//   refresh_bench run --program P --snapshots DIR --count K --work DIR
//                     --threads T --shards H --plan optimizer|ST
//                     --setups R --seconds S --trace 0|1 --out FILE
//                     [--tamper GEN]
//       Sets the system up R times on snapshot 0 (the cold first crawl),
//       then refreshes snapshots 1, 2, ... until S seconds have passed or
//       the series ends. Writes per-generation timings, counters and
//       result digests to FILE as JSON.
//   refresh_bench ref --program P --snapshots DIR --count K --threads T
//                     --out FILE
//       From-scratch reference digests for snapshots 0..K-1.
//   refresh_bench info
//       Build type, SIMD tier and hardware concurrency, as JSON.
//
// Only public entry points are used: MakeDelexSolution, Solution's
// RunSnapshot / DescribeRun / LastAssignment, RunStats, Read/WriteSnapshot,
// CorpusGenerator, obs::CollectResourceUsage and the baseline runners.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/runners.h"
#include "common/hash.h"
#include "common/simd.h"
#include "common/value.h"
#include "corpus/generator.h"
#include "delex/ie_unit.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "obs/mem.h"
#include "storage/snapshot.h"

#ifndef DELEX_BUILD_TYPE
#define DELEX_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace delex {
namespace {

// ---------------------------------------------------------------- helpers

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "refresh_bench: %s\n", message.c_str());
  std::exit(2);
}

/// Flag parser: every flag takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad flag " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const {
    return std::strtoll(Str(key).c_str(), nullptr, 10);
  }
  int64_t Int(const std::string& key, int64_t fallback) const {
    return values_.count(key) ? Int(key) : fallback;
  }
  double Double(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (all threads), in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string SnapshotPath(const std::string& dir, int64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/snap-%04" PRId64 ".rec", index);
  return dir + name;
}

ProgramSpec MustMakeProgram(const std::string& name) {
  Result<ProgramSpec> spec = MakeProgram(name);
  if (!spec.ok()) Die(spec.status().ToString());
  return std::move(spec).ValueOrDie();
}

Snapshot MustReadSnapshot(const std::string& path, IoStats* io) {
  Result<Snapshot> snapshot = ReadSnapshot(path, io);
  if (!snapshot.ok()) Die(path + ": " + snapshot.status().ToString());
  return std::move(snapshot).ValueOrDie();
}

/// Order-independent digest of a result multiset: canonical order, then two
/// FNV-1a passes over the encoded tuples, plus the row count.
std::string Digest(std::vector<Tuple> rows) {
  rows = Canonicalize(std::move(rows));
  std::string bytes;
  for (const Tuple& row : rows) EncodeTuple(row, &bytes);
  char out[64];
  std::snprintf(out, sizeof(out), "%016" PRIx64 "%016" PRIx64 ":%zu",
                Fnv1a64(bytes), Fnv1a64(bytes, 0x9E3779B97F4A7C15ULL),
                rows.size());
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Appends `"key": value` pairs to a JSON object under construction.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\n  " : "") + items[i];
  }
  return out + "]";
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  if (!out) Die("cannot write " + path);
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

// ---------------------------------------------------------------- gen

int Generate(const Args& args) {
  const std::string name = args.Str("profile");
  DatasetProfile profile;
  if (name == "dblife") {
    profile = DatasetProfile::DBLife();
  } else if (name == "wikipedia") {
    profile = DatasetProfile::Wikipedia();
  } else if (name == "synthetic") {
    profile = DatasetProfile::Synthetic1M();
  } else {
    Die("unknown profile " + name);
  }
  profile.num_sources = static_cast<int>(args.Int("pages"));
  const int64_t count = args.Int("count");
  const std::string out = args.Str("out");
  std::filesystem::create_directories(out);
  CorpusGenerator generator(profile, static_cast<uint64_t>(args.Int("seed")));
  // Rolling prev/cur window: the whole series is never in memory.
  Snapshot previous = generator.Initial();
  for (int64_t i = 0; i < count; ++i) {
    if (i > 0) {
      Snapshot next = generator.Evolve(previous);
      previous = std::move(next);
    }
    Status written = WriteSnapshot(previous, SnapshotPath(out, i));
    if (!written.ok()) Die(written.ToString());
  }
  return 0;
}

// ---------------------------------------------------------------- run

/// Spans recorded by the benchmark's own code around its calls into the
/// system; kept in memory and written with the run's output.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void Add(const char* name, const char* parent, int64_t refresh,
           int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back(JsonObject()
                         .Str("name", name)
                         .Str("parent", parent)
                         .Int("refresh", refresh)
                         .Int("start_ns", start_ns)
                         .Int("end_ns", end_ns)
                         .Done());
  }
  const std::vector<std::string>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<std::string> spans_;
};

struct Histograms {
  obs::LocalHistogram page_eval;
  obs::LocalHistogram match;
  obs::LocalHistogram extract;

  void Add(const RunStats& stats) {
    page_eval.MergeFrom(stats.page_eval_hist);
    for (const obs::LocalHistogram& h : stats.match_hist) match.MergeFrom(h);
    for (const UnitRunStats& unit : stats.units) {
      extract.MergeFrom(unit.extract_hist);
    }
  }

  static std::string Json(const obs::LocalHistogram& h) {
    return JsonObject()
        .Int("count", h.count())
        .Int("sum_us", h.sum())
        .Int("p50_us", h.count() ? h.Percentile(50) : 0)
        .Int("p90_us", h.count() ? h.Percentile(90) : 0)
        .Done();
  }
};

/// One generation's counters, flattened for run.py.
std::string StatsJson(const RunStats& stats) {
  UnitRunStats units;
  for (const UnitRunStats& unit : stats.units) units += unit;
  return JsonObject()
      .Int("pages", stats.pages)
      .Int("pages_identical", stats.pages_identical)
      .Int("result_tuples", stats.result_tuples)
      .Int("total_us", stats.phases.total_us)
      .Int("opt_us", stats.phases.opt_us)
      .Int("match_us", stats.phases.match_us)
      .Int("extract_us", stats.phases.extract_us)
      .Int("copy_us", stats.phases.copy_us)
      .Int("capture_us", stats.phases.capture_us)
      .Int("reuse_read_bytes", stats.reuse_read_io.bytes_read)
      .Int("reuse_write_bytes", stats.reuse_write_io.bytes_written)
      .Int("raw_bytes_copied", stats.raw_bytes_copied)
      .Int("corrupt_drops", stats.reuse_corrupt_drops)
      .Int("fast_path_demotions", stats.fast_path_demote_result_cache +
                                      stats.fast_path_demote_missing_group)
      .Int("matcher_calls", units.matcher_calls)
      .Int("exact_region_hits", units.exact_region_hits)
      .Int("chars_extracted", units.chars_extracted)
      .Int("copied_tuples", units.copied_tuples)
      .Int("extracted_tuples", units.extracted_tuples)
      .Int("page_eval_sum_us", stats.page_eval_hist.sum())
      .Done();
}

/// What DescribeRun reports about the last run: the cost model's
/// prediction and, for sharded runs, each shard's engine wall clock.
std::string DescribeJson(const Solution& solution) {
  obs::RunReportMeta meta;
  obs::OptimizerReport optimizer;
  solution.DescribeRun(&meta, &optimizer);
  std::vector<std::string> shard_us;
  for (const obs::RunReportMeta::ShardSummary& s : meta.shards) {
    shard_us.push_back(std::to_string(s.total_us));
  }
  return JsonObject()
      .Str("assignment", solution.LastAssignment())
      .Num("predicted_us", optimizer.predicted_total_us)
      .Raw("shard_us", JsonArray(shard_us))
      .Done();
}

/// Tamper hook for the self-test: alter one result row of generation
/// `tamper` before its digest is taken.
void MaybeTamper(int64_t generation, int64_t tamper, std::vector<Tuple>* rows) {
  if (generation != tamper) return;
  if (rows->empty()) {
    rows->push_back(Tuple{Value(std::string("tampered"))});
  } else {
    rows->front().push_back(Value(std::string("tampered")));
  }
}

int Run(const Args& args) {
  const std::string snapshots = args.Str("snapshots");
  const std::string work = args.Str("work");
  const int64_t count = args.Int("count");
  const int64_t setups = std::max<int64_t>(1, args.Int("setups"));
  const double seconds = args.Double("seconds");
  const int64_t tamper = args.Int("tamper", -1);
  SpanLog spans(args.Int("trace") != 0);

  ProgramSpec spec = MustMakeProgram(args.Str("program"));
  DelexSolutionOptions options;
  options.num_threads = static_cast<int>(args.Int("threads"));
  options.num_shards = static_cast<int>(args.Int("shards"));
  const std::string plan = args.Str("plan");
  if (plan == "ST") {
    Result<UnitAnalysis> analysis = AnalyzeUnits(spec.plan);
    if (!analysis.ok()) Die(analysis.status().ToString());
    options.forced_assignment =
        MatcherAssignment::Uniform(analysis->units.size(), MatcherKind::kST);
  } else if (plan != "optimizer") {
    Die("unknown plan " + plan);
  }

  // Two snapshot slots, alternated: the snapshot passed as `previous` is
  // the very object passed as `current` one refresh earlier, as in
  // RunSeries over a series vector.
  Snapshot slots[2];
  std::unique_ptr<Solution> solution;
  std::vector<std::string> setup_rows;
  for (int64_t r = 0; r < setups; ++r) {
    solution.reset();
    slots[0] = Snapshot();
    std::filesystem::remove_all(work);
    const int64_t start = NowNs();
    solution = MakeDelexSolution(spec, work, options);
    IoStats io;
    slots[0] = MustReadSnapshot(SnapshotPath(snapshots, 0), &io);
    RunStats stats;
    Result<std::vector<Tuple>> rows =
        solution->RunSnapshot(slots[0], nullptr, &stats);
    const int64_t end = NowNs();
    spans.Add("setup", "", -1 - r, start, end);
    JsonObject record;
    record.Num("setup_s", static_cast<double>(end - start) / 1e9)
        .Int("ingest_bytes", io.bytes_read);
    if (rows.ok()) {
      std::vector<Tuple> out = std::move(rows).ValueOrDie();
      MaybeTamper(0, tamper, &out);
      record.Str("digest", Digest(std::move(out)));
    } else {
      record.Str("error", rows.status().ToString());
    }
    setup_rows.push_back(record.Done());
  }

  Histograms hist;
  std::vector<std::string> refresh_rows;
  int64_t last_snapshot_bytes = 0;
  const int64_t loop_start = NowNs();
  for (int64_t k = 1; k < count; ++k) {
    if (k > 1 && static_cast<double>(NowNs() - loop_start) / 1e9 >= seconds) {
      break;
    }
    Snapshot& current = slots[k % 2];
    const Snapshot& previous = slots[(k - 1) % 2];
    current = Snapshot();  // free snapshot k-2 before the clock starts

    const double cpu_start = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    IoStats io;
    current = MustReadSnapshot(SnapshotPath(snapshots, k), &io);
    const int64_t t1 = NowNs();
    RunStats stats;
    Result<std::vector<Tuple>> rows =
        solution->RunSnapshot(current, &previous, &stats);
    const int64_t t2 = NowNs();
    const double cpu_end = ProcessCpuSeconds();

    // Both children are sized by the system's own clocks; whatever the
    // harness does inside RunSnapshot besides them stays uncovered.
    const int64_t engine_start = t1 + stats.phases.opt_us * 1000;
    const int64_t engine_end =
        engine_start + (stats.phases.total_us - stats.phases.opt_us) * 1000;
    spans.Add("refresh", "", k, t0, t2);
    spans.Add("ingest", "refresh", k, t0, t1);
    spans.Add("run_snapshot", "refresh", k, t1, t2);
    spans.Add("optimizer", "run_snapshot", k, t1, engine_start);
    spans.Add("engine", "run_snapshot", k, engine_start, engine_end);

    last_snapshot_bytes = io.bytes_read;
    JsonObject record;
    record.Int("index", k)
        .Num("ingest_s", static_cast<double>(t1 - t0) / 1e9)
        .Num("refresh_s", static_cast<double>(t2 - t0) / 1e9)
        .Num("cpu_s", cpu_end - cpu_start)
        .Int("ingest_bytes", io.bytes_read)
        .Raw("stats", StatsJson(stats))
        .Raw("describe", DescribeJson(*solution));
    if (rows.ok()) {
      hist.Add(stats);
      std::vector<Tuple> out = std::move(rows).ValueOrDie();
      MaybeTamper(k, tamper, &out);
      record.Str("digest", Digest(std::move(out)));
    } else {
      record.Str("error", rows.status().ToString());
    }
    refresh_rows.push_back(record.Done());
  }

  // Read before anything else allocates: the process high-water mark and
  // per-subsystem peaks belong to setup + refreshes only.
  const obs::ResourceUsage usage = obs::CollectResourceUsage();
  JsonObject tag_peaks;
  for (const obs::ResourceUsage::Subsystem& s : usage.subsystems) {
    tag_peaks.Int(s.tag, s.peak_bytes);
  }

  std::string out =
      JsonObject()
          .Int("threads", options.num_threads)
          .Int("shards", options.num_shards)
          .Raw("setups", JsonArray(setup_rows))
          .Raw("refreshes", JsonArray(refresh_rows))
          .Raw("histograms", JsonObject()
                                 .Raw("page_eval", Histograms::Json(hist.page_eval))
                                 .Raw("match", Histograms::Json(hist.match))
                                 .Raw("extract", Histograms::Json(hist.extract))
                                 .Done())
          .Raw("resources", JsonObject()
                                .Int("peak_rss_bytes", usage.peak_rss_bytes)
                                .Int("tracked_peak_bytes", usage.tracked_peak_bytes)
                                .Raw("tag_peak_bytes", tag_peaks.Done())
                                .Done())
          .Int("store_bytes", DirectoryBytes(work))
          .Int("last_snapshot_bytes", last_snapshot_bytes)
          .Raw("spans", JsonArray(spans.spans()))
          .Done();
  WriteFileOrDie(args.Str("out"), out);
  return 0;
}

// ---------------------------------------------------------------- ref

/// From-scratch reference with Shortcut's economy: a page whose bytes equal
/// its URL's previous version keeps that version's rows (page evaluation
/// reads only the page, so equal bytes give equal rows); every other page
/// runs through NoReuseRunner on its own, spread over `threads` workers.
/// Byte equality is checked here, not taken from the system's digests.
int Reference(const Args& args) {
  const std::string snapshots = args.Str("snapshots");
  const int64_t count = args.Int("count");
  const size_t threads =
      static_cast<size_t>(std::max<int64_t>(1, args.Int("threads")));
  const std::string program = args.Str("program");
  std::vector<ProgramSpec> specs;  // one plan per worker: nothing shared
  std::vector<NoReuseRunner> runners;
  for (size_t t = 0; t < threads; ++t) {
    specs.push_back(MustMakeProgram(program));
    runners.emplace_back(specs.back().plan);
  }
  struct Version {
    std::string content;
    std::vector<Tuple> rows;  // without the did prefix
  };
  std::unordered_map<std::string, Version> last;  // by URL
  std::vector<std::string> digests;
  for (int64_t k = 0; k < count; ++k) {
    Snapshot snapshot = MustReadSnapshot(SnapshotPath(snapshots, k), nullptr);
    std::vector<Page>& pages = snapshot.mutable_pages();
    std::vector<size_t> fresh;
    for (size_t i = 0; i < pages.size(); ++i) {
      auto it = last.find(pages[i].url);
      if (it == last.end() || it->second.content != pages[i].content) {
        fresh.push_back(i);
      }
    }
    std::vector<Result<std::vector<Tuple>>> fresh_rows(
        fresh.size(), Status::Internal("not run"));
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t j = cursor++; j < fresh.size(); j = cursor++) {
          Snapshot one;
          one.AddExistingPage(pages[fresh[j]]);
          fresh_rows[j] = runners[t].RunSnapshot(one, nullptr);
        }
      });
    }
    for (std::thread& w : workers) w.join();

    std::unordered_map<std::string, Version> next;
    std::vector<Tuple> rows;
    std::string error;
    for (size_t i = 0, f = 0; i < pages.size() && error.empty(); ++i) {
      Page& page = pages[i];
      Version version;
      if (f < fresh.size() && fresh[f] == i) {
        Result<std::vector<Tuple>>& result = fresh_rows[f++];
        if (!result.ok()) {
          error = result.status().ToString();
          break;
        }
        for (Tuple& row : result.ValueOrDie()) {
          rows.push_back(row);
          row.erase(row.begin());
          version.rows.push_back(std::move(row));
        }
      } else {
        version.rows = last[page.url].rows;
        for (const Tuple& row : version.rows) {
          Tuple with_did{Value(page.did)};
          with_did.insert(with_did.end(), row.begin(), row.end());
          rows.push_back(std::move(with_did));
        }
      }
      version.content = std::move(page.content);
      next[page.url] = std::move(version);
    }
    last = std::move(next);
    digests.push_back(error.empty() ? JsonString(Digest(std::move(rows)))
                                    : "null");
  }
  WriteFileOrDie(args.Str("out"),
                 JsonObject().Raw("digests", JsonArray(digests)).Done());
  return 0;
}

int Info() {
  std::printf("%s\n",
              JsonObject()
                  .Str("build_type", DELEX_BUILD_TYPE)
                  .Str("simd_tier", simd::LevelName(simd::ActiveLevel()))
                  .Int("hardware_concurrency",
                       static_cast<int64_t>(std::thread::hardware_concurrency()))
                  .Done()
                  .c_str());
  return 0;
}

/// The benchmark pins every setting itself: DELEX_* knobs from the
/// caller's environment (threads, shards, fast path, SIMD tier, paranoid
/// checks, tracing, profiling, report sinks, histograms, cost learning,
/// the lock-order detector) are removed before the system reads any.
void ClearDelexEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("DELEX_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

}  // namespace
}  // namespace delex

int main(int argc, char** argv) {
  delex::ClearDelexEnvironment();
  const std::string command = argc > 1 ? argv[1] : "";
  const delex::Args args(argc, argv, 2);
  if (command == "gen") return delex::Generate(args);
  if (command == "run") return delex::Run(args);
  if (command == "ref") return delex::Reference(args);
  if (command == "info") return delex::Info();
  std::fprintf(stderr, "usage: refresh_bench gen|run|ref|info --flag value ...\n");
  return 2;
}
