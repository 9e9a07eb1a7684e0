// Sharded-engine scaling: pages/sec and p99 page latency over a
// (shards × pool-threads) grid on the Synthetic1M profile, emitted as
// machine-readable JSON for the perf-regression gate.
//
//   build/bench/bench_shard_scaling [> shard_scaling.json]
//
// The profile stresses page COUNT (1M short pages at full scale):
// per-page work is tiny, so the single engine's serial sections — the
// prefetch/submit driver loop and the ordered reuse-file write-back —
// dominate, and hash-partitioning into N shards (N independent driver +
// write-back streams feeding ONE shared worker pool) is what scales.
// Snapshots are generated in a rolling prev/cur window so memory stays
// bounded by two corpus copies regardless of series length.
//
// Scale knobs: DELEX_PAGES_SYN1M (pages per snapshot; default 2000 keeps
// CI fast — the profile's native scale is 1000000), DELEX_SNAPSHOTS,
// DELEX_SEED. The shard and thread grids are fixed — they ARE the
// experiment. `results_match` asserts the merged sharded output was
// byte-identical (same rows, same order) to the unsharded run at the
// same pool width; it is checked at every scale because it is the whole
// point of the partitioning invariants. `peak_bytes_per_page` divides the
// run's peak bytes of every MemTag, and of the RSS no tag accounts for, by
// the pages of one snapshot (informational, not gated).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "delex/ie_unit.h"
#include "obs/histogram.h"
#include "obs/mem.h"
#include "shard/sharded_engine.h"

namespace delex {
namespace bench {
namespace {

int Syn1MPages() { return static_cast<int>(EnvInt("DELEX_PAGES_SYN1M", 2000)); }

struct GridRun {
  double seconds = 0;          // consecutive snapshots 2..n, wall clock
  double p99_page_eval_us = 0; // merged across shards, last snapshot
  std::vector<std::vector<Tuple>> results;  // per consecutive snapshot
};

/// Runs the whole series at one (threads, shards) point, regenerating the
/// corpus in a rolling window (the generator is deterministic, so every
/// grid point sees the identical series).
GridRun RunGridPoint(const ProgramSpec& spec, size_t num_units, int threads,
                     int shards, int snapshots, bool keep_results) {
  shard::ShardedEngine::Options options;
  options.work_dir = WorkDir("shard-scaling-t" + std::to_string(threads) +
                             "-s" + std::to_string(shards));
  options.num_shards = shards;
  options.num_threads = threads;
  shard::ShardedEngine engine(spec.plan, options);
  Status init = engine.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "Init: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  // Pin a uniform ST plan: the optimizer's per-snapshot choices are
  // timing-dependent inputs; a fixed plan isolates the scheduling layer.
  std::vector<MatcherAssignment> assignments(
      static_cast<size_t>(shards),
      MatcherAssignment::Uniform(num_units, MatcherKind::kST));

  DatasetProfile profile = DatasetProfile::Synthetic1M();
  profile.num_sources = Syn1MPages();
  CorpusGenerator generator(profile, Seed());

  GridRun out;
  Snapshot previous;
  Snapshot current = generator.Initial();
  for (int i = 0; i < snapshots; ++i) {
    if (i > 0) {
      Snapshot next = generator.Evolve(current);
      previous = std::move(current);
      current = std::move(next);
    }
    RunStats stats;
    Stopwatch watch;
    auto rows = engine.RunSnapshot(current, i == 0 ? nullptr : &previous,
                                   assignments, &stats, nullptr);
    double seconds = watch.ElapsedSeconds();
    if (!rows.ok()) {
      std::fprintf(stderr, "RunSnapshot(t=%d,s=%d): %s\n", threads, shards,
                   rows.status().ToString().c_str());
      std::exit(1);
    }
    if (i == 0) continue;  // capture-only warm-up, uncounted as in §8
    out.seconds += seconds;
    out.p99_page_eval_us = stats.page_eval_hist.Percentile(99);
    if (keep_results) out.results.push_back(std::move(rows).ValueOrDie());
  }
  return out;
}

/// Exact (order-sensitive) equality: the merge contract is byte-identical
/// output, so canonicalizing before comparing would hide bugs.
bool ExactMatch(const std::vector<std::vector<Tuple>>& a,
                const std::vector<std::vector<Tuple>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (TupleLess(a[i][j], b[i][j]) || TupleLess(b[i][j], a[i][j])) {
        return false;
      }
    }
  }
  return true;
}

void Main() {
  ProgramSpec spec = MustProgram("chair");
  auto analysis = AnalyzeUnits(spec.plan);
  if (!analysis.ok()) {
    std::fprintf(stderr, "AnalyzeUnits: %s\n",
                 analysis.status().ToString().c_str());
    std::exit(1);
  }
  const size_t num_units = analysis->units.size();
  const int pages = Syn1MPages();
  const int snapshots = Snapshots();
  const double timed_pages =
      static_cast<double>(pages) * static_cast<double>(snapshots - 1);

  std::printf("{\n  \"bench\": \"shard_scaling\",\n"
              "  \"meta\": %s,\n"
              "  \"profile\": \"Synthetic1M\",\n"
              "  \"pages\": %d,\n  \"snapshots\": %d,\n  \"grid\": [\n",
              MetaJson().c_str(), pages, snapshots);
  bool first = true;
  for (int threads : {2, 8}) {
    GridRun unsharded;  // shards == 1 reference at this pool width
    for (int shards : {1, 2, 4, 8}) {
      GridRun run = RunGridPoint(spec, num_units, threads, shards, snapshots,
                                 /*keep_results=*/true);
      bool match = true;
      if (shards == 1) {
        unsharded = std::move(run);
      } else {
        match = ExactMatch(unsharded.results, run.results);
      }
      const GridRun& row = shards == 1 ? unsharded : run;
      double baseline = unsharded.seconds;
      std::printf("%s    {\"threads\": %d, \"shards\": %d, "
                  "\"seconds\": %.4f, \"pages_per_sec\": %.1f, "
                  "\"p99_page_eval_us\": %.1f, \"speedup_vs_1shard\": %.3f, "
                  "\"results_match\": %s}",
                  first ? "" : ",\n", threads, shards, row.seconds,
                  row.seconds > 0 ? timed_pages / row.seconds : 0,
                  row.p99_page_eval_us,
                  row.seconds > 0 ? baseline / row.seconds : 0,
                  match ? "true" : "false");
      first = false;
      std::fflush(stdout);
    }
  }
  // Peak bytes per page of one snapshot, over the whole grid: each memory
  // tag (the text of the snapshots held at once, the pipeline ring, the
  // shard layer's own state, ...) and the RSS that no tag accounts for.
  const obs::ResourceUsage usage = obs::CollectResourceUsage();
  auto per_page = [pages](int64_t bytes) {
    return pages > 0 ? static_cast<double>(bytes) / pages : 0.0;
  };
  std::printf("\n  ],\n  \"peak_rss_bytes\": %lld,\n  \"peak_bytes_per_page\": {",
              static_cast<long long>(usage.peak_rss_bytes));
  for (const obs::ResourceUsage::Subsystem& sub : usage.subsystems) {
    std::printf("\"%s\": %.1f, ", sub.tag.c_str(), per_page(sub.peak_bytes));
  }
  std::printf("\"untracked\": %.1f}\n}\n",
              per_page(usage.peak_rss_bytes - usage.tracked_peak_bytes));
}

}  // namespace
}  // namespace bench
}  // namespace delex

int main(int argc, char** argv) {
  // Meta is embedded in the JSON document, not printed as a header line.
  delex::bench::BenchInit(argc, argv, /*print_meta_line=*/false);
  delex::bench::Main();
  return 0;
}
