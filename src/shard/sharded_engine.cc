#include "shard/sharded_engine.h"

#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/value.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace delex {
namespace shard {

namespace {

/// Per-shard counters, named `base#shard=K`. These are resolved per run,
/// not cached in statics — the names are dynamic and a snapshot run
/// amortizes one map lookup over thousands of pages.
void PublishShardStats(int k, const RunStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string label = "#shard=" + std::to_string(k);
  reg.GetCounter("shard.pages" + label)->Increment(stats.pages);
  reg.GetCounter("shard.pages_identical" + label)
      ->Increment(stats.pages_identical);
  reg.GetCounter("shard.result_tuples" + label)
      ->Increment(stats.result_tuples);
  reg.GetCounter("shard.reuse_corrupt_drops" + label)
      ->Increment(stats.reuse_corrupt_drops);
  reg.GetCounter("shard.total_us" + label)->Increment(stats.phases.total_us);
}

}  // namespace

ShardedEngine::ShardedEngine(xlog::PlanNodePtr plan, Options options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

ShardedEngine::~ShardedEngine() = default;

std::string ShardedEngine::ShardWorkDir(int k) const {
  return options_.work_dir + "/shard" + std::to_string(k);
}

Status ShardedEngine::Init() {
  if (initialized_) return Status::InvalidArgument("engine already initialized");
  if (options_.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  int pool_width = options_.num_threads;
  if (pool_width <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    pool_width = hw > 0 ? static_cast<int>(hw) : 1;
  }
  pool_ = std::make_unique<ThreadPool>(pool_width);
  for (int k = 0; k < options_.num_shards; ++k) {
    DelexEngine::Options engine_options;
    engine_options.work_dir = ShardWorkDir(k);
    engine_options.shared_pool = pool_.get();
    engine_options.max_match_candidates = options_.max_match_candidates;
    engine_options.disable_exact_fast_path = options_.disable_exact_fast_path;
    engine_options.disable_page_fast_path = options_.disable_page_fast_path;
    engine_options.fold_unit_operators = options_.fold_unit_operators;
    auto engine = std::make_unique<DelexEngine>(plan_, engine_options);
    DELEX_RETURN_NOT_OK(engine->Init());
    shards_.push_back(std::move(engine));
  }
  DELEX_LOG(INFO) << "sharded engine initialized: " << options_.num_shards
                  << " shards, pool=" << pool_width
                  << " threads, work_dir=" << options_.work_dir;
  initialized_ = true;
  return Status::OK();
}

const UnitAnalysis& ShardedEngine::analysis() const {
  return shards_.front()->analysis();
}

size_t ShardedEngine::NumUnits() const {
  return shards_.front()->NumUnits();
}

int ShardedEngine::generation() const {
  return shards_.front()->generation();
}

Status ShardedEngine::Resume(int generation) {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  for (auto& engine : shards_) {
    DELEX_RETURN_NOT_OK(engine->Resume(generation));
  }
  return Status::OK();
}

Result<std::vector<Tuple>> ShardedEngine::RunSnapshot(
    const Snapshot& current, const Snapshot* previous,
    const MatcherAssignment& assignment, RunStats* stats) {
  std::vector<MatcherAssignment> assignments(
      static_cast<size_t>(options_.num_shards), assignment);
  return RunSnapshot(current, previous, assignments, stats, nullptr);
}

Result<std::vector<Tuple>> ShardedEngine::RunSnapshot(
    const Snapshot& current, const Snapshot* previous,
    const std::vector<MatcherAssignment>& assignments, RunStats* stats,
    ShardRunStats* shard_stats) {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  if (assignments.size() != static_cast<size_t>(options_.num_shards)) {
    return Status::InvalidArgument("one assignment per shard required");
  }
  const size_t n = static_cast<size_t>(options_.num_shards);
  DELEX_TRACE_SPAN("sharded_run_snapshot", generation());
  Stopwatch total_watch;

  // Route pages to shards: one index list per shard, no page copied.
  // `previous` is not routed: each shard looks its pages' previous
  // versions up in the whole previous snapshot (partition invariant 1).
  const std::vector<SnapshotView> routes =
      RouteSnapshot(current, options_.num_shards);
  obs::ScopedMemCharge route_mem(
      obs::MemTag::kShard,
      static_cast<int64_t>(current.NumPages() * sizeof(size_t)));

  // One driver thread per shard: drivers run the reader-prefetch and
  // ordered write-back stages (I/O-bound); all page evaluation funnels
  // into the one shared pool, which bounds compute at its width.
  std::vector<Result<std::vector<Tuple>>> shard_rows(
      n, Result<std::vector<Tuple>>(Status::Internal("shard never ran")));
  std::vector<RunStats> per_shard(n);
  std::vector<double> shard_seconds(n, 0.0);
  {
    std::vector<std::thread> drivers;
    drivers.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      drivers.emplace_back([this, k, &routes, previous, &assignments,
                            &shard_rows, &per_shard, &shard_seconds] {
        Stopwatch watch;
        shard_rows[k] = shards_[k]->RunSnapshot(routes[k], previous,
                                                assignments[k], &per_shard[k]);
        shard_seconds[k] = watch.ElapsedSeconds();
      });
    }
    for (std::thread& t : drivers) t.join();
  }
  for (size_t k = 0; k < n; ++k) {
    if (!shard_rows[k].ok()) {
      // Preserve the original status code (callers dispatch on it); the
      // failing shard's id goes to the log.
      DELEX_LOG(WARN) << "shard " << k << " failed: "
                      << shard_rows[k].status().ToString();
      return shard_rows[k].status();
    }
  }

  // Merge step, rows: re-interleave per-shard rows into global snapshot
  // page order. Each shard emits rows grouped by page, pages carry global
  // dids, so one cursor per shard reconstructs the exact unsharded row
  // order (byte-identical, not just set-equal).
  std::vector<std::vector<Tuple>> rows(n);
  for (size_t k = 0; k < n; ++k) {
    rows[k] = std::move(shard_rows[k]).ValueOrDie();
  }
  std::vector<size_t> cursor(n, 0);
  std::vector<Tuple> merged_rows;
  size_t total_rows = 0;
  for (const std::vector<Tuple>& r : rows) total_rows += r.size();
  // Shard-layer overhead accounting: during the merge both the per-shard
  // row vectors and the merged buffer exist (row payloads move, the
  // vector shells don't) — the transient that makes sharded peaks exceed
  // unsharded ones. Page text is never copied; it stays charged to
  // `snapshot`.
  std::vector<uint32_t> shard_of_page(current.NumPages());
  for (size_t k = 0; k < n; ++k) {
    for (size_t i : routes[k].indexes()) {
      shard_of_page[i] = static_cast<uint32_t>(k);
    }
  }
  obs::ScopedMemCharge merge_mem(
      obs::MemTag::kShard,
      static_cast<int64_t>(2 * total_rows * sizeof(Tuple) +
                           shard_of_page.size() * sizeof(uint32_t)));
  merged_rows.reserve(total_rows);
  for (size_t i = 0; i < current.NumPages(); ++i) {
    const Page& page = current.pages()[i];
    const size_t k = shard_of_page[i];
    while (cursor[k] < rows[k].size() &&
           std::get<int64_t>(rows[k][cursor[k]][0]) == page.did) {
      merged_rows.push_back(std::move(rows[k][cursor[k]]));
      ++cursor[k];
    }
  }
  for (size_t k = 0; k < n; ++k) {
    DELEX_CHECK_MSG(cursor[k] == rows[k].size(),
                    "shard merge left rows behind (did mismatch)");
  }

  // Merge step, stats: fold per-shard RunStats (unit counters, io,
  // fast-path tallies, histogram shards) into one view; phase components
  // sum across shards but total_us is this run's single wall clock, taken
  // once all of the run's work is done (below) — the overshoot of
  // concurrent shard time past it lands in phase_drift_us.
  if (stats != nullptr) {
    *stats = RunStats();
    for (size_t k = 0; k < n; ++k) {
      stats->MergeFrom(per_shard[k]);
      stats->phases.match_us += per_shard[k].phases.match_us;
      stats->phases.extract_us += per_shard[k].phases.extract_us;
      stats->phases.copy_us += per_shard[k].phases.copy_us;
      stats->phases.opt_us += per_shard[k].phases.opt_us;
      stats->phases.capture_us += per_shard[k].phases.capture_us;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    PublishShardStats(static_cast<int>(k), per_shard[k]);
  }
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("shard.merged.pages")
        ->Increment(static_cast<int64_t>(current.pages().size()));
    reg.GetCounter("shard.merged.result_tuples")
        ->Increment(static_cast<int64_t>(merged_rows.size()));
  }
  if (shard_stats != nullptr) {
    shard_stats->per_shard = std::move(per_shard);
    shard_stats->shard_seconds = std::move(shard_seconds);
  }
  if (stats != nullptr) {
    stats->phases.total_us = total_watch.ElapsedMicros();
    stats->phases.FinalizeDrift();
  }
  return merged_rows;
}

Status ShardedDifferentialOracle(const xlog::PlanNodePtr& plan,
                                 const std::vector<Snapshot>& series,
                                 const MatcherAssignment& assignment,
                                 const std::string& scratch_dir) {
  // Reference leg: unsharded, serial, fast path on.
  DelexEngine::Options ref_options;
  ref_options.work_dir = scratch_dir + "/oracle-unsharded";
  ref_options.num_threads = 1;
  DelexEngine reference(plan, ref_options);
  DELEX_RETURN_NOT_OK(reference.Init());
  std::vector<std::vector<Tuple>> expected;
  for (size_t i = 0; i < series.size(); ++i) {
    const Snapshot* prev = i == 0 ? nullptr : &series[i - 1];
    DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                           reference.RunSnapshot(series[i], prev, assignment,
                                                 nullptr));
    expected.push_back(std::move(rows));
  }

  struct Config {
    const char* tag;
    int num_shards;
    int num_threads;
  };
  const Config configs[] = {
      {"shards2", 2, 2},
      {"shards3", 3, 1},
  };
  for (const Config& config : configs) {
    ShardedEngine::Options options;
    options.work_dir = scratch_dir + "/oracle-" + config.tag;
    options.num_shards = config.num_shards;
    options.num_threads = config.num_threads;
    ShardedEngine engine(plan, options);
    DELEX_RETURN_NOT_OK(engine.Init());
    for (size_t i = 0; i < series.size(); ++i) {
      const Snapshot* prev = i == 0 ? nullptr : &series[i - 1];
      DELEX_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          engine.RunSnapshot(series[i], prev, assignment, nullptr));
      // Byte-identical, order included: the merge step promises the exact
      // unsharded row sequence, so compare without canonicalizing.
      if (rows.size() != expected[i].size()) {
        return Status::Corruption(
            std::string("sharded oracle: ") + config.tag + " snapshot " +
            std::to_string(i) + " row count " + std::to_string(rows.size()) +
            " != unsharded " + std::to_string(expected[i].size()));
      }
      for (size_t r = 0; r < rows.size(); ++r) {
        if (TupleLess(rows[r], expected[i][r]) ||
            TupleLess(expected[i][r], rows[r])) {
          return Status::Corruption(
              std::string("sharded oracle: ") + config.tag + " snapshot " +
              std::to_string(i) + " diverges from unsharded at row " +
              std::to_string(r));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace shard
}  // namespace delex
