#include "delex/engine.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "delex/paranoid.h"
#include "delex/region_derivation.h"
#include "text/suffix_matcher.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace delex {

namespace {

/// Fast-path demotion counters: each names one reason an identical page
/// fell back a tier (see DelexEngine::PrefetchSlot). Knowing *where*
/// reuse is lost is the optimization signal the observability layer
/// exists to surface; every run report snapshots these.
obs::Counter* DemoteResultCacheCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "engine.fast_path.demote_result_cache");
  return counter;
}
obs::Counter* DemoteMissingGroupCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "engine.fast_path.demote_missing_group");
  return counter;
}
obs::Counter* DecodeCopyGroupCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "engine.fast_path.decode_copy_groups");
  return counter;
}
obs::Counter* ReuseCorruptDropCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "engine.reuse.corrupt_drops");
  return counter;
}

/// Process-wide latency series (observability layer 2). Hot per-sample
/// recording goes into the per-page RunStats shards; these registry
/// histograms take one bulk MergeFrom per run (plus per-page samples for
/// the two pipeline-stage timers below). All pointers are resolved once —
/// GetHistogram takes a mutex-guarded map lookup.
obs::Histogram* PageEvalHistogram() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("engine.page_eval_us");
  return hist;
}
obs::Histogram* ExtractHistogram() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("engine.extract_us");
  return hist;
}
obs::Histogram* PrefetchIoHistogram() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("io.prefetch_us");
  return hist;
}
obs::Histogram* CommitIoHistogram() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("io.commit_us");
  return hist;
}
obs::Histogram* MatchHistogram(MatcherKind kind) {
  static obs::Histogram* const hists[kNumMatcherKinds] = {
      obs::MetricsRegistry::Global().GetHistogram("matcher.dn.match_us"),
      obs::MetricsRegistry::Global().GetHistogram("matcher.ud.match_us"),
      obs::MetricsRegistry::Global().GetHistogram("matcher.st.match_us"),
      obs::MetricsRegistry::Global().GetHistogram("matcher.ru.match_us"),
  };
  return hists[static_cast<size_t>(kind)];
}

}  // namespace

using xlog::PlanKind;
using xlog::PlanNode;
using xlog::PlanNodePtr;

/// One IE unit's slice of the previous generation for one page pair,
/// pre-fetched by the reader stage (which owns the strictly-forward §5.2
/// scan) so workers never touch the readers.
struct DelexEngine::PageReuse {
  std::vector<InputTupleRec> inputs;
  std::vector<OutputTupleRec> outputs;
};

/// Per-page evaluation state, and the IE hook of the page's plan walk: each
/// IE node is its unit's EvalUnit. Everything a page mutates lives here (or
/// in the structures it points to), which is what makes EvalPage const and
/// pages safe to evaluate concurrently.
struct DelexEngine::PageContext final : xlog::IEHook {
  Status EvalIE(const PlanNode& node, const Page& /*page*/,
                const std::vector<Tuple>& inputs,
                const std::vector<xlog::RegionGroup>& groups,
                std::vector<std::vector<Tuple>>* outputs) override {
    auto it = engine->analysis_.unit_of_member.find(node.id);
    DELEX_CHECK(it != engine->analysis_.unit_of_member.end());
    return engine->EvalUnit(
        engine->analysis_.units[static_cast<size_t>(it->second)], inputs,
        groups, this, outputs);
  }

  const DelexEngine* engine = nullptr;
  const Page* page = nullptr;     // current page p
  const Page* q_page = nullptr;   // previous version q, or null
  MatchContext match_ctx;         // RU's shared match cache for this pair
  const std::vector<PageReuse>* reuse = nullptr;  // per unit; null w/o q
  std::vector<PageCapture>* captures = nullptr;   // per unit, page-private
  RunStats* stats = nullptr;                      // per-page stats shard
};

/// One page's place in the pipeline: reader-stage prefetch in, worker
/// results out, consumed by the ordered write-back stage and the final
/// result/stats assembly.
struct DelexEngine::PageSlot {
  const Page* page = nullptr;
  const Page* q_page = nullptr;
  std::vector<PageReuse> reuse;       // filled by the reader stage
  std::vector<PageCapture> captures;  // filled by the worker
  RunStats stats;                     // per-page shard (incl. unit timers)
  std::vector<Tuple> rows;            // did-prefixed result tuples
  bool done = false;                  // guarded by RunState::mu

  // Whole-page fast path (content byte-identical to q_page): set at slot
  // layout, cleared by PrefetchSlot if any required previous-generation
  // piece is missing. Fast-path slots never reach EvalPage — rows are
  // recovered from the result cache and reuse records relocate as raw
  // slices (or, per unit, as decode-copied captures when the unit's index
  // entry failed validation).
  bool identical = false;
  std::vector<RawPageSlice> raw_slices;  // per unit; meaningful when valid
  std::vector<char> raw_valid;           // per unit: commit slice raw?
  ResultPageSlice result_slice;          // cached rows, still encoded
};

/// Shared commit state of one run: a page's task (or the reader, for a
/// fast-path page) marks its slot done, and whichever thread finds the
/// front of the snapshot order done commits it. Task completion itself is
/// the TaskGroup's business.
struct DelexEngine::RunState {
  RunState() : commit_mu("engine.run.commit_mu"), mu("engine.run.mu") {}

  // Canonical order: commit_mu before mu — the committer peeks at done
  // flags (mu) while serializing write-back (commit_mu); nothing ever
  // takes commit_mu while holding mu.
  Mutex commit_mu DELEX_ACQUIRED_BEFORE(mu);
  Mutex mu;  // guards done flags, next_commit, error
  size_t next_commit DELEX_GUARDED_BY(mu) = 0;  // first page index not committed
  Status error DELEX_GUARDED_BY(mu);            // first evaluation/commit failure
};

DelexEngine::DelexEngine(xlog::PlanNodePtr plan, Options options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

Status DelexEngine::Init() {
  if (initialized_) return Status::InvalidArgument("engine already initialized");
  DELEX_ASSIGN_OR_RETURN(analysis_,
                         AnalyzeUnits(plan_, options_.fold_unit_operators));
  if (analysis_.units.empty()) {
    return Status::InvalidArgument("plan contains no IE units");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    return Status::IOError("cannot create work dir " + options_.work_dir);
  }
  if (!options_.trace_path.empty() &&
      !obs::TraceRecorder::Global().started()) {
    Status st = obs::TraceRecorder::Global().Start(options_.trace_path);
    if (!st.ok()) {
      DELEX_LOG(WARN) << "trace_path: " << st.ToString();
    }
  }
  // DELEX_TRACE works for any engine-embedding binary (examples, tests)
  // without per-main wiring; a no-op if a session is already recording.
  obs::MaybeStartTraceFromEnv();
  // Same deal for the metrics exposition knobs (DELEX_METRICS_PORT,
  // DELEX_METRICS_SNAPSHOT_MS): any engine-embedding binary is scrapeable.
  obs::MaybeStartExportersFromEnv();
  DELEX_LOG(INFO) << "engine initialized: " << analysis_.units.size()
                  << " IE units, work_dir=" << options_.work_dir;
  initialized_ = true;
  return Status::OK();
}

Status DelexEngine::Resume(int generation) {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  if (generation_ != 0) {
    return Status::InvalidArgument("engine has already run in this process");
  }
  if (generation <= 0) return Status::InvalidArgument("generation must be > 0");
  for (size_t u = 0; u < analysis_.units.size(); ++u) {
    std::string prefix = ReusePathPrefix(static_cast<int>(u), generation - 1);
    std::error_code ec;
    if (!std::filesystem::exists(prefix + ".in", ec) ||
        !std::filesystem::exists(prefix + ".out", ec)) {
      return Status::NotFound("no reuse files for generation " +
                              std::to_string(generation - 1) + " under " +
                              options_.work_dir);
    }
  }
  generation_ = generation;
  return Status::OK();
}

std::string DelexEngine::ReusePathPrefix(int unit_index, int generation) const {
  return options_.work_dir + "/unit" + std::to_string(unit_index) + ".gen" +
         std::to_string(generation);
}

std::string DelexEngine::ResultCachePath(int generation) const {
  return options_.work_dir + "/results.gen" + std::to_string(generation);
}

int DelexEngine::EffectiveThreads() const {
  if (options_.shared_pool != nullptr) {
    return options_.shared_pool->num_threads();
  }
  if (options_.num_threads > 0) return options_.num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void DelexEngine::DropCorruptReader(size_t u, const Status& cause,
                                    RunStats* stats) {
  DELEX_LOG(WARN) << "dropping unit " << u
                  << " reuse reader (pages re-extract from scratch): "
                  << cause.ToString();
  ReuseCorruptDropCounter()->Increment();
  if (stats != nullptr) ++stats->reuse_corrupt_drops;
  reader_ok_[u] = 0;
}

Status DelexEngine::PrefetchPageReuse(int64_t q_did,
                                      std::vector<PageReuse>* reuse,
                                      RunStats* stats) {
  reuse->resize(analysis_.units.size());
  for (size_t u = 0; u < analysis_.units.size(); ++u) {
    PageReuse& unit_reuse = (*reuse)[u];
    unit_reuse.inputs.clear();
    unit_reuse.outputs.clear();
    if (reader_ok_[u] == 0) continue;
    Status st =
        readers_[u]->SeekPage(q_did, &unit_reuse.inputs, &unit_reuse.outputs);
    if (!st.ok()) {
      // Corrupt or truncated previous-generation bytes: the scan position
      // is no longer trustworthy, so drop the whole reader rather than
      // guess at record boundaries. Reuse degrades; results don't.
      DropCorruptReader(u, st, stats);
      unit_reuse.inputs.clear();
      unit_reuse.outputs.clear();
      continue;
    }
    if (paranoid::Enabled()) {
      paranoid::CheckPageGroupOrdinals(q_did, unit_reuse.inputs,
                                       unit_reuse.outputs);
    }
  }
  return Status::OK();
}

Status DelexEngine::PrefetchSlot(PageSlot* slot) {
  DELEX_TRACE_SPAN("prefetch_page", slot->page->did);
  // Reuse + result-cache read latency for this page (reader stage).
  obs::ScopedLatencyTimer io_timer(nullptr, PrefetchIoHistogram());
  const size_t num_units = analysis_.units.size();
  // The result-cache reader can be dropped mid-run (corrupt bytes below),
  // after slots were laid out with identical=true: such slots demote here.
  if (slot->identical && result_reader_ == nullptr) {
    ++slot->stats.fast_path_demote_result_cache;
    DemoteResultCacheCounter()->Increment();
    slot->identical = false;
  }
  if (slot->identical) {
    // Result rows first: without them the page must fully evaluate, and
    // demoting before any unit reader has advanced keeps every unit's
    // group available to the normal decoded prefetch below.
    bool found = false;
    Status read = result_reader_->ReadPage(slot->q_page->did,
                                           &slot->result_slice, &found);
    if (!read.ok()) {
      // Corrupt cache: its forward-scan position is untrustworthy from
      // here on, so drop it for the rest of the run. All remaining
      // identical pages evaluate normally — degrade, never miscompute.
      DELEX_LOG(WARN) << "dropping result cache (corrupt): "
                      << read.ToString();
      ReuseCorruptDropCounter()->Increment();
      ++slot->stats.reuse_corrupt_drops;
      result_reader_.reset();
      found = false;
    }
    if (found) {
      Status decoded =
          DecodeResultSlice(slot->result_slice, slot->page->did, &slot->rows);
      if (!decoded.ok()) found = false;
    }
    if (!found) {
      DemoteResultCacheCounter()->Increment();
      ++slot->stats.fast_path_demote_result_cache;
      DELEX_LOG(DEBUG) << "fast path demoted (result cache miss) did="
                       << slot->page->did;
      slot->identical = false;
      slot->rows.clear();
    }
  }
  if (slot->identical) {
    slot->raw_slices.resize(num_units);
    slot->raw_valid.assign(num_units, 0);
    for (size_t u = 0; u < num_units; ++u) {
      bool found = false;
      bool index_valid = false;
      if (reader_ok_[u] != 0) {
        Status st = readers_[u]->ReadPageRaw(slot->q_page->did,
                                             slot->q_page->content_hash,
                                             &slot->raw_slices[u], &found,
                                             &index_valid);
        if (!st.ok()) {
          DropCorruptReader(u, st, &slot->stats);
          found = false;
        }
      }
      if (!found) {
        // The old generation has no group for this page (work dir out of
        // step with the corpus). Demote to full evaluation; units whose
        // groups were already consumed above simply extract from scratch.
        DemoteMissingGroupCounter()->Increment();
        ++slot->stats.fast_path_demote_missing_group;
        DELEX_LOG(DEBUG) << "fast path demoted (missing reuse group) did="
                         << slot->page->did << " unit=" << u;
        slot->identical = false;
        slot->rows.clear();
        slot->raw_valid.assign(num_units, 0);
        for (PageCapture& capture : slot->captures) capture.groups.clear();
        break;
      }
      if (index_valid) {
        slot->raw_valid[u] = 1;
      } else {
        // Decode-copy tier: the index entry was missing or failed
        // validation, so the slice can't be trusted for a byte-range copy
        // — but its records decode fine, and an identical page's capture
        // IS its old records.
        DecodeCopyGroupCounter()->Increment();
        ++slot->stats.fast_path_decode_copy_groups;
        DELEX_RETURN_NOT_OK(
            CaptureFromRawSlice(slot->raw_slices[u], &slot->captures[u]));
      }
    }
  }
  if (!slot->identical && slot->q_page != nullptr) {
    DELEX_RETURN_NOT_OK(
        PrefetchPageReuse(slot->q_page->did, &slot->reuse, &slot->stats));
  }
  return Status::OK();
}

Result<std::vector<Tuple>> DelexEngine::EvalPage(PageContext* page_ctx) const {
  const Page& page = *page_ctx->page;
  DELEX_TRACE_SPAN("eval_page", page.did);
  // Whole-page eval latency into this page's single-writer shard; the
  // run merges shards into the engine.page_eval_us registry histogram.
  obs::ScopedLatencyTimer eval_timer(&page_ctx->stats->page_eval_hist);
  DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> page_rows,
                         xlog::WalkPlan(*plan_, page, page_ctx));
  std::vector<Tuple> rows;
  rows.reserve(page_rows.size());
  for (Tuple& row : page_rows) {
    Tuple with_did;
    with_did.reserve(row.size() + 1);
    with_did.push_back(page.did);
    for (Value& v : row) with_did.push_back(std::move(v));
    rows.push_back(std::move(with_did));
  }
  return rows;
}

Status DelexEngine::CommitPage(PageSlot* slot) {
  const int64_t did = slot->page->did;
  DELEX_TRACE_SPAN("commit_page", did);
  // Reuse + result-cache write latency for this page (write-back stage).
  obs::ScopedLatencyTimer io_timer(nullptr, CommitIoHistogram());
  for (size_t u = 0; u < writers_.size(); ++u) {
    ScopedTimer capture_timer(&slot->stats.units[u].capture_us);
    if (slot->identical && slot->raw_valid[u] != 0) {
      const RawPageSlice& raw = slot->raw_slices[u];
      if (paranoid::Enabled()) paranoid::CheckRawSlice(raw);
      DELEX_RETURN_NOT_OK(writers_[u]->CommitPageRaw(did, raw));
      slot->stats.raw_bytes_copied += raw.TotalBytes();
      slot->stats.records_decoded_skipped += raw.n_inputs + raw.n_outputs;
    } else {
      DELEX_RETURN_NOT_OK(writers_[u]->CommitPage(
          did, slot->page->content_hash, slot->captures[u]));
    }
  }
  if (slot->identical) {
    slot->stats.pages_identical = 1;
    // The cached rows were decoded once to recover this page's results;
    // their bytes still relocate verbatim into the new cache.
    DELEX_RETURN_NOT_OK(result_writer_->CommitPageRaw(did, slot->result_slice));
    slot->stats.raw_bytes_copied +=
        static_cast<int64_t>(slot->result_slice.bytes.size());
  } else {
    DELEX_RETURN_NOT_OK(result_writer_->CommitPage(did, slot->rows));
  }
  slot->captures.clear();  // free buffered records as the pipeline drains
  slot->raw_slices.clear();
  slot->result_slice.bytes.clear();
  return Status::OK();
}

Status DelexEngine::RunPages(std::vector<PageSlot>* slots) {
  RunState state;
  // Two-level scheduling: a caller-provided shared pool (sharded
  // execution) or a run-local one. Either way the reader and write-back
  // stages stay on this thread; only page evaluation goes to the pool.
  // With a shared pool, always go through it — even a 1-wide pool — so a
  // sharded run's total compute is bounded by the pool width rather than
  // by the number of engine driver threads. Otherwise width 1 (or a
  // single page) evaluates inline on this thread and starts no pool.
  const int num_threads = EffectiveThreads();
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options_.shared_pool;
  if (pool == nullptr && num_threads > 1 && slots->size() > 1) {
    owned_pool = std::make_unique<ThreadPool>(num_threads);
    pool = owned_pool.get();
  }

  // Commits every ready page at the front of the snapshot order. Any
  // finishing worker may become the committer; commit_mu serializes the
  // writers, mu orders the done-flag handoff.
  auto drain_commits = [this, &state, slots]() -> Status {
    MutexLock commit_lock(&state.commit_mu);
    for (;;) {
      PageSlot* slot = nullptr;
      {
        MutexLock lock(&state.mu);
        if (!state.error.ok() || state.next_commit >= slots->size() ||
            !(*slots)[state.next_commit].done) {
          return Status::OK();
        }
        slot = &(*slots)[state.next_commit];
      }
      Status st = CommitPage(slot);
      MutexLock lock(&state.mu);
      if (!st.ok()) {
        if (state.error.ok()) state.error = st;
        return st;
      }
      ++state.next_commit;
    }
  };

  Status prefetch_error;
  Status task_status;
  {
    // Bound on submitted-but-unfinished pages: keeps the reader stage a few
    // pages ahead of the workers without prefetching the whole previous
    // generation into memory. The group settles before `state` and the
    // slots it references go out of scope.
    TaskGroup tasks(pool, static_cast<size_t>(num_threads) * 2 + 2);
    for (PageSlot& slot : *slots) {
      {
        MutexLock lock(&state.mu);
        if (!state.error.ok()) break;
      }
      // Reader stage: one strictly-forward scan per reuse file, kept on
      // this thread and in snapshot page order (§5.2).
      prefetch_error = PrefetchSlot(&slot);
      if (!prefetch_error.ok()) break;
      if (slot.identical) {
        // Fast-path pages bypass the worker stage: rows are already
        // recovered and nothing needs evaluating, but the commit still
        // must land in snapshot order, so mark the slot done and drain
        // from here (the reader thread). An error lands in state.error.
        {
          MutexLock lock(&state.mu);
          slot.done = true;
        }
        (void)drain_commits();
        continue;
      }
      tasks.Submit([this, slot = &slot, &state, &drain_commits]() -> Status {
        PageContext page_ctx;
        page_ctx.engine = this;
        page_ctx.page = slot->page;
        page_ctx.q_page = slot->q_page;
        page_ctx.reuse = slot->q_page != nullptr ? &slot->reuse : nullptr;
        page_ctx.captures = &slot->captures;
        page_ctx.stats = &slot->stats;
        Result<std::vector<Tuple>> rows = EvalPage(&page_ctx);
        {
          MutexLock lock(&state.mu);
          if (rows.ok()) {
            slot->rows = std::move(rows).ValueOrDie();
            slot->done = true;
          } else if (state.error.ok()) {
            state.error = rows.status();
          }
        }
        return rows.ok() ? drain_commits() : rows.status();
      });
    }
    task_status = tasks.Wait();
  }
  DELEX_RETURN_NOT_OK(prefetch_error);
  DELEX_RETURN_NOT_OK(task_status);
  // Final drain: commits a trailing fast-path slot marked done after the
  // last worker's drain pass (the inline drain above normally commits it
  // already).
  DELEX_RETURN_NOT_OK(drain_commits());
  MutexLock lock(&state.mu);
  DELEX_RETURN_NOT_OK(state.error);
  DELEX_CHECK(state.next_commit == slots->size());
  return Status::OK();
}

Result<std::vector<Tuple>> DelexEngine::RunSnapshot(
    const SnapshotView& current, const Snapshot* previous,
    const MatcherAssignment& assignment, RunStats* stats) {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  if (previous != nullptr && generation_ == 0) {
    return Status::InvalidArgument(
        "previous snapshot supplied but no reuse files captured yet");
  }
  if (previous != nullptr &&
      assignment.per_unit.size() != analysis_.units.size()) {
    return Status::InvalidArgument("assignment size != number of IE units");
  }

  const size_t num_units = analysis_.units.size();
  RunStats local_stats;
  RunStats* out_stats = stats != nullptr ? stats : &local_stats;
  *out_stats = RunStats();
  out_stats->units.resize(num_units);
  assignment_ = &assignment;

  DELEX_TRACE_SPAN("run_snapshot", generation_);
  Stopwatch total_watch;

  // Open writers for this generation and readers over the previous one.
  writers_.clear();
  readers_.clear();
  reader_ok_.clear();
  for (size_t u = 0; u < num_units; ++u) {
    auto writer = std::make_unique<UnitReuseWriter>();
    DELEX_RETURN_NOT_OK(
        writer->Open(ReusePathPrefix(static_cast<int>(u), generation_)));
    writers_.push_back(std::move(writer));
    if (previous != nullptr) {
      auto reader = std::make_unique<UnitReuseReader>();
      Status opened =
          reader->Open(ReusePathPrefix(static_cast<int>(u), generation_ - 1));
      // A unit whose previous-generation files are missing or corrupt is
      // degraded (all its pages re-extract from scratch), never fatal:
      // untrusted bytes on disk must not be able to fail the run.
      readers_.push_back(std::move(reader));
      reader_ok_.push_back(opened.ok() ? 1 : 0);
      if (!opened.ok()) DropCorruptReader(u, opened, out_stats);
    }
  }
  result_writer_ = std::make_unique<ResultCacheWriter>();
  DELEX_RETURN_NOT_OK(result_writer_->Open(ResultCachePath(generation_)));
  result_reader_.reset();
  if (previous != nullptr && !options_.disable_page_fast_path) {
    auto reader = std::make_unique<ResultCacheReader>();
    // A missing or corrupt previous cache (e.g. a resumed work dir from an
    // older layout) just disables the fast path for this run.
    if (reader->Open(ResultCachePath(generation_ - 1)).ok()) {
      result_reader_ = std::move(reader);
    }
  }

  // Stage 0: lay out one slot per page, resolving each page's previous
  // version. Workers only ever touch their own slot.
  std::vector<PageSlot> slots(current.NumPages());
  for (size_t i = 0; i < current.NumPages(); ++i) {
    const Page& page = current.page(i);
    PageSlot& slot = slots[i];
    slot.page = &page;
    if (previous != nullptr) {
      if (auto idx = previous->FindByUrl(page.url)) {
        slot.q_page = &previous->pages()[*idx];
      }
    }
    slot.captures.resize(num_units);
    slot.stats.units.resize(num_units);
    slot.stats.pages = 1;
    if (slot.q_page != nullptr) slot.stats.pages_with_previous = 1;
    // Whole-page fast path: digests first (O(1) per pair), then a byte
    // compare so a digest collision can never relocate wrong records.
    if (slot.q_page != nullptr && result_reader_ != nullptr &&
        slot.q_page->content_hash == page.content_hash &&
        slot.q_page->content.size() == page.content.size() &&
        simd::BytesEqual(slot.q_page->content.data(), page.content.data(),
                         page.content.size())) {
      slot.identical = true;
    }
  }

  Status run_status = RunPages(&slots);
  if (!run_status.ok()) {
    writers_.clear();
    readers_.clear();
    result_writer_.reset();
    result_reader_.reset();
    assignment_ = nullptr;
    return run_status;
  }

  // Final assembly: results in snapshot page order, stats shards merged in
  // the same order (counter totals are order-independent; the fixed order
  // keeps the merge deterministic anyway).
  std::vector<Tuple> results;
  for (PageSlot& slot : slots) {
    for (Tuple& row : slot.rows) results.push_back(std::move(row));
    out_stats->MergeFrom(slot.stats);
  }

  for (auto& writer : writers_) {
    DELEX_RETURN_NOT_OK(writer->Close());
    out_stats->reuse_write_io += writer->CombinedStats();
  }
  for (auto& reader : readers_) {
    DELEX_RETURN_NOT_OK(reader->Close());
    out_stats->reuse_read_io += reader->CombinedStats();
  }
  DELEX_RETURN_NOT_OK(result_writer_->Close());
  out_stats->reuse_write_io += result_writer_->stats();
  if (result_reader_ != nullptr) {
    DELEX_RETURN_NOT_OK(result_reader_->Close());
    out_stats->reuse_read_io += result_reader_->stats();
  }

  // Drop the now-consumed previous generation.
  if (previous != nullptr) {
    for (size_t u = 0; u < num_units; ++u) {
      std::string prefix = ReusePathPrefix(static_cast<int>(u), generation_ - 1);
      std::error_code ec;
      std::filesystem::remove(prefix + ".in", ec);
      std::filesystem::remove(prefix + ".out", ec);
      std::filesystem::remove(prefix + ".idx", ec);
    }
    std::error_code ec;
    std::filesystem::remove(ResultCachePath(generation_ - 1), ec);
  }

  writers_.clear();
  readers_.clear();
  result_writer_.reset();
  result_reader_.reset();
  ++generation_;
  out_stats->result_tuples = static_cast<int64_t>(results.size());
  out_stats->phases.total_us = total_watch.ElapsedMicros();
  // Phase totals are derived purely from the merged per-page shards
  // (satisfying Fig 11's decomposition without any engine-global timer
  // that per-page code would have to race on).
  for (const UnitRunStats& u : out_stats->units) {
    out_stats->phases.match_us += u.match_us;
    out_stats->phases.extract_us += u.extract_us;
    out_stats->phases.copy_us += u.copy_us;
    out_stats->phases.capture_us += u.capture_us;
  }
  // Under parallel execution the per-phase timers (merged from concurrent
  // shards) can legitimately sum past the single wall clock; record the
  // overshoot instead of silently clamping it away in OthersUs().
  out_stats->phases.FinalizeDrift();
  // Fold this run's merged latency shards into the process-wide registry
  // histograms — one bulk add per run, nothing on the per-sample path.
  if (obs::HistogramsEnabled()) {
    PageEvalHistogram()->MergeFrom(out_stats->page_eval_hist);
    for (MatcherKind kind : kAllMatcherKinds) {
      MatchHistogram(kind)->MergeFrom(
          out_stats->match_hist[static_cast<size_t>(kind)]);
    }
    for (const UnitRunStats& u : out_stats->units) {
      ExtractHistogram()->MergeFrom(u.extract_hist);
    }
  }
  static obs::Gauge* generation_gauge =
      obs::MetricsRegistry::Global().GetGauge("engine.generation");
  generation_gauge->Set(generation_);
  // Bridge the text-layer truncation tally into the metrics registry
  // (delex_text cannot depend on obs) and WARN at most once per run.
  {
    static obs::Counter* truncated_counter =
        obs::MetricsRegistry::Global().GetCounter(
            "matcher.suffix.candidates_truncated");
    static std::atomic<int64_t> truncated_seen{0};
    int64_t truncated_total = SuffixCandidatesTruncatedTotal();
    int64_t truncated_delta =
        truncated_total -
        truncated_seen.exchange(truncated_total, std::memory_order_relaxed);
    if (truncated_delta > 0) {
      truncated_counter->Increment(truncated_delta);
      DELEX_LOG(WARN) << "suffix matcher truncated " << truncated_delta
                      << " candidate list(s) this run; raise "
                         "DELEX_SUFFIX_MAX_CANDIDATES if ST reuse looks thin";
    }
  }
  // Reuse-state corruption degrades silently to re-extraction (results
  // stay correct); surface it once so an operator notices without
  // scraping run reports.
  if (out_stats->reuse_corrupt_drops > 0) {
    static std::atomic<bool> corrupt_warned{false};
    if (!corrupt_warned.exchange(true, std::memory_order_relaxed)) {
      DELEX_LOG(WARN) << "dropped " << out_stats->reuse_corrupt_drops
                      << " corrupt previous-generation artifact(s) in gen "
                      << generation_
                      << "; affected pages re-extracted from scratch — "
                         "check the work dir's storage";
    }
  }
  DELEX_LOG(INFO) << "snapshot run done: gen=" << generation_
                  << " pages=" << out_stats->pages
                  << " identical=" << out_stats->pages_identical
                  << " tuples=" << out_stats->result_tuples
                  << " total_us=" << out_stats->phases.total_us;
  assignment_ = nullptr;
  return results;
}

Result<bool> DelexEngine::PassesFoldedChain(const IEUnit& unit,
                                            const Tuple& input_tuple,
                                            const Tuple& blackbox_output,
                                            std::string_view page_text) const {
  Tuple combined = input_tuple;
  combined.reserve(input_tuple.size() + blackbox_output.size());
  for (const Value& v : blackbox_output) combined.push_back(v);

  // chain[0] is the IE node itself (already applied); replay the folded
  // σ/π above it.
  for (size_t i = 1; i < unit.chain.size(); ++i) {
    const PlanNode& op = *unit.chain[i];
    if (op.kind == PlanKind::kSelect) {
      DELEX_ASSIGN_OR_RETURN(bool keep,
                             xlog::EvalSelect(op, combined, page_text));
      if (!keep) return false;
    } else {
      DELEX_CHECK(op.kind == PlanKind::kProject);
      Tuple projected;
      projected.reserve(op.columns.size());
      for (int c : op.columns) {
        projected.push_back(combined[static_cast<size_t>(c)]);
      }
      combined = std::move(projected);
    }
  }
  return true;
}

Status DelexEngine::EvalUnit(const IEUnit& unit,
                             const std::vector<Tuple>& inputs,
                             const std::vector<xlog::RegionGroup>& groups,
                             PageContext* page_ctx,
                             std::vector<std::vector<Tuple>>* outputs) const {
  DELEX_TRACE_SPAN("eval_unit", unit.index);
  const Page& page = *page_ctx->page;
  const Page* q_page = page_ctx->q_page;
  UnitRunStats& ustats =
      page_ctx->stats->units[static_cast<size_t>(unit.index)];
  PageCapture& capture =
      (*page_ctx->captures)[static_cast<size_t>(unit.index)];

  // This page's recorded tuples from the previous run, pre-fetched by the
  // reader stage (one forward seek per unit per page — §5.2's
  // sequential-scan discipline, kept on the reader thread).
  const PageReuse* page_reuse =
      (q_page != nullptr && page_ctx->reuse != nullptr)
          ? &(*page_ctx->reuse)[static_cast<size_t>(unit.index)]
          : nullptr;
  static const std::vector<InputTupleRec> kNoInputs;
  static const std::vector<OutputTupleRec> kNoOutputs;
  const std::vector<InputTupleRec>& old_inputs =
      page_reuse != nullptr ? page_reuse->inputs : kNoInputs;
  const std::vector<OutputTupleRec>& old_outputs =
      page_reuse != nullptr ? page_reuse->outputs : kNoOutputs;
  std::unordered_multimap<int64_t, const OutputTupleRec*> outputs_by_itid;
  if (!old_outputs.empty()) {
    outputs_by_itid.reserve(old_outputs.size());
    for (const OutputTupleRec& rec : old_outputs) {
      outputs_by_itid.emplace(rec.itid, &rec);
    }
  }

  const Extractor& extractor = *unit.ie_node->extractor;
  const MatcherKind matcher_kind =
      (assignment_ != nullptr && !assignment_->per_unit.empty() &&
       q_page != nullptr)
          ? assignment_->per_unit[static_cast<size_t>(unit.index)]
          : MatcherKind::kDN;
  const Matcher& matcher = GetMatcher(matcher_kind);

  // Index of old inputs by content hash (exact fast path) and by tid
  // (copy-phase lookups). Per the region_hash contract (reuse_file.h),
  // only empty-context records enter the hash index — context equality is
  // part of reuse eligibility and the hash covers region bytes only;
  // non-empty-context records are left to the matcher path.
  std::unordered_multimap<uint64_t, const InputTupleRec*> old_by_hash;
  std::unordered_map<int64_t, const InputTupleRec*> old_by_tid;
  if (q_page != nullptr && !old_inputs.empty()) {
    ScopedTimer match_timer(&ustats.match_us);
    old_by_hash.reserve(old_inputs.size());
    old_by_tid.reserve(old_inputs.size());
    for (const InputTupleRec& old : old_inputs) {
      old_by_tid.emplace(old.tid, &old);
      if (!options_.disable_exact_fast_path && old.context.empty()) {
        old_by_hash.emplace(old.region_hash, &old);
      }
    }
  }

  // The walk hands over one group per distinct input region, so the
  // blackbox and all reuse machinery run once per region and the reuse
  // files hold no duplicate groups.
  capture.groups.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const int64_t group_ordinal = static_cast<int64_t>(g);
    ++ustats.input_tuples;
    const TextSpan region = groups[g].region;
    const Tuple context;  // our IE predicates carry no extra parameters (c)
    const uint64_t region_hash =
        Fnv1a64(std::string_view(page.content)
                    .substr(static_cast<size_t>(region.start),
                            static_cast<size_t>(region.length())));

    // Buffer the input record; the ordered write-back stage appends it
    // (assigning the tid) once every earlier page has committed.
    PageCapture::Group& capture_group = capture.groups.emplace_back();
    capture_group.region = region;
    capture_group.region_hash = region_hash;
    capture_group.context = context;

    // ---- Matching: find reuse opportunities (§5.3). ----
    RegionDerivation derivation;
    // The blackbox's tiles of this region, scanned only when a matcher
    // found segments: with none, the residue is the whole region, which is
    // also its one run.
    std::vector<TextSpan> tiles;
    bool attempted_reuse = false;
    bool exact_hit = false;
    if (q_page != nullptr && !old_inputs.empty()) {
      ScopedTimer match_timer(&ustats.match_us);
      attempted_reuse = true;
      std::string_view p_text =
          std::string_view(page.content)
              .substr(static_cast<size_t>(region.start),
                      static_cast<size_t>(region.length()));

      // Fast path: an old region with identical bytes => one full-width,
      // fully aligned segment; no matcher call, no region derivation --
      // everything copies and nothing is re-extracted.
      const InputTupleRec* exact = nullptr;
      if (!options_.disable_exact_fast_path && context.empty()) {
        auto [begin, end] = old_by_hash.equal_range(region_hash);
        for (auto it = begin; it != end; ++it) {
          const InputTupleRec& old = *it->second;
          if (old.region.length() != region.length()) continue;
          // Verify bytes (hash collisions must not corrupt results).
          std::string_view q_text =
              std::string_view(q_page->content)
                  .substr(static_cast<size_t>(old.region.start),
                          static_cast<size_t>(old.region.length()));
          if (q_text == p_text) {
            exact = &old;
            break;
          }
        }
      }

      std::vector<TaggedSegment> segments;
      if (exact != nullptr) {
        ++ustats.exact_region_hits;
        exact_hit = true;
        MatchSegment full(region, exact->region);
        // Record into the page pair's match cache so RU in higher units
        // can recycle even exact matches.
        page_ctx->match_ctx.Record(region, exact->region, {full});
        // Hand-built derivation: the interior is the whole matched region
        // (both edges aligned), so every recorded mention is copyable and
        // the extraction residue is empty.
        CopyRegion copy;
        copy.q_interior = exact->region;
        copy.delta = full.Delta();
        copy.p_interior = region;
        copy.old_tid = exact->tid;
        derivation.copy_regions.push_back(copy);
        derivation.p_safe = IntervalSet({region});
      } else if (matcher_kind != MatcherKind::kDN) {
        // Candidate old regions. RU answers from the page pair's recorded
        // match cache at near-zero cost, so it can afford to consult every
        // old region; the real matchers (UD/ST) only try the ones nearest
        // in ordinal position.
        std::vector<const InputTupleRec*> candidates;
        if (matcher_kind == MatcherKind::kRU) {
          candidates.reserve(old_inputs.size());
          for (const InputTupleRec& old : old_inputs) {
            candidates.push_back(&old);
          }
        } else {
          for (int64_t offset = 0;
               static_cast<int>(candidates.size()) <
                   options_.max_match_candidates &&
               offset < static_cast<int64_t>(old_inputs.size());
               ++offset) {
            int64_t idx = group_ordinal + (offset % 2 == 0 ? 1 : -1) *
                                              ((offset + 1) / 2);
            if (offset == 0) idx = group_ordinal;
            if (idx < 0 || idx >= static_cast<int64_t>(old_inputs.size())) {
              continue;
            }
            candidates.push_back(&old_inputs[static_cast<size_t>(idx)]);
          }
        }
        obs::LocalHistogram& match_hist =
            page_ctx->stats->match_hist[static_cast<size_t>(matcher_kind)];
        for (const InputTupleRec* old : candidates) {
          ++ustats.matcher_calls;
          std::vector<MatchSegment> found;
          {
            obs::ScopedLatencyTimer match_latency(&match_hist);
            found = matcher.Match(page.content, region, q_page->content,
                                  old->region, &page_ctx->match_ctx);
          }
          if (paranoid::Enabled()) {
            paranoid::CheckSegments(page.content, region, q_page->content,
                                    old->region, found);
          }
          for (const MatchSegment& seg : found) {
            segments.push_back({seg, old->region, old->tid});
          }
        }
      }
      if (!exact_hit) {
        if (!segments.empty()) tiles = extractor.Tiles(p_text, region.start);
        derivation = DeriveRegionsTagged(region, std::move(segments),
                                         unit.alpha, unit.beta, tiles);
      }
      if (paranoid::Enabled()) {
        paranoid::CheckDerivation(derivation, region, tiles);
      }
    }
    if (!attempted_reuse) {
      derivation.extraction_regions = IntervalSet({region});
    }

    // ---- Copy phase: relocate recorded mentions (§5.3). ----
    std::vector<Tuple> produced;  // blackbox outputs for this region
    {
      ScopedTimer copy_timer(&ustats.copy_us);
      for (const CopyRegion& copy : derivation.copy_regions) {
        auto [begin, end] = outputs_by_itid.equal_range(copy.old_tid);
        auto old_it = old_by_tid.find(copy.old_tid);
        const TextSpan old_region = old_it != old_by_tid.end()
                                        ? old_it->second->region
                                        : TextSpan();
        for (auto it = begin; it != end; ++it) {
          const OutputTupleRec& rec = *it->second;
          TextSpan envelope = SpanEnvelope(rec.payload);
          if (!EnvelopeCopyable(copy, envelope, old_region)) continue;
          Tuple relocated = rec.payload;
          ShiftSpans(&relocated, copy.delta);
          if (paranoid::Enabled()) {
            paranoid::CheckCopiedMention(copy, relocated, region);
          }
          produced.push_back(std::move(relocated));
          ++ustats.copied_tuples;
        }
      }
    }

    // ---- Extraction phase: run the blackbox on the residue. ----
    {
      ScopedTimer extract_timer(&ustats.extract_us);
      DELEX_TRACE_SPAN("extract", unit.index);
      for (const TextSpan& sub : derivation.extraction_regions.spans()) {
        ustats.chars_extracted += sub.length();
        std::string_view sub_text =
            std::string_view(page.content)
                .substr(static_cast<size_t>(sub.start),
                        static_cast<size_t>(sub.length()));
        std::vector<Tuple> extracted;
        {
          // One latency sample per blackbox invocation.
          obs::ScopedLatencyTimer extract_latency(&ustats.extract_hist);
          extracted = extractor.Extract(sub_text, sub.start, context);
        }
        for (Tuple& o : extracted) {
          TextSpan envelope = SpanEnvelope(o);
          if (envelope.empty() && HasSpan(o)) continue;  // degenerate
          // Keep rule: the mention's beta-window must lie inside this
          // sub-region; clipping is allowed only at true edges: the region
          // edges, or for tiled derivations the run's own edges.
          const TextSpan edges = tiles.empty() ? region : sub;
          TextSpan window(envelope.start - unit.beta,
                          envelope.end + unit.beta);
          if (window.start < edges.start) window.start = edges.start;
          if (window.end > edges.end) window.end = edges.end;
          if (!sub.Contains(window)) continue;
          // Suppression rule: copy-safe mentions were already copied.
          if (!envelope.empty() &&
              derivation.p_safe.ContainsWithinOne(envelope)) {
            continue;
          }
          produced.push_back(std::move(o));
          ++ustats.extracted_tuples;
        }
      }
    }

    // ---- sigma-filter and capture survivors (once per region). ----
    // Folded sigma predicates only read blackbox-produced columns (the
    // foldability rule), so the verdict is identical for every child tuple
    // sharing this region; the group's first tuple decides, and the walk
    // re-evaluates the folded sigma/pi above the IE node for every tuple.
    const Tuple& representative = inputs[groups[g].first];
    std::vector<Tuple>& survivors = (*outputs)[g];
    for (Tuple& o : produced) {
      DELEX_ASSIGN_OR_RETURN(
          bool keep, PassesFoldedChain(unit, representative, o, page.content));
      if (!keep) continue;
      {
        ScopedTimer capture_timer(&ustats.capture_us);
        capture_group.outputs.push_back(o);
      }
      survivors.push_back(std::move(o));
    }
    ustats.output_tuples +=
        static_cast<int64_t>(groups[g].count * survivors.size());
  }
  return Status::OK();
}

}  // namespace delex
