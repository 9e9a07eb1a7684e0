#include "delex/engine.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <variant>

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
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace delex {

namespace {

/// Fast-path demotion counters: each names one reason an identical page
/// fell back a tier (see DelexEngine::LiftRun). Knowing *where*
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

/// A page's previous version and whether the whole-page fast path applies
/// to it, found by the classify pass before the reader starts.
struct DelexEngine::PageClass {
  int64_t previous = -1;   // index in the previous snapshot, or -1
  bool identical = false;  // content byte-identical to it, fast path on
};

/// One entry of the pipeline ring: an evaluated page, or a run of
/// identical pages. Filled by the reader, evaluated by a worker (a page)
/// or ready at once (a run), then committed and retired (stats shard and
/// rows folded into the run, buffers released) by whichever thread drains
/// the front, before the ring reuses the slot.
struct DelexEngine::PageSlot {
  /// The `pipeline` tag's charge for HeldBytes(): set when the reader has
  /// filled the entry and again when its worker has evaluated it, returned
  /// when the entry retires.
  obs::ScopedMemCharge mem{obs::MemTag::kPipeline};
  size_t first = 0;   // view index of the entry's first page
  size_t count = 0;   // its pages: 1, or a run's length
  bool run = false;   // a run of identical pages
  RunStats stats;     // the entry's shard (incl. unit timers)
  std::vector<Tuple> rows;  // did-prefixed result tuples of its pages

  // An evaluated page: prefetched records in, captures and rows out.
  const Page* page = nullptr;
  const Page* q_page = nullptr;
  std::vector<PageReuse> reuse;       // filled by the reader stage
  std::vector<PageCapture> captures;  // filled by the worker

  // A run: its pages' new dids, each unit's lifted groups and the cached
  // rows, all still encoded. A unit whose index entry failed for the run's
  // last page has that page's records decode-copied into captures[u]
  // instead of a raw group (decode_copied[u]).
  std::vector<int64_t> dids;
  std::vector<RawRun> raw;
  std::vector<char> decode_copied;
  ResultRun results;

  /// Heap bytes of the state the slot holds for the pipeline: prefetched
  /// records, lifted groups and rows, buffered captures and the stats
  /// shard's allocated histogram buckets (rows are the run's output, not
  /// pipeline state).
  int64_t HeldBytes() const;
};

namespace {

/// Heap bytes of a tuple: its value array plus out-of-line string bytes.
size_t TupleHeapBytes(const Tuple& tuple) {
  static const size_t kInlineChars = std::string().capacity();
  size_t bytes = tuple.capacity() * sizeof(Value);
  for (const Value& value : tuple) {
    const auto* text = std::get_if<std::string>(&value);
    if (text != nullptr && text->capacity() > kInlineChars) {
      bytes += text->capacity() + 1;
    }
  }
  return bytes;
}

size_t HistogramHeapBytes(const obs::LocalHistogram& hist) {
  return hist.buckets().capacity() * sizeof(int64_t);
}

}  // namespace

int64_t DelexEngine::PageSlot::HeldBytes() const {
  size_t bytes = 0;
  for (const PageReuse& unit_reuse : reuse) {
    bytes += unit_reuse.inputs.capacity() * sizeof(InputTupleRec) +
             unit_reuse.outputs.capacity() * sizeof(OutputTupleRec);
    for (const InputTupleRec& rec : unit_reuse.inputs) {
      bytes += TupleHeapBytes(rec.context);
    }
    for (const OutputTupleRec& rec : unit_reuse.outputs) {
      bytes += TupleHeapBytes(rec.payload);
    }
  }
  for (const PageCapture& capture : captures) {
    bytes += capture.groups.capacity() * sizeof(PageCapture::Group);
    for (const PageCapture::Group& group : capture.groups) {
      bytes += TupleHeapBytes(group.context) +
               group.outputs.capacity() * sizeof(Tuple);
      for (const Tuple& output : group.outputs) bytes += TupleHeapBytes(output);
    }
  }
  for (const RawRun& unit_run : raw) {
    bytes += unit_run.in_bytes.capacity() + unit_run.out_bytes.capacity() +
             (unit_run.in_ranges.capacity() + unit_run.out_ranges.capacity()) *
                 sizeof(FileRange) +
             unit_run.pages.capacity() * sizeof(RawRun::Page);
  }
  bytes += raw.capacity() * sizeof(RawRun) + results.bytes.capacity() +
           results.ranges.capacity() * sizeof(FileRange) +
           results.pages.capacity() * sizeof(ResultRun::Page) +
           dids.capacity() * sizeof(int64_t);
  bytes += HistogramHeapBytes(stats.page_eval_hist);
  for (const obs::LocalHistogram& hist : stats.match_hist) {
    bytes += HistogramHeapBytes(hist);
  }
  for (const UnitRunStats& unit : stats.units) {
    bytes += HistogramHeapBytes(unit.extract_hist);
  }
  return static_cast<int64_t>(bytes);
}

/// Shared commit state of one run. An entry's task (or the reader, for a
/// run) marks its slot done; the front of the snapshot order is committed
/// by one thread at a time, whichever finds it done and nobody committing.
/// Task completion itself is the TaskGroup's business.
struct DelexEngine::RunState {
  explicit RunState(size_t ring_slots)
      : mu("engine.run.mu"), done(ring_slots, 0) {}

  Mutex mu;  // guards everything below
  // Per ring slot: the entry in it is ready to commit. Set by its worker
  // (or the reader, for a run), cleared by its commit, so a committed slot
  // the reader has not refilled never reads as ready.
  std::vector<char> done DELEX_GUARDED_BY(mu);
  size_t next_commit DELEX_GUARDED_BY(mu) = 0;      // first entry not committed
  size_t pages_committed DELEX_GUARDED_BY(mu) = 0;  // pages of the entries before it
  // A thread is committing. Others only mark their entry done: the
  // committer checks the front again under mu before it stops, so it
  // reaches every entry marked done while it held the role.
  bool draining DELEX_GUARDED_BY(mu) = false;
  Status error DELEX_GUARDED_BY(mu);  // first evaluation/commit failure
  // Signalled under mu when next_commit advances or the run fails: the
  // reader waits on it for ring room.
  CondVar slot_free;

  void Fail(const Status& status) DELEX_REQUIRES(mu) {
    if (error.ok()) error = status;
    slot_free.NotifyAll();
  }
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
  // DELEX_TRACE and DELEX_PROFILE work for any engine-embedding binary
  // (examples, tests) without per-main wiring; each is a no-op if a
  // session is already running.
  obs::MaybeStartTraceFromEnv();
  obs::MaybeStartProfilerFromEnv();
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

std::vector<DelexEngine::PageClass> DelexEngine::ClassifyPages(
    const SnapshotView& current, const Snapshot* previous, bool fast_path,
    ThreadPool* pool, int width, int64_t* wait_us) {
  const size_t num_pages = current.NumPages();
  std::vector<PageClass> classes(num_pages);
  if (previous == nullptr) return classes;
  auto classify = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Page& page = current.page(i);
      std::optional<size_t> found = previous->FindByUrl(page.url);
      if (!found) continue;
      const Page& q_page = previous->pages()[*found];
      classes[i].previous = static_cast<int64_t>(*found);
      // Digests first (O(1) per pair), then a byte compare so a digest
      // collision can never relocate wrong records.
      classes[i].identical =
          fast_path && q_page.content_hash == page.content_hash &&
          q_page.content.size() == page.content.size() &&
          simd::BytesEqual(q_page.content.data(), page.content.data(),
                           page.content.size());
    }
  };
  // A few chunks per worker even out pages of uneven length.
  constexpr size_t kMinChunk = 64;
  const size_t chunk = std::max(
      kMinChunk, (num_pages + 4 * static_cast<size_t>(width) - 1) /
                     (4 * static_cast<size_t>(width)));
  if (pool == nullptr || num_pages <= chunk) {
    classify(0, num_pages);
    return classes;
  }
  TaskGroup tasks(pool, static_cast<size_t>(width));
  for (size_t begin = 0; begin < num_pages; begin += chunk) {
    tasks.Submit([&classify, begin, end = std::min(num_pages, begin + chunk)]() {
      classify(begin, end);
      return Status::OK();
    });
  }
  Stopwatch waited;
  DELEX_CHECK(tasks.Wait().ok());
  *wait_us += waited.ElapsedMicros() + tasks.blocked_us();
  return classes;
}

Status DelexEngine::LiftRun(const SnapshotView& current,
                            const Snapshot& previous,
                            const std::vector<PageClass>& classes, size_t end,
                            PageSlot* slot, size_t* demoted) {
  DELEX_TRACE_SPAN("lift_run", current.page(slot->first).did);
  const size_t num_units = analysis_.units.size();
  RunStats& stats = slot->stats;
  slot->count = 0;
  // The result cache can be dropped mid-run (corrupt bytes below): every
  // identical page after that demotes.
  if (result_dropped_) {
    DemoteResultCacheCounter()->Increment();
    ++stats.fast_path_demote_result_cache;
    *demoted = slot->first;
    return Status::OK();
  }
  slot->raw.resize(num_units);
  slot->decode_copied.assign(num_units, 0);
  result_reader_->BeginRun(&slot->results);
  for (size_t u = 0; u < num_units; ++u) {
    if (reader_ok_[u] != 0) readers_[u]->BeginRun(&slot->raw[u]);
  }
  // Page by page: its cached rows first (without them the page must fully
  // evaluate, and demoting before any unit reader has advanced keeps every
  // unit's group available to the decoded prefetch), then each unit's
  // group. A page that demotes ends the run before it.
  size_t taken = 0;
  bool last = false;  // the page just taken ends the run
  for (size_t i = slot->first; i < end && !last; ++i) {
    const Page& q_page =
        previous.pages()[static_cast<size_t>(classes[i].previous)];
    bool found = false;
    Status read = result_reader_->LiftPage(q_page.did, &found);
    if (!read.ok()) {
      // Corrupt cache: its forward-scan position is untrustworthy from
      // here on, so drop it for the rest of the run. All remaining
      // identical pages evaluate normally — degrade, never miscompute.
      DELEX_LOG(WARN) << "dropping result cache (corrupt): "
                      << read.ToString();
      ReuseCorruptDropCounter()->Increment();
      ++stats.reuse_corrupt_drops;
      result_dropped_ = true;
      found = false;
    }
    if (!found) {
      DemoteResultCacheCounter()->Increment();
      ++stats.fast_path_demote_result_cache;
      DELEX_LOG(DEBUG) << "fast path demoted (result cache miss) did="
                       << current.page(i).did;
      *demoted = i;
      break;
    }
    bool missing = false;
    for (size_t u = 0; u < num_units && !missing; ++u) {
      bool unit_found = false;
      bool index_valid = false;
      if (reader_ok_[u] != 0) {
        Status st = readers_[u]->LiftPage(q_page.did, q_page.content_hash,
                                          &unit_found, &index_valid);
        if (!st.ok()) {
          readers_[u]->EndRun(taken);
          DropCorruptReader(u, st, &stats);
          unit_found = false;
        }
      }
      if (!unit_found) {
        // The old generation has no group for this page (work dir out of
        // step with the corpus). Demote to full evaluation; units whose
        // groups were already lifted for it simply extract from scratch.
        DemoteMissingGroupCounter()->Increment();
        ++stats.fast_path_demote_missing_group;
        DELEX_LOG(DEBUG) << "fast path demoted (missing reuse group) did="
                         << current.page(i).did << " unit=" << u;
        missing = true;
      } else if (!index_valid) {
        // Decode-copy tier: the index entry was missing or failed
        // validation, so the group can't be trusted for a byte-range copy
        // — but its records decode fine, and an identical page's capture
        // IS its old records. The page ends the run.
        DecodeCopyGroupCounter()->Increment();
        ++stats.fast_path_decode_copy_groups;
        slot->decode_copied[u] = 1;
        last = true;
      }
    }
    if (missing) {
      *demoted = i;
      break;
    }
    ++taken;
  }
  // Every reader keeps the groups of the pages taken; the rest count as
  // passed.
  result_reader_->EndRun(taken);
  for (size_t u = 0; u < num_units; ++u) {
    if (reader_ok_[u] != 0) readers_[u]->EndRun(taken);
  }
  slot->captures.resize(num_units);
  if (last && *demoted != slot->first + taken) {
    for (size_t u = 0; u < num_units; ++u) {
      if (slot->decode_copied[u] == 0) continue;
      RawRun& unit_run = slot->raw[u];
      Status copied = readers_[u]->LoadRun(&unit_run);
      if (copied.ok()) {
        copied = CaptureFromRawSlice(unit_run.Slice(unit_run.pages.size() - 1),
                                     &slot->captures[u]);
      }
      unit_run.pages.pop_back();
      if (!copied.ok()) {
        // Its records do not decode either: the page is evaluated.
        DemoteMissingGroupCounter()->Increment();
        ++stats.fast_path_demote_missing_group;
        --taken;
        *demoted = slot->first + taken;
        break;
      }
    }
  }
  if (*demoted == slot->first + taken) {
    // A demoted last page leaves every part of the run.
    slot->decode_copied.assign(num_units, 0);
    for (PageCapture& capture : slot->captures) capture.groups.clear();
    for (RawRun& unit_run : slot->raw) {
      unit_run.pages.resize(std::min(unit_run.pages.size(), taken));
    }
    slot->results.pages.resize(std::min(slot->results.pages.size(), taken));
  }
  if (taken == 0) {
    slot->raw.clear();
    slot->results = ResultRun();
    return Status::OK();
  }
  slot->run = true;
  slot->count = taken;
  slot->dids.resize(taken);
  for (size_t j = 0; j < taken; ++j) {
    slot->dids[j] = current.page(slot->first + j).did;
  }
  stats.pages += static_cast<int64_t>(taken);
  stats.pages_with_previous += static_cast<int64_t>(taken);
  stats.pages_identical += static_cast<int64_t>(taken);
  ++stats.identical_runs;
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

Result<std::vector<Tuple>> DelexEngine::EvalFromScratch(
    const Page& page, RunStats* stats,
    std::vector<PageCapture>* captures) const {
  captures->assign(analysis_.units.size(), PageCapture());
  PageContext page_ctx;
  page_ctx.engine = this;
  page_ctx.page = &page;
  page_ctx.captures = captures;
  page_ctx.stats = stats;
  return EvalPage(&page_ctx);
}

Status DelexEngine::CommitEntry(PageSlot* slot, const SnapshotView& current) {
  return slot->run ? CommitRun(slot, current) : CommitPage(slot);
}

Status DelexEngine::CommitPage(PageSlot* slot) {
  const int64_t did = slot->page->did;
  DELEX_TRACE_SPAN("commit_page", did);
  for (size_t u = 0; u < writers_.size(); ++u) {
    ScopedTimer capture_timer(&slot->stats.units[u].capture_us);
    DELEX_RETURN_NOT_OK(writers_[u]->CommitPage(
        did, slot->page->content_hash, slot->captures[u]));
  }
  return result_writer_->CommitPage(did, slot->rows);
}

Status DelexEngine::CommitRun(PageSlot* slot, const SnapshotView& current) {
  DELEX_TRACE_SPAN("commit_run", slot->dids.front());
  RunStats& stats = slot->stats;
  const std::span<const int64_t> dids(slot->dids);
  const size_t count = dids.size();
  const size_t num_units = writers_.size();
  // The reader took each unit group where its index entry put it, unread:
  // check its page headers and record framing here, off the reader. Then
  // the cached rows, decoded by the committer too. A page whose bytes fail
  // either is evaluated from scratch instead (degrade, never miscompute):
  // its fresh rows and captures replace what was lifted.
  // The lifted ranges are read back here first; a file that fails to read
  // fails every page of the run the same way.
  bool loaded = result_reader_->LoadRun(&slot->results).ok();
  for (size_t u = 0; u < num_units; ++u) {
    loaded = readers_[u]->LoadRun(&slot->raw[u]).ok() && loaded;
  }
  std::vector<size_t> row_begin(count + 1, 0);
  std::vector<std::vector<PageCapture>> fresh;  // per page; evaluated if set
  for (size_t j = 0; j < count; ++j) {
    row_begin[j] = slot->rows.size();
    bool framed = loaded;
    for (size_t u = 0; u < num_units && framed; ++u) {
      const RawRun& unit_run = slot->raw[u];
      // A decode-copied last page has no raw group.
      if (j < unit_run.pages.size()) framed = unit_run.PageHolds(j);
    }
    if (framed && DecodeResultSlice(slot->results.Slice(j), dids[j],
                                    &slot->rows)
                      .ok()) {
      continue;
    }
    if (framed) {
      DemoteResultCacheCounter()->Increment();
      ++stats.fast_path_demote_result_cache;
    } else {
      DemoteMissingGroupCounter()->Increment();
      ++stats.fast_path_demote_missing_group;
    }
    --stats.pages_identical;
    fresh.resize(count);
    DELEX_ASSIGN_OR_RETURN(
        std::vector<Tuple> page_rows,
        EvalFromScratch(current.page(slot->first + j), &stats, &fresh[j]));
    for (Tuple& row : page_rows) slot->rows.push_back(std::move(row));
  }
  row_begin[count] = slot->rows.size();
  auto evaluated = [&fresh](size_t j) {
    return !fresh.empty() && !fresh[j].empty();
  };

  // Each file takes maximal stretches of raw pages in one CommitRun; an
  // evaluated page, or a decode-copied last page, commits its capture.
  for (size_t u = 0; u < num_units; ++u) {
    ScopedTimer capture_timer(&stats.units[u].capture_us);
    const RawRun& unit_run = slot->raw[u];
    for (size_t j = 0; j < count;) {
      size_t end = j;
      while (end < unit_run.pages.size() && !evaluated(end)) ++end;
      for (size_t k = j; k < end; ++k) {
        const RawPageSlice group = unit_run.Slice(k);
        if (paranoid::Enabled()) paranoid::CheckRawSlice(group);
        stats.raw_bytes_copied += group.TotalBytes();
        stats.records_decoded_skipped += group.n_inputs + group.n_outputs;
      }
      if (end > j) {
        DELEX_RETURN_NOT_OK(
            writers_[u]->CommitRun(unit_run, j, dids.subspan(j, end - j)));
      }
      if (end == count) break;
      const Page& page = current.page(slot->first + end);
      DELEX_RETURN_NOT_OK(writers_[u]->CommitPage(
          page.did, page.content_hash,
          evaluated(end) ? fresh[end][u] : slot->captures[u]));
      j = end + 1;
    }
  }

  // The cached rows relocate verbatim into the new cache.
  for (size_t j = 0; j < count;) {
    size_t end = j;
    while (end < count && !evaluated(end)) {
      stats.raw_bytes_copied +=
          static_cast<int64_t>(slot->results.Slice(end).bytes.size());
      ++end;
    }
    if (end > j) {
      DELEX_RETURN_NOT_OK(result_writer_->CommitRun(
          slot->results, j, dids.subspan(j, end - j)));
    }
    if (end == count) break;
    const std::vector<Tuple> page_rows(
        slot->rows.begin() + static_cast<ptrdiff_t>(row_begin[end]),
        slot->rows.begin() + static_cast<ptrdiff_t>(row_begin[end + 1]));
    DELEX_RETURN_NOT_OK(result_writer_->CommitPage(dids[end], page_rows));
    j = end + 1;
  }
  return Status::OK();
}

size_t DelexEngine::RingSlots(int width) {
  // On a mostly identical snapshot the reader fills the ring with
  // fast-path pages behind each changed page in evaluation. While it waits
  // it finds no further changed pages to hand the workers, so a small ring
  // slows the run: on a 1,000-page DBLife series (97 % identical, 4
  // workers) refreshes took 17 % longer at 8 windows and 11 % at 32, and
  // no longer at 128 (EXPERIMENTS.md, "Pipeline memory"). Slots are
  // released as they commit, so the size bounds memory only behind a slow
  // page.
  constexpr size_t kWindowsPerRing = 128;
  return kWindowsPerRing * (static_cast<size_t>(std::max(width, 1)) * 2 + 2);
}

Status DelexEngine::RunPages(const SnapshotView& current,
                             const Snapshot* previous, std::vector<Tuple>* rows,
                             RunStats* stats) {
  const size_t num_pages = current.NumPages();
  const size_t num_units = analysis_.units.size();
  Stopwatch reader_watch;
  int64_t wait_us = 0;  // the reader's blocked time, outside the window
  // Two-level scheduling: a caller-provided shared pool (sharded
  // execution) or a run-local one. Either way the reader stays on this
  // thread; page evaluation and most commits go to the pool. With a
  // shared pool, always go through it — even a 1-wide pool — so a sharded
  // run's total compute is bounded by the pool width rather than by the
  // number of shard threads. Otherwise width 1 (or a single page)
  // evaluates inline on this thread and starts no pool.
  const int num_threads = EffectiveThreads();
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options_.shared_pool;
  if (pool == nullptr && num_threads > 1 && num_pages > 1) {
    owned_pool = std::make_unique<ThreadPool>(num_threads);
    pool = owned_pool.get();
  }
  // Identical pages take the fast path only if the previous result cache
  // opened; one dropped mid-run demotes the rest in LiftRun.
  const std::vector<PageClass> classes =
      ClassifyPages(current, previous, result_reader_ != nullptr, pool,
                    num_threads, &wait_us);

  // Declared before the TaskGroup, which settles every task referencing
  // them before they go out of scope. Never more slots than pages.
  std::vector<PageSlot> ring(
      std::min(RingSlots(num_threads), std::max<size_t>(num_pages, 1)));
  RunState state(ring.size());

  // Commits every ready entry at the front of the snapshot order, and
  // retires each as it commits: its stats shard folds into the run's
  // (integer sums, so totals equal a merge at run end), its rows move to
  // the end of `*rows` and its buffers and charge are released. The caller
  // has taken the draining role; it gives it up under mu when the front is
  // not ready, so an entry marked done meanwhile is never stranded.
  auto drain = [this, &state, &ring, &current, rows, stats]() {
    for (;;) {
      PageSlot* slot = nullptr;
      {
        MutexLock lock(&state.mu);
        const size_t index = state.next_commit % ring.size();
        if (!state.error.ok() || state.done[index] == 0) {
          state.draining = false;
          return;
        }
        slot = &ring[index];
      }
      Status st = CommitEntry(slot, current);
      const size_t count = slot->count;
      if (st.ok()) {
        stats->MergeFrom(slot->stats);
        rows->insert(rows->end(), std::make_move_iterator(slot->rows.begin()),
                     std::make_move_iterator(slot->rows.end()));
        *slot = PageSlot();
      }
      MutexLock lock(&state.mu);
      if (!st.ok()) {
        state.draining = false;
        state.Fail(st);
        return;
      }
      state.done[state.next_commit % ring.size()] = 0;
      ++state.next_commit;
      state.pages_committed += count;
      state.slot_free.NotifyAll();
    }
  };
  // Marks the entry in ring slot `index` ready, then commits the front
  // unless another thread is already committing.
  auto complete = [&state, &drain](size_t index) {
    {
      MutexLock lock(&state.mu);
      state.done[index] = 1;
      if (state.draining) return;
      state.draining = true;
    }
    drain();
  };

  Status prefetch_error;
  Status task_status;
  size_t entries = 0;
  {
    // Bound on submitted-but-unfinished pages: keeps the reader stage a few
    // pages ahead of the workers; the ring bounds how far it may run ahead
    // of the oldest uncommitted page. Runs never take a window slot.
    TaskGroup tasks(pool, static_cast<size_t>(num_threads) * 2 + 2);
    // A page whose run lift demoted it: it is evaluated, never lifted again.
    size_t demoted = num_pages;
    for (size_t first = 0; first < num_pages; ++entries) {
      const bool lift = classes[first].identical && first != demoted;
      size_t end = first + 1;
      while (lift && end < num_pages && end - first < kRunPages &&
             classes[end].identical) {
        ++end;
      }
      {
        // The entry's slot is free, and its pages fit the ring, once every
        // page ring.size() before `end` has committed.
        MutexLock lock(&state.mu);
        if (state.error.ok() && state.pages_committed + ring.size() < end) {
          Stopwatch waited;
          while (state.error.ok() &&
                 state.pages_committed + ring.size() < end) {
            state.slot_free.Wait(&state.mu);
          }
          wait_us += waited.ElapsedMicros();
        }
        if (!state.error.ok()) break;
      }

      // Reader stage: one strictly-forward scan per reuse file, kept on
      // this thread and in snapshot page order (§5.2).
      const size_t index = entries % ring.size();
      PageSlot& slot = ring[index];
      slot.first = first;
      slot.stats.units.resize(num_units);
      if (lift) {
        prefetch_error =
            LiftRun(current, *previous, classes, end, &slot, &demoted);
        if (!prefetch_error.ok()) break;
        if (slot.count > 0) {
          // A run needs no evaluating: it is ready to commit at once, in
          // snapshot order, by this thread or whichever is committing.
          // After complete() the slot is the committer's.
          slot.mem.Set(slot.HeldBytes());
          first += slot.count;
          complete(index);
          continue;
        }
      }
      // One page for the pool.
      {
        DELEX_TRACE_SPAN("prefetch_page", current.page(first).did);
        slot.count = 1;
        slot.page = &current.page(first);
        if (classes[first].previous >= 0) {
          slot.q_page =
              &previous->pages()[static_cast<size_t>(classes[first].previous)];
        }
        slot.captures.resize(num_units);
        ++slot.stats.pages;
        if (slot.q_page != nullptr) {
          ++slot.stats.pages_with_previous;
          prefetch_error = PrefetchPageReuse(slot.q_page->did, &slot.reuse,
                                             &slot.stats);
          if (!prefetch_error.ok()) break;
        }
        slot.mem.Set(slot.HeldBytes());
      }
      tasks.Submit([this, index, &ring, &state, &complete]() -> Status {
        // Any failure, a throw included, must reach state.error: the
        // reader may be waiting for this page to commit.
        Status status = ThreadPool::RunTask([&]() -> Status {
          PageSlot* slot = &ring[index];
          PageContext page_ctx;
          page_ctx.engine = this;
          page_ctx.page = slot->page;
          page_ctx.q_page = slot->q_page;
          page_ctx.reuse = slot->q_page != nullptr ? &slot->reuse : nullptr;
          page_ctx.captures = &slot->captures;
          page_ctx.stats = &slot->stats;
          DELEX_ASSIGN_OR_RETURN(slot->rows, EvalPage(&page_ctx));
          slot->mem.Set(slot->HeldBytes());
          complete(index);
          return Status::OK();
        });
        if (!status.ok()) {
          MutexLock lock(&state.mu);
          state.Fail(status);
        }
        return status;
      });
      ++first;
    }
    Stopwatch waited;
    task_status = tasks.Wait();
    wait_us += waited.ElapsedMicros() + tasks.blocked_us();
  }
  DELEX_RETURN_NOT_OK(prefetch_error);
  DELEX_RETURN_NOT_OK(task_status);
  {
    MutexLock lock(&state.mu);
    DELEX_RETURN_NOT_OK(state.error);
    DELEX_CHECK(state.next_commit == entries);
    DELEX_CHECK(state.pages_committed == num_pages);
  }
  stats->reader_wait_us += wait_us;
  stats->reader_busy_us += reader_watch.ElapsedMicros() - wait_us;
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
  result_dropped_ = false;
  if (previous != nullptr && !options_.disable_page_fast_path) {
    auto reader = std::make_unique<ResultCacheReader>();
    // A missing or corrupt previous cache (e.g. a resumed work dir from an
    // older layout) just disables the fast path for this run.
    if (reader->Open(ResultCachePath(generation_ - 1)).ok()) {
      result_reader_ = std::move(reader);
    }
  }

  std::vector<Tuple> results;
  Status run_status = RunPages(current, previous, &results, out_stats);
  if (!run_status.ok()) {
    writers_.clear();
    readers_.clear();
    result_writer_.reset();
    result_reader_.reset();
    assignment_ = nullptr;
    return run_status;
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
    // A cache dropped as corrupt counts as unread, as it was before runs.
    if (!result_dropped_) out_stats->reuse_read_io += result_reader_->stats();
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
