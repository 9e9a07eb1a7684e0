#include "obs/run_report.h"

#include "obs/histogram.h"
#include "obs/json_writer.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace delex {
namespace obs {

namespace {

void WriteIoStats(const char* key, const IoStats& io, JsonWriter* json) {
  json->Key(key)
      .BeginObject()
      .KV("bytes_read", io.bytes_read)
      .KV("bytes_written", io.bytes_written)
      .KV("records_read", io.records_read)
      .KV("records_written", io.records_written)
      .EndObject();
}

void WriteLatencySummary(const char* key, const LocalHistogram& hist,
                         JsonWriter* json) {
  json->Key(key)
      .BeginObject()
      .KV("count", hist.count())
      .KV("mean", hist.Mean())
      .KV("p50", hist.Percentile(50))
      .KV("p90", hist.Percentile(90))
      .KV("p99", hist.Percentile(99))
      .KV("max", hist.max())
      .EndObject();
}

void WriteUnitDecision(const OptimizerReport::UnitDecision& d,
                       JsonWriter* json) {
  json->BeginObject()
      .KV("unit", d.unit)
      .KV("winner", d.winner)
      .KV("runner_up", d.runner_up)
      .KV("margin_us", d.margin_us);
  json->Key("candidates").BeginObject();
  for (const auto& [matcher, est_us] : d.candidate_us) {
    json->KV(matcher, est_us);
  }
  json->EndObject();
  json->Key("inputs")
      .BeginObject()
      .KV("f", d.f)
      .KV("m", d.m)
      .KV("a", d.a)
      .KV("l", d.l)
      .KV("history", d.history_window)
      .EndObject();
  json->EndObject();
}

}  // namespace

std::string RunReportLine(const RunReportMeta& meta, const RunStats& stats,
                          const OptimizerReport& optimizer) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema_version", kRunReportSchemaVersion);
  json.KV("solution", meta.solution);
  if (!meta.tag.empty()) json.KV("tag", meta.tag);
  json.KV("snapshot", meta.snapshot_index);
  json.KV("warmup", meta.warmup);
  json.KV("threads", meta.num_threads);
  json.KV("fast_path", meta.fast_path_enabled);
  json.KV("histograms", meta.histograms_enabled);
  json.KV("num_shards", meta.num_shards);
  if (meta.generation >= 0) json.KV("generation", meta.generation);
  if (!meta.assignment.empty()) json.KV("assignment", meta.assignment);
  if (meta.num_shards > 1 && !meta.shards.empty()) {
    json.Key("shards").BeginArray();
    for (const RunReportMeta::ShardSummary& shard : meta.shards) {
      json.BeginObject()
          .KV("shard", shard.shard)
          .KV("pages", shard.pages)
          .KV("pages_identical", shard.pages_identical)
          .KV("result_tuples", shard.result_tuples)
          .KV("total_us", shard.total_us)
          .KV("reuse_corrupt_drops", shard.reuse_corrupt_drops);
      if (!shard.assignment.empty()) json.KV("assignment", shard.assignment);
      if (shard.cost_drift >= 0) json.KV("cost_drift", shard.cost_drift);
      json.EndObject();
    }
    json.EndArray();
  }

  json.KV("pages", stats.pages);
  json.KV("pages_with_previous", stats.pages_with_previous);
  json.KV("pages_identical", stats.pages_identical);
  json.KV("result_tuples", stats.result_tuples);
  json.KV("raw_bytes_copied", stats.raw_bytes_copied);
  json.KV("records_decoded_skipped", stats.records_decoded_skipped);
  json.KV("identical_runs", stats.identical_runs);
  json.Key("reader")
      .BeginObject()
      .KV("busy_us", stats.reader_busy_us)
      .KV("wait_us", stats.reader_wait_us)
      .EndObject();

  const PhaseBreakdown& phases = stats.phases;
  json.Key("phases")
      .BeginObject()
      .KV("match_us", phases.match_us)
      .KV("extract_us", phases.extract_us)
      .KV("copy_us", phases.copy_us)
      .KV("opt_us", phases.opt_us)
      .KV("capture_us", phases.capture_us)
      .KV("total_us", phases.total_us)
      .KV("others_us", phases.OthersUs())
      .KV("phase_drift_us", phases.phase_drift_us)
      .EndObject();

  json.Key("io").BeginObject();
  WriteIoStats("reuse_read", stats.reuse_read_io, &json);
  WriteIoStats("reuse_write", stats.reuse_write_io, &json);
  json.EndObject();

  json.Key("fast_path_counters")
      .BeginObject()
      .KV("demote_result_cache", stats.fast_path_demote_result_cache)
      .KV("demote_missing_group", stats.fast_path_demote_missing_group)
      .KV("decode_copy_groups", stats.fast_path_decode_copy_groups)
      .KV("reuse_corrupt_drops", stats.reuse_corrupt_drops)
      .EndObject();

  if (meta.histograms_enabled) {
    json.Key("latency").BeginObject();
    WriteLatencySummary("page_eval_us", stats.page_eval_hist, &json);
    WriteLatencySummary(
        "match_ud_us",
        stats.match_hist[static_cast<size_t>(MatcherKind::kUD)], &json);
    WriteLatencySummary(
        "match_st_us",
        stats.match_hist[static_cast<size_t>(MatcherKind::kST)], &json);
    WriteLatencySummary(
        "match_ru_us",
        stats.match_hist[static_cast<size_t>(MatcherKind::kRU)], &json);
    json.EndObject();
  }

  {
    TraceRecorder& recorder = TraceRecorder::Global();
    json.Key("trace")
        .BeginObject()
        .KV("recording", recorder.started())
        .KV("dropped_events", recorder.DroppedEventCount())
        .EndObject();
  }

  {
    // v6: resource view at report time (process RSS is sampled fresh, the
    // tagged peaks are whole-run high-water marks).
    ResourceUsage usage = CollectResourceUsage();
    json.Key("resources").BeginObject();
    json.KV("rss_bytes", usage.rss_bytes);
    json.KV("vm_bytes", usage.vm_bytes);
    json.KV("peak_rss_bytes", usage.peak_rss_bytes);
    json.KV("tracked_bytes", usage.tracked_bytes);
    json.KV("tracked_peak_bytes", usage.tracked_peak_bytes);
    json.Key("subsystems").BeginArray();
    for (const ResourceUsage::Subsystem& sub : usage.subsystems) {
      json.BeginObject()
          .KV("tag", sub.tag)
          .KV("current_bytes", sub.current_bytes)
          .KV("peak_bytes", sub.peak_bytes)
          .EndObject();
    }
    json.EndArray();
    SpanProfiler& profiler = SpanProfiler::Global();
    if (profiler.TotalSamples() > 0) {
      json.Key("profile").BeginObject();
      json.KV("total_samples", profiler.TotalSamples());
      json.KV("lost_samples", profiler.LostSamples());
      json.Key("top_spans").BeginArray();
      for (const SpanSelfSample& sample : profiler.TopSelfSamples(10)) {
        json.BeginObject()
            .KV("span", sample.span)
            .KV("self_samples", sample.self_samples)
            .EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndObject();
  }

  if (optimizer.has_optimizer) {
    json.Key("optimizer").BeginObject();
    std::string assignment;
    for (size_t u = 0; u < optimizer.unit_matchers.size(); ++u) {
      if (u > 0) assignment += ",";
      assignment += optimizer.unit_matchers[u];
    }
    json.KV("assignment", assignment);
    json.KV("opt_us", phases.opt_us);
    if (optimizer.predicted_total_us >= 0) {
      json.KV("predicted_total_us", optimizer.predicted_total_us);
    }
    if (optimizer.cost_drift >= 0) {
      json.KV("cost_drift", optimizer.cost_drift);
    }
    if (!optimizer.decisions.empty()) {
      json.Key("decisions").BeginArray();
      for (const OptimizerReport::UnitDecision& d : optimizer.decisions) {
        WriteUnitDecision(d, &json);
      }
      json.EndArray();
    }
    json.EndObject();
  }

  json.Key("units").BeginArray();
  for (size_t u = 0; u < stats.units.size(); ++u) {
    const UnitRunStats& unit = stats.units[u];
    json.BeginObject();
    json.KV("unit", static_cast<int64_t>(u));
    if (u < optimizer.unit_matchers.size()) {
      json.KV("matcher", optimizer.unit_matchers[u]);
    }
    if (u < optimizer.predicted_unit_us.size()) {
      json.KV("predicted_us", optimizer.predicted_unit_us[u]);
    }
    json.KV("actual_us",
            unit.match_us + unit.extract_us + unit.copy_us + unit.capture_us);
    json.KV("match_us", unit.match_us);
    json.KV("extract_us", unit.extract_us);
    json.KV("copy_us", unit.copy_us);
    json.KV("capture_us", unit.capture_us);
    json.KV("input_tuples", unit.input_tuples);
    json.KV("output_tuples", unit.output_tuples);
    json.KV("copied_tuples", unit.copied_tuples);
    json.KV("extracted_tuples", unit.extracted_tuples);
    json.KV("matcher_calls", unit.matcher_calls);
    json.KV("exact_region_hits", unit.exact_region_hits);
    json.KV("chars_extracted", unit.chars_extracted);
    if (meta.histograms_enabled) {
      json.KV("extract_count", unit.extract_hist.count());
      json.KV("extract_p50_us", unit.extract_hist.Percentile(50));
      json.KV("extract_p90_us", unit.extract_hist.Percentile(90));
      json.KV("extract_p99_us", unit.extract_hist.Percentile(99));
      json.KV("extract_max_us", unit.extract_hist.max());
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("counters").BeginObject();
  for (const auto& [name, value] : MetricsRegistry::Global().Snapshot()) {
    json.KV(name, value);
  }
  json.EndObject();

  json.EndObject();
  return json.TakeString();
}

RunReportWriter::~RunReportWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status RunReportWriter::Open(const std::string& path) {
  if (file_ != nullptr) {
    return Status::InvalidArgument("run report writer already open");
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot open run report file " + path);
  }
  path_ = path;
  return Status::OK();
}

Status RunReportWriter::Append(std::string_view line) {
  if (file_ == nullptr) {
    return Status::InvalidArgument("run report writer not open");
  }
  bool ok = std::fwrite(line.data(), 1, line.size(), file_) == line.size();
  ok = std::fputc('\n', file_) != EOF && ok;
  ok = std::fflush(file_) == 0 && ok;
  if (!ok) return Status::IOError("short write to run report file " + path_);
  return Status::OK();
}

Status RunReportWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) {
    return Status::IOError("close failed for run report file " + path_);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace delex
