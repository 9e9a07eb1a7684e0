#include "obs/history.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/hash.h"
#include "obs/json_reader.h"

namespace delex {
namespace obs {

namespace {

// Envelope layout constants — see the header comment. The crc hex field
// sits at a fixed offset so validators can check lines without a JSON
// parser: prefix [0,8), hex [8,24), mid [24,32), rec [32,len-1).
constexpr std::string_view kEnvelopePrefix = "{\"crc\":\"";
constexpr std::string_view kEnvelopeMid = "\",\"rec\":";
constexpr size_t kRecOffset = 32;
constexpr size_t kMinLineSize = kRecOffset + 3;  // "{}" rec + final '}'

bool ParseHex16(std::string_view hex, uint64_t* out) {
  *out = 0;
  if (hex.size() != 16) return false;
  for (char c : hex) {
    *out <<= 4;
    if (c >= '0' && c <= '9') {
      *out |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      *out |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

void ParseDecision(const JsonValue& v, OptimizerReport::UnitDecision* d) {
  d->unit = static_cast<int>(v.At("unit").IntOr(0));
  d->winner = v.At("winner").StringOr("");
  d->runner_up = v.At("runner_up").StringOr("");
  d->margin_us = v.At("margin_us").NumberOr(0);
  for (const auto& [matcher, est] : v.At("candidates").object) {
    d->candidate_us.emplace_back(matcher, est.NumberOr(0));
  }
  const JsonValue& in = v.At("inputs");
  d->f = in.At("f").NumberOr(0);
  d->m = in.At("m").NumberOr(0);
  d->a = in.At("a").NumberOr(0);
  d->l = in.At("l").NumberOr(0);
  d->history_window = static_cast<int>(in.At("history").IntOr(0));
  d->source = in.At("source").StringOr("");
}

// The run-report key's value when present, else the key a pre-v9
// history body used for the same field.
const JsonValue& KeyOr(const JsonValue& v, std::string_view key,
                       std::string_view old_key) {
  return v.Has(key) ? v.At(key) : v.At(old_key);
}

void ParseShardRow(const JsonValue& v, RunReportMeta::ShardSummary* s) {
  s->shard = static_cast<int>(v.At("shard").IntOr(0));
  s->pages = v.At("pages").IntOr(0);
  s->pages_identical = v.At("pages_identical").IntOr(0);
  s->result_tuples = v.At("result_tuples").IntOr(0);
  s->total_us = v.At("total_us").IntOr(0);
  s->reuse_corrupt_drops = v.At("reuse_corrupt_drops").IntOr(0);
  s->assignment = v.At("assignment").StringOr("");
  s->cost_drift = v.At("cost_drift").NumberOr(-1);
}

// True when the file exists, is non-empty, and does not end in '\n' — a
// torn tail from a crashed writer that the next append must heal.
bool TailNeedsNewline(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool torn = false;
  if (std::fseek(f, 0, SEEK_END) == 0 && std::ftell(f) > 0 &&
      std::fseek(f, -1, SEEK_END) == 0) {
    torn = std::fgetc(f) != '\n';
  }
  std::fclose(f);
  return torn;
}

Status ReadWholeFile(const std::string& path, std::string* out,
                     bool* missing) {
  out->clear();
  *missing = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *missing = true;
    return Status::OK();
  }
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("cannot read history file " + path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open history temp file " + tmp);
  }
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to history temp file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot replace history file " + path);
  }
  return Status::OK();
}

void NoteDrop(HistoryLoadInfo* info, const Status& why) {
  if (info == nullptr) return;
  ++info->corrupt_dropped;
  if (info->first_error.ok()) info->first_error = why;
}

}  // namespace

std::string HistoryStore::FrameLine(std::string_view body) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  std::string line;
  line.reserve(kRecOffset + body.size() + 1);
  line += kEnvelopePrefix;
  line += hex;
  line += kEnvelopeMid;
  line += body;
  line += '}';
  return line;
}

Status HistoryStore::ParseLine(std::string_view line, HistoryRecord* rec) {
  *rec = HistoryRecord();
  if (line.size() < kMinLineSize ||
      line.substr(0, kEnvelopePrefix.size()) != kEnvelopePrefix ||
      line.substr(24, kEnvelopeMid.size()) != kEnvelopeMid ||
      line.back() != '}') {
    return Status::Corruption("history line: bad envelope framing");
  }
  uint64_t want = 0;
  if (!ParseHex16(line.substr(8, 16), &want)) {
    return Status::Corruption("history line: bad checksum field");
  }
  std::string_view body =
      line.substr(kRecOffset, line.size() - kRecOffset - 1);
  if (Fnv1a64(body) != want) {
    return Status::Corruption("history line: checksum mismatch");
  }
  JsonValue v;
  DELEX_RETURN_NOT_OK(ParseJson(body, &v));
  if (!v.is_object()) {
    return Status::Corruption("history record: not a JSON object");
  }
  rec->gen = static_cast<int>(KeyOr(v, "generation", "gen").IntOr(-1));
  if (rec->gen < 0) {
    return Status::Corruption("history record: missing generation");
  }
  rec->solution = v.At("solution").StringOr("");
  rec->tag = v.At("tag").StringOr("");
  rec->warmup = v.At("warmup").BoolOr(false);
  rec->threads = static_cast<int>(v.At("threads").IntOr(1));
  rec->num_shards = static_cast<int>(v.At("num_shards").IntOr(1));
  rec->fast_path = v.At("fast_path").BoolOr(true);
  rec->assignment = v.At("assignment").StringOr("");
  rec->pages = v.At("pages").IntOr(0);
  rec->pages_identical = v.At("pages_identical").IntOr(0);
  rec->result_tuples = v.At("result_tuples").IntOr(0);

  const JsonValue& phases = v.At("phases");
  rec->match_us = phases.At("match_us").IntOr(0);
  rec->extract_us = phases.At("extract_us").IntOr(0);
  rec->copy_us = phases.At("copy_us").IntOr(0);
  rec->opt_us = phases.At("opt_us").IntOr(0);
  rec->capture_us = phases.At("capture_us").IntOr(0);
  rec->total_us = phases.At("total_us").IntOr(0);
  rec->others_us = phases.At("others_us").IntOr(0);
  rec->phase_drift_us = phases.At("phase_drift_us").IntOr(0);

  if (v.Has("reader")) {
    rec->reader_busy_us = v.At("reader").At("busy_us").IntOr(0);
    rec->reader_wait_us = v.At("reader").At("wait_us").IntOr(0);
  }
  rec->identical_runs = v.At("identical_runs").IntOr(-1);

  const JsonValue& counters = KeyOr(v, "fast_path_counters", "counters");
  rec->demote_result_cache = counters.At("demote_result_cache").IntOr(0);
  rec->demote_missing_group = counters.At("demote_missing_group").IntOr(0);
  rec->decode_copy_groups = counters.At("decode_copy_groups").IntOr(0);
  rec->reuse_corrupt_drops = counters.At("reuse_corrupt_drops").IntOr(0);
  rec->trace_dropped_events =
      v.Has("trace") ? v.At("trace").At("dropped_events").IntOr(0)
                     : v.At("counters").At("trace_dropped_events").IntOr(0);

  if (v.Has("optimizer")) {
    const JsonValue& opt = v.At("optimizer");
    rec->has_optimizer = true;
    rec->predicted_total_us = opt.At("predicted_total_us").NumberOr(-1);
    rec->cost_drift = opt.At("cost_drift").NumberOr(-1);
    for (const JsonValue& row : opt.At("decisions").array) {
      OptimizerReport::UnitDecision d;
      ParseDecision(row, &d);
      rec->decisions.push_back(std::move(d));
    }
  }
  for (const JsonValue& row : v.At("units").array) {
    HistoryRecord::UnitSummary unit;
    unit.matcher = row.At("matcher").StringOr("");
    unit.predicted_us = row.At("predicted_us").NumberOr(-1);
    unit.actual_us = row.At("actual_us").NumberOr(0);
    rec->units.push_back(std::move(unit));
  }
  for (const JsonValue& row : v.At("shards").array) {
    RunReportMeta::ShardSummary shard;
    ParseShardRow(row, &shard);
    rec->shards.push_back(std::move(shard));
  }
  if (v.Has("resources")) {
    const JsonValue& res = v.At("resources");
    rec->has_resources = true;
    rec->resources.rss_bytes = res.At("rss_bytes").IntOr(0);
    rec->resources.vm_bytes = res.At("vm_bytes").IntOr(0);
    rec->resources.peak_rss_bytes = res.At("peak_rss_bytes").IntOr(0);
    rec->resources.tracked_bytes = res.At("tracked_bytes").IntOr(0);
    rec->resources.tracked_peak_bytes =
        res.At("tracked_peak_bytes").IntOr(0);
    for (const JsonValue& row : res.At("subsystems").array) {
      ResourceUsage::Subsystem sub;
      sub.tag = row.At("tag").StringOr("");
      sub.current_bytes = row.At("current_bytes").IntOr(0);
      sub.peak_bytes = row.At("peak_bytes").IntOr(0);
      rec->resources.subsystems.push_back(std::move(sub));
    }
    // The run report nests the profiler rollup; pre-v9 history bodies
    // kept it flat in the resources block.
    const bool nested = res.Has("profile");
    const JsonValue& profile = nested ? res.At("profile") : res;
    rec->profile_samples =
        profile.At(nested ? "total_samples" : "profile_samples").IntOr(0);
    rec->profile_lost =
        profile.At(nested ? "lost_samples" : "profile_lost").IntOr(0);
    for (const JsonValue& row : profile.At("top_spans").array) {
      SpanSelfSample sample;
      sample.span = row.At("span").StringOr("");
      sample.self_samples = row.At("self_samples").IntOr(0);
      rec->top_spans.push_back(std::move(sample));
    }
  }
  rec->raw = std::string(line);
  return Status::OK();
}

Status HistoryStore::Append(std::string_view body) {
  std::string line = FrameLine(body);
  if (options_.retain_gens > 0) {
    // Compacting append: keep the newest retain_gens records (including
    // this one), drop anything that no longer verifies, and replace the
    // file atomically so readers never see a half-written store.
    std::vector<HistoryRecord> kept;
    DELEX_RETURN_NOT_OK(Load(&kept, nullptr));
    std::string data;
    size_t first = 0;
    const size_t budget = static_cast<size_t>(options_.retain_gens);
    if (kept.size() + 1 > budget) first = kept.size() + 1 - budget;
    for (size_t i = first; i < kept.size(); ++i) {
      data += kept[i].raw;
      data += '\n';
    }
    data += line;
    data += '\n';
    return WriteFileAtomic(path_, data);
  }

  std::string out;
  if (TailNeedsNewline(path_)) out += '\n';
  out += line;
  out += '\n';
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open history file " + path_);
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IOError("short write to history file " + path_);
  return Status::OK();
}

Status HistoryStore::Load(std::vector<HistoryRecord>* out,
                          HistoryLoadInfo* info) const {
  return LoadFile(path_, out, info);
}

Status HistoryStore::LoadFile(const std::string& path,
                              std::vector<HistoryRecord>* out,
                              HistoryLoadInfo* info) {
  out->clear();
  std::string data;
  bool missing = false;
  DELEX_RETURN_NOT_OK(ReadWholeFile(path, &data, &missing));
  if (missing) return Status::OK();

  size_t pos = 0;
  while (pos < data.size()) {
    size_t eol = data.find('\n', pos);
    std::string_view line(data.data() + pos,
                          (eol == std::string::npos ? data.size() : eol) -
                              pos);
    pos = eol == std::string::npos ? data.size() : eol + 1;
    if (line.empty()) continue;
    HistoryRecord rec;
    Status st = ParseLine(line, &rec);
    if (!st.ok()) {
      NoteDrop(info, st);
      continue;
    }
    if (!out->empty() && rec.gen <= out->back().gen) {
      NoteDrop(info,
               Status::Corruption("history record: out-of-order generation"));
      continue;
    }
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

bool HistoryEnabledFromEnv() {
  const char* v = std::getenv("DELEX_HISTORY");
  return v == nullptr || std::string_view(v) != "0";
}

int HistoryRetainFromEnv() {
  const char* v = std::getenv("DELEX_HISTORY_RETAIN");
  if (v == nullptr || *v == '\0') return 0;
  int n = std::atoi(v);
  return n > 0 ? n : 0;
}

}  // namespace obs
}  // namespace delex
