#include "obs/export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/history.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/mem.h"
#include "obs/profiler.h"

// Build provenance for /statusz (global compile definitions; the
// fallbacks keep non-CMake builds of this TU compiling).
#ifndef DELEX_GIT_SHA
#define DELEX_GIT_SHA "unknown"
#endif
#ifndef DELEX_BUILD_TYPE
#define DELEX_BUILD_TYPE "unknown"
#endif

namespace delex {
namespace obs {

namespace {

// Coarse microsecond ladder for the Prometheus `le` buckets. The fine
// 592-bucket scheme stays internal; scrapes get a stable, human-sized
// view. CumulativeLE only counts fine buckets wholly below each bound, so
// the series is monotone and the +Inf bucket equals _count exactly.
constexpr int64_t kPrometheusBucketBoundsUs[] = {
    1,      2,      5,       10,      25,      50,      100,
    250,    500,    1000,    2500,    5000,    10000,   25000,
    50000,  100000, 250000,  500000,  1000000, 2500000, 10000000,
};

/// Metric-name sanitizer: [a-zA-Z0-9_] pass through, everything else
/// (the registry's dots) becomes '_'; a "delex_" prefix namespaces the
/// exposition.
std::string PrometheusName(const std::string& name) {
  std::string out = "delex_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// A registry name split into Prometheus family + label set. Registry
/// names may carry labels after a '#' as comma-separated k=v pairs
/// ("shard.pages#shard=3" — the sharded engine's per-shard series);
/// they render as real Prometheus labels so one family aggregates across
/// shards. Base and keys are sanitized like names; values are escaped per
/// the text-format rules (backslash, quote, newline).
struct PromName {
  std::string base;    // sanitized family name, "delex_" prefixed
  std::string labels;  // rendered `k="v",k2="v2"`, empty when unlabeled
};

PromName ParsePromName(const std::string& name) {
  PromName out;
  const size_t hash = name.find('#');
  out.base = PrometheusName(name.substr(0, hash));
  if (hash == std::string::npos) return out;
  size_t start = hash + 1;
  while (start < name.size()) {
    size_t comma = name.find(',', start);
    if (comma == std::string::npos) comma = name.size();
    const std::string pair = name.substr(start, comma - start);
    const size_t eq = pair.find('=');
    const std::string key = pair.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : pair.substr(eq + 1);
    if (!key.empty()) {
      if (!out.labels.empty()) out.labels += ',';
      for (char c : key) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.labels += ok ? c : '_';
      }
      out.labels += "=\"";
      for (char c : value) {
        if (c == '\\' || c == '"') out.labels += '\\';
        if (c == '\n') {
          out.labels += "\\n";
          continue;
        }
        out.labels += c;
      }
      out.labels += '"';
    }
    start = comma + 1;
  }
  return out;
}

/// One sample line: family name, optional extra label set merged with the
/// parsed ones, value appended by the caller.
void AppendSampleName(std::string* out, const std::string& family,
                      const std::string& labels) {
  *out += family;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
}

int64_t UptimeMs() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

// ---- /statusz helpers --------------------------------------------------

/// Published generation-history state (see PublishHistoryForStatus).
struct PublishedHistory {
  Mutex mu{"obs.export.published_history"};
  std::string path DELEX_GUARDED_BY(mu);
  std::string line DELEX_GUARDED_BY(mu);
};

PublishedHistory& PublishedHistorySlot() {
  static PublishedHistory* slot = new PublishedHistory();
  return *slot;
}

std::string HtmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendRow(std::string* out, std::string_view key, std::string_view val) {
  *out += "<tr><td>";
  *out += HtmlEscape(key);
  *out += "</td><td>";
  *out += HtmlEscape(val);
  *out += "</td></tr>\n";
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The operational knobs /statusz reports — one row per env var, so an
/// operator sees the effective configuration without shell access.
constexpr const char* kStatusKnobs[] = {
    "DELEX_THREADS",          "DELEX_SHARDS",
    "DELEX_SIMD",             "DELEX_HISTORY",
    "DELEX_HISTORY_RETAIN",   "DELEX_HISTOGRAMS",
    "DELEX_TRACE",            "DELEX_STATS_JSON",
    "DELEX_PARANOID",         "DELEX_LOG_LEVEL",
    "DELEX_METRICS_PORT",     "DELEX_METRICS_SNAPSHOT_MS",
    "DELEX_METRICS_LINGER_MS", "DELEX_PROFILE",
    "DELEX_PROFILE_HZ",       "DELEX_MEM_SAMPLE_MS",
};

/// Human-scale byte rendering for the /statusz memory table: exact bytes
/// stay in /memz; here operators want "312.4 MiB" at a glance.
std::string FormatBytes(int64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    ++u;
  }
  char buf[48];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s (%lld)", v, units[u],
                  static_cast<long long>(bytes));
  }
  return buf;
}

void AppendMemorySection(std::string* html) {
  ResourceUsage usage = CollectResourceUsage();
  *html += "<h2>Memory</h2>\n<table>\n";
  AppendRow(html, "rss", FormatBytes(usage.rss_bytes));
  AppendRow(html, "peak_rss", FormatBytes(usage.peak_rss_bytes));
  AppendRow(html, "vm", FormatBytes(usage.vm_bytes));
  AppendRow(html, "tracked", FormatBytes(usage.tracked_bytes));
  AppendRow(html, "tracked_peak", FormatBytes(usage.tracked_peak_bytes));
  AppendRow(html, "mem_sampler",
            MemSampler::Global().running()
                ? "running (" +
                      std::to_string(MemSampler::Global().sample_count()) +
                      " samples)"
                : "off");
  *html += "</table>\n";

  *html += "<h3>Per-subsystem (tagged)</h3>\n<table>\n";
  *html += "<tr><th>subsystem</th><th>current</th><th>peak</th></tr>\n";
  for (const ResourceUsage::Subsystem& sub : usage.subsystems) {
    *html += "<tr><td>" + HtmlEscape(sub.tag) + "</td><td>" +
             HtmlEscape(FormatBytes(sub.current_bytes)) + "</td><td>" +
             HtmlEscape(FormatBytes(sub.peak_bytes)) + "</td></tr>\n";
  }
  *html += "</table>\n";
}

void AppendLastGenSection(std::string* html) {
  std::string line;
  {
    PublishedHistory& slot = PublishedHistorySlot();
    MutexLock lock(&slot.mu);
    line = slot.line;
  }
  *html += "<h2>Last generation</h2>\n";
  if (line.empty()) {
    *html += "<p>(no generation completed yet)</p>\n";
    return;
  }
  HistoryRecord rec;
  Status st = HistoryStore::ParseLine(line, &rec);
  if (!st.ok()) {
    *html += "<p>unparseable history record: " + HtmlEscape(st.ToString()) +
             "</p>\n";
    return;
  }
  *html += "<table>\n";
  AppendRow(html, "generation", std::to_string(rec.gen));
  AppendRow(html, "solution", rec.solution);
  if (!rec.tag.empty()) AppendRow(html, "tag", rec.tag);
  AppendRow(html, "assignment", rec.assignment);
  AppendRow(html, "pages", std::to_string(rec.pages));
  AppendRow(html, "pages_identical", std::to_string(rec.pages_identical));
  AppendRow(html, "result_tuples", std::to_string(rec.result_tuples));
  AppendRow(html, "total_us", std::to_string(rec.total_us));
  AppendRow(html,
            "phases (match/extract/copy/opt/capture/others µs)",
            std::to_string(rec.match_us) + " / " +
                std::to_string(rec.extract_us) + " / " +
                std::to_string(rec.copy_us) + " / " +
                std::to_string(rec.opt_us) + " / " +
                std::to_string(rec.capture_us) + " / " +
                std::to_string(rec.others_us));
  if (rec.has_optimizer) {
    if (rec.predicted_total_us >= 0) {
      AppendRow(html, "predicted_total_us",
                FormatDouble(rec.predicted_total_us));
    }
    if (rec.cost_drift >= 0) {
      AppendRow(html, "cost_drift", FormatDouble(rec.cost_drift));
    }
    AppendRow(html, "audited decisions", std::to_string(rec.decisions.size()));
  }
  AppendRow(html, "reuse_corrupt_drops",
            std::to_string(rec.reuse_corrupt_drops));
  AppendRow(html, "trace_dropped_events",
            std::to_string(rec.trace_dropped_events));
  *html += "</table>\n";

  if (!rec.shards.empty()) {
    *html += "<h2>Shards (last generation)</h2>\n<table>\n";
    *html +=
        "<tr><th>shard</th><th>pages</th><th>identical</th>"
        "<th>tuples</th><th>total µs</th><th>corrupt drops</th>"
        "<th>assignment</th><th>cost drift</th></tr>\n";
    for (const RunReportMeta::ShardSummary& s : rec.shards) {
      *html += "<tr><td>" + std::to_string(s.shard) + "</td><td>" +
               std::to_string(s.pages) + "</td><td>" +
               std::to_string(s.pages_identical) + "</td><td>" +
               std::to_string(s.result_tuples) + "</td><td>" +
               std::to_string(s.total_us) + "</td><td>" +
               std::to_string(s.reuse_corrupt_drops) + "</td><td>" +
               HtmlEscape(s.assignment) + "</td><td>" +
               (s.cost_drift >= 0 ? FormatDouble(s.cost_drift)
                                  : std::string("-")) +
               "</td></tr>\n";
    }
    *html += "</table>\n";
  }
}

std::string StatuszHtml() {
  std::string html =
      "<!DOCTYPE html>\n<html><head><title>delex /statusz</title>"
      "<style>body{font-family:monospace}table{border-collapse:collapse}"
      "td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
      "</style></head><body>\n<h1>delex /statusz</h1>\n";

  html += "<table>\n";
  AppendRow(&html, "uptime_ms", std::to_string(UptimeMs()));
  AppendRow(&html, "git_sha", DELEX_GIT_SHA);
  AppendRow(&html, "build_type", DELEX_BUILD_TYPE);
  {
    PublishedHistory& slot = PublishedHistorySlot();
    MutexLock lock(&slot.mu);
    AppendRow(&html, "history_path",
              slot.path.empty() ? "(none)" : slot.path);
  }
  html += "</table>\n";

  html += "<h2>Knobs</h2>\n<table>\n";
  for (const char* knob : kStatusKnobs) {
    const char* value = std::getenv(knob);
    AppendRow(&html, knob, value == nullptr ? "(unset)" : value);
  }
  html += "</table>\n";

  AppendMemorySection(&html);
  AppendLastGenSection(&html);

  // The label-aware renderer's view of the labeled families — the same
  // split /metrics uses, shown as family{labels} rows (per-shard series
  // group together because snapshots are name-sorted).
  MetricsSnapshot snapshot = MetricsRegistry::Global().FullSnapshot();
  std::string labeled;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.find('#') == std::string::npos) continue;
    PromName prom = ParsePromName(name);
    std::string sample;
    AppendSampleName(&sample, prom.base + "_total", prom.labels);
    labeled += "<tr><td>" + HtmlEscape(sample) + "</td><td>" +
               std::to_string(value) + "</td></tr>\n";
  }
  if (!labeled.empty()) {
    html += "<h2>Labeled counters</h2>\n<table>\n";
    html += labeled;
    html += "</table>\n";
  }

  html += "</body></html>\n";
  return html;
}

/// Serves the published history file verbatim; falls back to the last
/// published line so /history works even for disabled-on-disk stores.
bool HistoryBody(std::string* body) {
  std::string path;
  std::string line;
  {
    PublishedHistory& slot = PublishedHistorySlot();
    MutexLock lock(&slot.mu);
    path = slot.path;
    line = slot.line;
  }
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      char buf[1 << 14];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        body->append(buf, n);
      }
      std::fclose(f);
      return true;
    }
  }
  if (!line.empty()) {
    *body = line;
    *body += '\n';
    return true;
  }
  return false;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  // The snapshot maps are name-sorted and '#' sorts below every
  // [a-z0-9._] name character, so all labeled series of one family are
  // contiguous — emit HELP/TYPE once per family, then every sample.
  std::string out;
  std::string last_family;
  for (const auto& [name, value] : snapshot.counters) {
    PromName prom = ParsePromName(name);
    const std::string family = prom.base + "_total";
    if (family != last_family) {
      out += "# HELP " + family + " Delex counter " + prom.base + "\n";
      out += "# TYPE " + family + " counter\n";
      last_family = family;
    }
    AppendSampleName(&out, family, prom.labels);
    out += ' ';
    AppendInt(&out, value);
    out += '\n';
  }
  last_family.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    PromName prom = ParsePromName(name);
    if (prom.base != last_family) {
      out += "# HELP " + prom.base + " Delex gauge " + prom.base + "\n";
      out += "# TYPE " + prom.base + " gauge\n";
      last_family = prom.base;
    }
    AppendSampleName(&out, prom.base, prom.labels);
    out += ' ';
    AppendInt(&out, value);
    out += '\n';
  }
  last_family.clear();
  for (const auto& [name, hist] : snapshot.histograms) {
    PromName prom = ParsePromName(name);
    if (prom.base != last_family) {
      out += "# HELP " + prom.base + " Delex latency histogram " + prom.base +
             " (microseconds)\n";
      out += "# TYPE " + prom.base + " histogram\n";
      last_family = prom.base;
    }
    const std::string le_prefix =
        prom.labels.empty() ? "" : prom.labels + ",";
    for (int64_t bound : kPrometheusBucketBoundsUs) {
      out += prom.base + "_bucket{" + le_prefix + "le=\"";
      AppendInt(&out, bound);
      out += "\"} ";
      AppendInt(&out, hist.CumulativeLE(bound));
      out += '\n';
    }
    out += prom.base + "_bucket{" + le_prefix + "le=\"+Inf\"} ";
    AppendInt(&out, hist.count());
    out += '\n';
    AppendSampleName(&out, prom.base + "_sum", prom.labels);
    out += ' ';
    AppendInt(&out, hist.sum());
    out += '\n';
    AppendSampleName(&out, prom.base + "_count", prom.labels);
    out += ' ';
    AppendInt(&out, hist.count());
    out += '\n';
  }
  return out;
}

std::string PrometheusText() {
  return PrometheusText(MetricsRegistry::Global().FullSnapshot());
}

std::string MetricsSnapshotJsonLine() {
  MetricsSnapshot snapshot = MetricsRegistry::Global().FullSnapshot();
  JsonWriter json;
  json.BeginObject();
  json.KV("uptime_ms", UptimeMs());
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) json.KV(name, value);
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) json.KV(name, value);
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, hist] : snapshot.histograms) {
    json.Key(name)
        .BeginObject()
        .KV("count", hist.count())
        .KV("sum", hist.sum())
        .KV("max", hist.max())
        .KV("p50", hist.Percentile(50))
        .KV("p90", hist.Percentile(90))
        .KV("p99", hist.Percentile(99))
        .EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

// ---- MetricsSnapshotWriter ---------------------------------------------

MetricsSnapshotWriter& MetricsSnapshotWriter::Global() {
  static MetricsSnapshotWriter* writer = new MetricsSnapshotWriter();
  return *writer;
}

Status MetricsSnapshotWriter::Start(const std::string& path, int interval_ms) {
  MutexLock lock(&mu_);
  if (running_) {
    return Status::InvalidArgument("metrics snapshot writer already running");
  }
  if (path.empty() || interval_ms <= 0) {
    return Status::InvalidArgument("bad snapshot path or interval");
  }
  path_ = path;
  interval_ms_ = interval_ms;
  stop_requested_ = false;
  running_ = true;
  // Crash-flush: a DELEX_CHECK failure appends one final snapshot so the
  // registry state at the moment of death is on disk. (Lock-free slot
  // registration — safe under mu_.)
  RegisterCrashFlushHook(
      [] { (void)MetricsSnapshotWriter::Global().WriteNow(); });
  // Assigned under mu_ so the handle stays guarded; the worker's first
  // action is to lock mu_, so it simply blocks until Start returns.
  thread_ = std::thread([this] {
    for (;;) {
      {
        MutexLock worker_lock(&mu_);
        if (stop_requested_) return;
      }
      // Write with the lock dropped — a slow disk must not block Stop().
      Status st = WriteNow();
      if (!st.ok()) {
        DELEX_LOG(WARN) << "metrics snapshot: " << st.ToString();
      }
      MutexLock worker_lock(&mu_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(interval_ms_);
      bool timed_out = false;
      while (!stop_requested_ && !timed_out) {
        timed_out = cv_.WaitUntil(&mu_, deadline);
      }
      if (stop_requested_) return;
    }
  });
  return Status::OK();
}

Status MetricsSnapshotWriter::WriteNow() {
  std::string path;
  {
    MutexLock lock(&mu_);
    if (path_.empty()) {
      return Status::InvalidArgument("metrics snapshot writer never started");
    }
    path = path_;
  }
  std::string line = MetricsSnapshotJsonLine();
  line += '\n';
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics snapshot file " + path);
  }
  size_t written = std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
  if (written != line.size()) {
    return Status::IOError("short write to metrics snapshot file " + path);
  }
  return Status::OK();
}

void MetricsSnapshotWriter::Stop() {
  std::thread to_join;
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_requested_ = true;
    to_join = std::move(thread_);
  }
  cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
  MutexLock lock(&mu_);
  running_ = false;
}

bool MetricsSnapshotWriter::running() const {
  MutexLock lock(&mu_);
  return running_;
}

std::string MetricsSnapshotWriter::path() const {
  MutexLock lock(&mu_);
  return path_;
}

// ---- StatsServer -------------------------------------------------------

StatsServer& StatsServer::Global() {
  static StatsServer* server = new StatsServer();
  return *server;
}

Status StatsServer::Start(int port) {
  MutexLock lock(&mu_);
  if (running_) {
    return Status::InvalidArgument("stats server already running on port " +
                                   std::to_string(port_));
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("bad stats server port");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("stats server: socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // operational, not public
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // delex-lint: allow(reinterpret-cast) -- the BSD sockets ABI requires it
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("stats server: cannot bind 127.0.0.1:" +
                           std::to_string(port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError("stats server: listen() failed");
  }
  socklen_t len = sizeof(addr);
  // delex-lint: allow(reinterpret-cast) -- the BSD sockets ABI requires it
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IOError("stats server: getsockname() failed");
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(addr.sin_port));
  stop_requested_.store(false, std::memory_order_release);
  running_ = true;
  thread_ = std::thread([this, fd] { Serve(fd); });
  MetricsRegistry::Global().GetGauge("export.stats_server_port")->Set(port_);
  DELEX_LOG(INFO) << "stats server listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void StatsServer::Serve(int listen_fd) {
  for (;;) {
    int client = ::accept(listen_fd, nullptr, nullptr);
    if (stop_requested_.load(std::memory_order_acquire)) {
      if (client >= 0) ::close(client);
      return;
    }
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down or broken
    }
    // Bounded read AND write: only the request line matters, and a
    // stalled client (connect-and-hang, or one that never drains its
    // receive window) must not wedge the single accept loop. The send
    // loop additionally enforces an overall deadline — SO_SNDTIMEO only
    // bounds each send() call, not a drip-feeding reader.
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    char buf[2048];
    ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    std::string target;
    if (n > 0) {
      buf[n] = '\0';
      // "GET <target> HTTP/1.x" — anything else falls through to 404.
      if (std::strncmp(buf, "GET ", 4) == 0) {
        const char* start = buf + 4;
        const char* end = std::strchr(start, ' ');
        if (end != nullptr) target.assign(start, end);
      }
    }
    std::string body;
    const char* status_line = "HTTP/1.1 404 Not Found";
    const char* content_type = "text/plain; charset=utf-8";
    if (target == "/metrics") {
      status_line = "HTTP/1.1 200 OK";
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = PrometheusText();
    } else if (target == "/healthz") {
      status_line = "HTTP/1.1 200 OK";
      body = "ok\n";
    } else if (target == "/statusz") {
      status_line = "HTTP/1.1 200 OK";
      content_type = "text/html; charset=utf-8";
      body = StatuszHtml();
    } else if (target == "/varz") {
      status_line = "HTTP/1.1 200 OK";
      content_type = "application/json; charset=utf-8";
      body = MetricsSnapshotJsonLine();
      body += '\n';
    } else if (target == "/history") {
      if (HistoryBody(&body)) {
        status_line = "HTTP/1.1 200 OK";
        content_type = "application/x-ndjson; charset=utf-8";
      } else {
        body = "no history published\n";
      }
    } else if (target == "/memz") {
      status_line = "HTTP/1.1 200 OK";
      content_type = "application/json; charset=utf-8";
      body = MemzJson();
    } else if (target == "/profilez") {
      status_line = "HTTP/1.1 200 OK";
      body = SpanProfiler::Global().FoldedText();
      if (body.empty()) body = "(no samples)\n";
    } else {
      body = "not found\n";
    }
    std::string response = status_line;
    response += "\r\nContent-Type: ";
    response += content_type;
    response += "\r\nContent-Length: " + std::to_string(body.size());
    response += "\r\nConnection: close\r\n\r\n";
    response += body;
    const auto send_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    size_t sent = 0;
    while (sent < response.size()) {
      ssize_t w = ::send(client, response.data() + sent, response.size() - sent,
                         0);
      if (w <= 0) break;  // error or SO_SNDTIMEO expiry — give up on client
      sent += static_cast<size_t>(w);
      if (std::chrono::steady_clock::now() > send_deadline) break;
    }
    ::close(client);
  }
}

void StatsServer::Stop() {
  std::thread to_join;
  int fd = -1;
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_requested_.store(true, std::memory_order_release);
    fd = listen_fd_;
    listen_fd_ = -1;
    to_join = std::move(thread_);
  }
  // Unblocks accept(): shutdown makes the blocked call return on Linux.
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (to_join.joinable()) to_join.join();
  MutexLock lock(&mu_);
  port_ = 0;
  running_ = false;
}

bool StatsServer::running() const {
  MutexLock lock(&mu_);
  return running_;
}

int StatsServer::port() const {
  MutexLock lock(&mu_);
  return port_;
}

// ---- Introspection publication -----------------------------------------

void PublishHistoryForStatus(const std::string& history_path,
                             const std::string& line) {
  PublishedHistory& slot = PublishedHistorySlot();
  MutexLock lock(&slot.mu);
  if (!history_path.empty()) slot.path = history_path;
  if (!line.empty()) slot.line = line;
}

std::string PublishedHistoryPath() {
  PublishedHistory& slot = PublishedHistorySlot();
  MutexLock lock(&slot.mu);
  return slot.path;
}

std::string PublishedHistoryLine() {
  PublishedHistory& slot = PublishedHistorySlot();
  MutexLock lock(&slot.mu);
  return slot.line;
}

// ---- Env wiring --------------------------------------------------------

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

}  // namespace

void MaybeStartExportersFromEnv() {
  static std::atomic<bool> done{false};
  bool expected = false;
  if (!done.compare_exchange_strong(expected, true)) return;

  MaybeStartMemSamplerFromEnv();
  MaybeStartProfilerFromEnv();

  int snapshot_ms = EnvInt("DELEX_METRICS_SNAPSHOT_MS", 0);
  if (snapshot_ms > 0) {
    const char* path_env = std::getenv("DELEX_METRICS_SNAPSHOT_PATH");
    std::string path = path_env != nullptr && *path_env != '\0'
                           ? path_env
                           : "delex_metrics.jsonl";
    Status st = MetricsSnapshotWriter::Global().Start(path, snapshot_ms);
    if (!st.ok()) {
      DELEX_LOG(WARN) << "DELEX_METRICS_SNAPSHOT_MS: " << st.ToString();
    } else {
      // Final snapshot + clean join at exit.
      std::atexit([] {
        (void)MetricsSnapshotWriter::Global().WriteNow();
        MetricsSnapshotWriter::Global().Stop();
      });
    }
  }

  const char* port_env = std::getenv("DELEX_METRICS_PORT");
  if (port_env != nullptr && *port_env != '\0') {
    Status st = StatsServer::Global().Start(std::atoi(port_env));
    if (!st.ok()) {
      DELEX_LOG(WARN) << "DELEX_METRICS_PORT: " << st.ToString();
    } else {
      // Optionally keep the server scrapeable for a short window after a
      // fast run finishes (CI scrapes a backgrounded portal), then shut
      // it down so the process can exit cleanly.
      std::atexit([] {
        int linger_ms = EnvInt("DELEX_METRICS_LINGER_MS", 0);
        if (linger_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
        }
        StatsServer::Global().Stop();
      });
    }
  }
}

}  // namespace obs
}  // namespace delex
