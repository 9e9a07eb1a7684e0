// delex_inspect — offline reader for a work dir's generation history
// (obs/history.h). Four questions, answerable from the file alone:
//
//   delex_inspect summary   <history.jsonl>
//       one row per generation: plan, volume, wall clock, cost drift.
//   delex_inspect diff      <history.jsonl> [<genA> <genB>]
//       regression attribution between two generations (default: the
//       last two): which phase moved, how the pipeline's reader stage
//       moved, which unit moved, which shard moved, and — for every
//       matcher switch — the audited cost margin that justified it.
//   delex_inspect decisions <history.jsonl> <gen>
//       the optimizer's full per-unit candidate table for one generation.
//   delex_inspect mem       <history.jsonl> [genA genB]
//       per-subsystem memory attribution per generation, plus a
//       gen-over-gen diff of RSS / tracked bytes (default: last two).
//
// Corrupt or out-of-order records are skipped with a note on stderr
// (the reader's Status::Corruption contract); exit code is 0 on success,
// 1 on usage or I/O errors, 2 when a requested generation is absent.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/history.h"

namespace delex {
namespace {

using obs::HistoryLoadInfo;
using obs::HistoryRecord;
using obs::HistoryStore;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: delex_inspect summary   <history.jsonl>\n"
               "       delex_inspect diff      <history.jsonl> [genA genB]\n"
               "       delex_inspect decisions <history.jsonl> <gen>\n"
               "       delex_inspect mem       <history.jsonl> [genA genB]\n");
}

int LoadHistory(const char* path, std::vector<HistoryRecord>* records) {
  HistoryLoadInfo info;
  Status st = HistoryStore::LoadFile(path, records, &info);
  if (!st.ok()) {
    std::fprintf(stderr, "delex_inspect: %s\n", st.ToString().c_str());
    return 1;
  }
  if (info.corrupt_dropped > 0) {
    std::fprintf(stderr,
                 "delex_inspect: dropped %" PRId64
                 " corrupt/out-of-order record(s): %s\n",
                 info.corrupt_dropped, info.first_error.ToString().c_str());
  }
  if (records->empty()) {
    std::fprintf(stderr, "delex_inspect: %s holds no valid records\n", path);
    return 2;
  }
  return 0;
}

const HistoryRecord* FindGen(const std::vector<HistoryRecord>& records,
                             int gen) {
  for (const HistoryRecord& r : records) {
    if (r.gen == gen) return &r;
  }
  return nullptr;
}

std::string PercentDelta(int64_t from, int64_t to) {
  if (from == 0) return to == 0 ? "+0.0%" : "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                100.0 * static_cast<double>(to - from) /
                    static_cast<double>(from));
  return buf;
}

int RunSummary(const std::vector<HistoryRecord>& records) {
  std::printf("%4s %6s %-24s %8s %10s %8s %10s %10s\n", "gen", "warmup",
              "assignment", "pages", "identical", "tuples", "total_us",
              "cost_drift");
  for (const HistoryRecord& r : records) {
    char drift[32] = "-";
    if (r.cost_drift >= 0) {
      std::snprintf(drift, sizeof(drift), "%.3f", r.cost_drift);
    }
    std::printf("%4d %6s %-24s %8" PRId64 " %10" PRId64 " %8" PRId64
                " %10" PRId64 " %10s\n",
                r.gen, r.warmup ? "yes" : "no",
                r.assignment.empty() ? "-" : r.assignment.c_str(), r.pages,
                r.pages_identical, r.result_tuples, r.total_us, drift);
  }
  return 0;
}

void DiffPhase(const char* name, int64_t a, int64_t b) {
  std::printf("  %-16s %10" PRId64 " -> %10" PRId64 "  (%+" PRId64 ", %s)\n",
              name, a, b, b - a, PercentDelta(a, b).c_str());
}

/// DiffPhase for a field that older records predate (< 0 = absent): the
/// row is printed when either side has it, with '-' for the side that
/// does not.
void DiffOptional(const char* name, int64_t a, int64_t b) {
  if (a >= 0 && b >= 0) {
    DiffPhase(name, a, b);
  } else {
    std::printf("  %-16s %10s -> %10s\n", name,
                a >= 0 ? std::to_string(a).c_str() : "-",
                b >= 0 ? std::to_string(b).c_str() : "-");
  }
}

int RunDiff(const std::vector<HistoryRecord>& records, const HistoryRecord* a,
            const HistoryRecord* b) {
  (void)records;
  std::printf("diff gen %d -> gen %d (%s%s%s)\n", a->gen, b->gen,
              b->solution.c_str(), b->tag.empty() ? "" : ", tag=",
              b->tag.c_str());
  std::printf("phases (µs):\n");
  DiffPhase("total_us", a->total_us, b->total_us);
  DiffPhase("match_us", a->match_us, b->match_us);
  DiffPhase("extract_us", a->extract_us, b->extract_us);
  DiffPhase("copy_us", a->copy_us, b->copy_us);
  DiffPhase("opt_us", a->opt_us, b->opt_us);
  DiffPhase("capture_us", a->capture_us, b->capture_us);
  DiffPhase("others_us", a->others_us, b->others_us);
  if (a->identical_runs >= 0 || b->identical_runs >= 0) {
    std::printf("reader stage:\n");
    DiffOptional("reader.busy_us", a->reader_busy_us, b->reader_busy_us);
    DiffOptional("reader.wait_us", a->reader_wait_us, b->reader_wait_us);
    DiffOptional("identical_runs", a->identical_runs, b->identical_runs);
  }

  std::printf("units:\n");
  const size_t num_units = std::max(a->units.size(), b->units.size());
  for (size_t u = 0; u < num_units; ++u) {
    const char* ma = u < a->units.size() && !a->units[u].matcher.empty()
                         ? a->units[u].matcher.c_str()
                         : "-";
    const char* mb = u < b->units.size() && !b->units[u].matcher.empty()
                         ? b->units[u].matcher.c_str()
                         : "-";
    const double actual_a = u < a->units.size() ? a->units[u].actual_us : 0;
    const double actual_b = u < b->units.size() ? b->units[u].actual_us : 0;
    if (std::string(ma) != mb && *ma != '-' && *mb != '-') {
      // A matcher switch: attribute it to the audited margin of the
      // newer generation's decision for this unit, when recorded.
      const obs::OptimizerReport::UnitDecision* decision = nullptr;
      for (const auto& d : b->decisions) {
        if (d.unit == static_cast<int>(u)) {
          decision = &d;
          break;
        }
      }
      std::printf("  unit %zu: %s -> %s  switched", u, ma, mb);
      if (decision != nullptr) {
        std::printf(" (audited margin %.1f µs over %s; candidates",
                    decision->margin_us, decision->runner_up.c_str());
        for (const auto& [matcher, est_us] : decision->candidate_us) {
          std::printf(" %s=%.1f", matcher.c_str(), est_us);
        }
        std::printf(")");
      } else {
        std::printf(" (no audit recorded for gen %d)", b->gen);
      }
      std::printf("  actual %.0f -> %.0f µs\n", actual_a, actual_b);
    } else {
      std::printf("  unit %zu: %s (unchanged)  actual %.0f -> %.0f µs\n", u,
                  mb, actual_a, actual_b);
    }
  }

  if (!a->shards.empty() || !b->shards.empty()) {
    std::printf("shards:\n");
    const size_t num_shards = std::max(a->shards.size(), b->shards.size());
    for (size_t k = 0; k < num_shards; ++k) {
      const int64_t ta = k < a->shards.size() ? a->shards[k].total_us : 0;
      const int64_t tb = k < b->shards.size() ? b->shards[k].total_us : 0;
      std::printf("  shard %zu: total_us %10" PRId64 " -> %10" PRId64
                  "  (%s)\n",
                  k, ta, tb, PercentDelta(ta, tb).c_str());
    }
  }

  // The single largest phase mover — the first place to look.
  struct Mover {
    const char* name;
    int64_t delta;
  };
  Mover movers[] = {{"match_us", b->match_us - a->match_us},
                    {"extract_us", b->extract_us - a->extract_us},
                    {"copy_us", b->copy_us - a->copy_us},
                    {"opt_us", b->opt_us - a->opt_us},
                    {"capture_us", b->capture_us - a->capture_us},
                    {"others_us", b->others_us - a->others_us}};
  const Mover* biggest = &movers[0];
  for (const Mover& m : movers) {
    if (std::llabs(m.delta) > std::llabs(biggest->delta)) biggest = &m;
  }
  std::printf("largest mover: %s (%+" PRId64 " µs)\n", biggest->name,
              biggest->delta);
  return 0;
}

const obs::ResourceUsage::Subsystem* FindSubsystem(
    const obs::ResourceUsage& usage, const std::string& tag) {
  for (const obs::ResourceUsage::Subsystem& sub : usage.subsystems) {
    if (sub.tag == tag) return &sub;
  }
  return nullptr;
}

void PrintMemRecord(const HistoryRecord& r) {
  if (!r.has_resources) {
    std::printf("gen %d: no resources block (pre-layer-4 record)\n", r.gen);
    return;
  }
  const obs::ResourceUsage& res = r.resources;
  std::printf("gen %d: rss=%" PRId64 " peak_rss=%" PRId64 " tracked=%" PRId64
              " tracked_peak=%" PRId64 "\n",
              r.gen, res.rss_bytes, res.peak_rss_bytes, res.tracked_bytes,
              res.tracked_peak_bytes);
  for (const obs::ResourceUsage::Subsystem& sub : res.subsystems) {
    double share = res.tracked_peak_bytes > 0
                       ? 100.0 * static_cast<double>(sub.peak_bytes) /
                             static_cast<double>(res.tracked_peak_bytes)
                       : 0.0;
    std::printf("  %-14s current=%10" PRId64 "  peak=%10" PRId64
                "  (%.1f%% of tracked peak)\n",
                sub.tag.c_str(), sub.current_bytes, sub.peak_bytes, share);
  }
}

int RunMem(const HistoryRecord* a, const HistoryRecord* b) {
  if (a != b) PrintMemRecord(*a);
  PrintMemRecord(*b);
  if (a == b || !a->has_resources || !b->has_resources) return 0;
  std::printf("diff gen %d -> gen %d:\n", a->gen, b->gen);
  DiffPhase("rss_bytes", a->resources.rss_bytes, b->resources.rss_bytes);
  DiffPhase("peak_rss_bytes", a->resources.peak_rss_bytes,
            b->resources.peak_rss_bytes);
  DiffPhase("tracked_bytes", a->resources.tracked_bytes,
            b->resources.tracked_bytes);
  DiffPhase("tracked_peak", a->resources.tracked_peak_bytes,
            b->resources.tracked_peak_bytes);
  for (const obs::ResourceUsage::Subsystem& sub : b->resources.subsystems) {
    const obs::ResourceUsage::Subsystem* prev =
        FindSubsystem(a->resources, sub.tag);
    DiffPhase(sub.tag.c_str(), prev != nullptr ? prev->peak_bytes : 0,
              sub.peak_bytes);
  }
  return 0;
}

int RunDecisions(const HistoryRecord* rec) {
  if (!rec->has_optimizer || rec->decisions.empty()) {
    std::printf("gen %d: no audited decisions (warm-up or forced plan)\n",
                rec->gen);
    return 0;
  }
  std::printf("gen %d decisions (assignment %s):\n", rec->gen,
              rec->assignment.c_str());
  for (const auto& d : rec->decisions) {
    std::printf("  unit %d: winner %s, runner-up %s, margin %.1f µs\n",
                d.unit, d.winner.c_str(), d.runner_up.c_str(), d.margin_us);
    std::printf("    candidates:");
    for (const auto& [matcher, est_us] : d.candidate_us) {
      std::printf(" %s=%.1f", matcher.c_str(), est_us);
    }
    std::printf("\n");
    std::printf(
        "    inputs: f=%.3f m=%.0f a=%.2f l=%.1f history=%d source=%s\n", d.f,
        d.m, d.a, d.l, d.history_window,
        d.source.empty() ? "-" : d.source.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  std::vector<HistoryRecord> records;
  int rc = LoadHistory(argv[2], &records);
  if (rc != 0) return rc;

  if (command == "summary") {
    return RunSummary(records);
  }
  if (command == "diff" || command == "mem") {
    const HistoryRecord* a = nullptr;
    const HistoryRecord* b = nullptr;
    if (argc >= 5) {
      a = FindGen(records, std::atoi(argv[3]));
      b = FindGen(records, std::atoi(argv[4]));
      if (a == nullptr || b == nullptr) {
        std::fprintf(stderr, "delex_inspect: generation %s not in history\n",
                     a == nullptr ? argv[3] : argv[4]);
        return 2;
      }
    } else if (records.size() >= 2) {
      a = &records[records.size() - 2];
      b = &records.back();
    } else if (command != "diff") {
      // mem degrades to a single-generation report; diff needs two.
      a = b = &records.back();
    } else {
      std::fprintf(stderr,
                   "delex_inspect: need two generations to diff (history "
                   "holds %zu)\n",
                   records.size());
      return 2;
    }
    if (command == "mem") return RunMem(a, b);
    return RunDiff(records, a, b);
  }
  if (command == "decisions") {
    if (argc < 4) {
      PrintUsage();
      return 1;
    }
    const HistoryRecord* rec = FindGen(records, std::atoi(argv[3]));
    if (rec == nullptr) {
      std::fprintf(stderr, "delex_inspect: generation %s not in history\n",
                   argv[3]);
      return 2;
    }
    return RunDecisions(rec);
  }
  PrintUsage();
  return 1;
}

}  // namespace
}  // namespace delex

int main(int argc, char** argv) { return delex::Main(argc, argv); }
