// DBLife-style community portal: the scenario from the paper's
// introduction. A portal re-crawls its sources every day and re-applies
// three IE programs (talk / chair / advise) to keep extracted community
// information fresh. From-scratch extraction eats the processing window;
// Delex recycles yesterday's work.
//
//   ./dblife_portal [pages] [days]
//
// Honors DELEX_THREADS and DELEX_SHARDS for the engine-backed solutions,
// and the observability knobs (DELEX_TRACE, DELEX_STATS_JSON,
// DELEX_PROFILE, DELEX_HISTORY, DELEX_LOG_LEVEL) — the CI traced,
// profiled, sharded and history smokes drive this binary.

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "harness/experiment.h"
#include "harness/programs.h"
#include "harness/table.h"

using namespace delex;

int main(int argc, char** argv) {
  int pages = argc > 1 ? std::atoi(argv[1]) : 120;
  int days = argc > 2 ? std::atoi(argv[2]) : 5;
  const char* threads_env = std::getenv("DELEX_THREADS");
  int threads = threads_env != nullptr ? std::atoi(threads_env) : 1;
  const char* shards_env = std::getenv("DELEX_SHARDS");
  int shards = shards_env != nullptr ? std::atoi(shards_env) : 1;

  std::string work =
      (std::filesystem::temp_directory_path() / "delex-dblife").string();
  std::filesystem::remove_all(work);

  std::printf("DBLife portal: %d sources re-crawled for %d days\n\n", pages,
              days);

  Table table({"IE task", "blackboxes", "No-reuse s", "Shortcut s", "Cyclex s",
               "Delex s", "Delex cut vs Cyclex"});

  for (const std::string& task : {"talk", "chair", "advise"}) {
    auto spec_or = MakeProgram(task);
    if (!spec_or.ok()) {
      std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
      return 1;
    }
    ProgramSpec spec = std::move(spec_or).ValueOrDie();
    DatasetProfile profile = spec.Profile();
    profile.num_sources = pages;
    // The same crawl feeds all tasks: one generator seed per run.
    std::vector<Snapshot> series = GenerateSeries(profile, days, /*seed=*/1234);

    auto no_reuse = MakeNoReuseSolution(spec);
    auto shortcut = MakeShortcutSolution(spec);
    auto cyclex = MakeCyclexSolution(spec, work + "/cyclex-" + task, threads);
    DelexSolutionOptions delex_options;
    delex_options.num_threads = threads;
    delex_options.num_shards = shards;
    auto delex = MakeDelexSolution(spec, work + "/delex-" + task,
                                   delex_options);

    double totals[4] = {0, 0, 0, 0};
    Solution* solutions[4] = {no_reuse.get(), shortcut.get(), cyclex.get(),
                              delex.get()};
    for (int s = 0; s < 4; ++s) {
      auto run = RunSeries(solutions[s], series);
      if (!run.ok()) {
        std::fprintf(stderr, "%s: %s\n", solutions[s]->Name().c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      totals[s] = run->TotalSeconds();
    }
    double cut = totals[2] > 0 ? 100.0 * (1.0 - totals[3] / totals[2]) : 0.0;
    table.AddRow({task, std::to_string(spec.num_blackboxes),
                  Table::Num(totals[0]), Table::Num(totals[1]),
                  Table::Num(totals[2]), Table::Num(totals[3]),
                  Table::Num(cut, 0) + "%"});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 10, DBLife side): Shortcut and Cyclex\n"
      "already beat No-reuse on this slowly-changing corpus; Delex matches\n"
      "Cyclex on the single-blackbox task (talk) and wins decisively on the\n"
      "multi-blackbox ones (chair, advise).\n");
  return 0;
}
