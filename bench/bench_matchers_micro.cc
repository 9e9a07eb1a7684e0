// Micro-benchmarks (google-benchmark) for the matcher substrate: the
// completeness/runtime trade-off of §5.4 in isolation. DN is free, UD is
// cheap but order-bound, ST is pricier but finds relocations, RU answers
// from recorded results at near-zero cost.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "corpus/generator.h"
#include "matcher/matcher.h"
#include "text/diff.h"
#include "text/suffix_matcher.h"

namespace delex {
namespace {

/// A page and an edited copy (replace a middle paragraph + prepend one).
struct PagePair {
  std::string p;
  std::string q;
};

PagePair MakePair(int64_t approx_bytes) {
  DatasetProfile profile = DatasetProfile::DBLife();
  profile.min_paragraphs = static_cast<int>(approx_bytes / 700);
  profile.max_paragraphs = profile.min_paragraphs + 2;
  CorpusGenerator generator(profile, 99);
  Rng rng(7);
  PagePair pair;
  pair.q = generator.GeneratePageText(&rng);
  // Edit: replace a middle chunk and prepend a paragraph.
  std::string edited = generator.GenerateParagraph(&rng) + "\n\n" + pair.q;
  size_t middle = edited.size() / 2;
  edited.replace(middle, 200, generator.GenerateParagraph(&rng));
  pair.p = std::move(edited);
  return pair;
}

void BM_MatcherUD(benchmark::State& state) {
  PagePair pair = MakePair(state.range(0));
  TextSpan p_region(0, static_cast<int64_t>(pair.p.size()));
  TextSpan q_region(0, static_cast<int64_t>(pair.q.size()));
  int64_t matched = 0;
  for (auto _ : state) {
    auto segments = GetMatcher(MatcherKind::kUD)
                        .Match(pair.p, p_region, pair.q, q_region, nullptr);
    matched = TotalMatchedLength(segments);
    benchmark::DoNotOptimize(segments);
  }
  state.counters["matched_frac"] =
      static_cast<double>(matched) / static_cast<double>(pair.p.size());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size() + pair.q.size()));
}
BENCHMARK(BM_MatcherUD)->Arg(4 << 10)->Arg(16 << 10)->Arg(64 << 10);

void BM_MatcherST(benchmark::State& state) {
  PagePair pair = MakePair(state.range(0));
  TextSpan p_region(0, static_cast<int64_t>(pair.p.size()));
  TextSpan q_region(0, static_cast<int64_t>(pair.q.size()));
  int64_t matched = 0;
  for (auto _ : state) {
    auto segments = GetMatcher(MatcherKind::kST)
                        .Match(pair.p, p_region, pair.q, q_region, nullptr);
    matched = TotalMatchedLength(segments);
    benchmark::DoNotOptimize(segments);
  }
  state.counters["matched_frac"] =
      static_cast<double>(matched) / static_cast<double>(pair.p.size());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size() + pair.q.size()));
}
BENCHMARK(BM_MatcherST)->Arg(4 << 10)->Arg(16 << 10)->Arg(64 << 10);

void BM_MatcherRU(benchmark::State& state) {
  PagePair pair = MakePair(16 << 10);
  TextSpan p_region(0, static_cast<int64_t>(pair.p.size()));
  TextSpan q_region(0, static_cast<int64_t>(pair.q.size()));
  MatchContext ctx;
  GetMatcher(MatcherKind::kST).Match(pair.p, p_region, pair.q, q_region, &ctx);
  // Query a sub-region, as a higher IE unit would.
  TextSpan p_sub(p_region.end / 4, p_region.end / 2);
  TextSpan q_sub(q_region.end / 4, q_region.end / 2);
  for (auto _ : state) {
    auto segments =
        GetMatcher(MatcherKind::kRU).Match(pair.p, p_sub, pair.q, q_sub, &ctx);
    benchmark::DoNotOptimize(segments);
  }
}
BENCHMARK(BM_MatcherRU);

void BM_SuffixAutomatonBuild(benchmark::State& state) {
  PagePair pair = MakePair(state.range(0));
  for (auto _ : state) {
    SuffixAutomaton automaton(pair.q);
    benchmark::DoNotOptimize(automaton.NumStates());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.q.size()));
}
BENCHMARK(BM_SuffixAutomatonBuild)->Arg(4 << 10)->Arg(16 << 10)->Arg(64 << 10);

// ST's other half: streaming the new region through an already-built
// automaton. Construction and streaming are reported separately so edge
// layout changes (the inline first edge and per-automaton edge arena, the
// dense root table) can be attributed to the phase they affect.
void BM_SuffixAutomatonStream(benchmark::State& state) {
  PagePair pair = MakePair(state.range(0));
  SuffixAutomaton automaton(pair.q);
  for (auto _ : state) {
    int64_t best = automaton.LongestCommonSubstring(pair.p);
    benchmark::DoNotOptimize(best);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size()));
}
BENCHMARK(BM_SuffixAutomatonStream)->Arg(4 << 10)->Arg(16 << 10)->Arg(64 << 10);

void BM_LineDiff(benchmark::State& state) {
  PagePair pair = MakePair(state.range(0));
  for (auto _ : state) {
    auto segments = DiffMatch(pair.p, 0, pair.q, 0);
    benchmark::DoNotOptimize(segments);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size() + pair.q.size()));
}
BENCHMARK(BM_LineDiff)->Arg(4 << 10)->Arg(16 << 10);

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD kernel columns: the same kernel at every dispatch level
// the CPU supports (BM_Kernel*/scalar vs /sse2 vs /avx2), registered at
// runtime from SupportedLevels(). These isolate the tentpole's claimed
// wins — UD's byte trim, the identical-page digest check, newline
// counting, and ST's stream skip — from the surrounding matcher logic.

void BM_KernelPrefixTrim(benchmark::State& state, simd::Level level) {
  PagePair pair = MakePair(64 << 10);
  std::string copy = pair.q;  // identical → full-length scan, the UD trim hot case
  for (auto _ : state) {
    size_t n = simd::CommonPrefixAt(level, pair.q.data(), copy.data(),
                                    pair.q.size());
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.q.size()));
}

void BM_KernelBytesEqual(benchmark::State& state, simd::Level level) {
  PagePair pair = MakePair(64 << 10);
  std::string copy = pair.q;
  for (auto _ : state) {
    bool eq = simd::BytesEqualAt(level, pair.q.data(), copy.data(),
                                 pair.q.size());
    benchmark::DoNotOptimize(eq);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.q.size()));
}

void BM_KernelCountNewlines(benchmark::State& state, simd::Level level) {
  PagePair pair = MakePair(64 << 10);
  for (auto _ : state) {
    size_t count = simd::CountByteAt(level, pair.q.data(), pair.q.size(), '\n');
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.q.size()));
}

void BM_KernelStreamClassify(benchmark::State& state, simd::Level level) {
  PagePair pair = MakePair(64 << 10);
  // A set disjoint from the page text → every call scans to the end, the
  // worst case of ST's root-miss skip.
  simd::ByteSet set;
  set.Add(0x01);
  set.Add(0x02);
  const unsigned char* bytes = static_cast<const unsigned char*>(
      static_cast<const void*>(pair.q.data()));
  for (auto _ : state) {
    size_t at = simd::FindFirstInSetAt(level, bytes, pair.q.size(), set);
    benchmark::DoNotOptimize(at);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.q.size()));
}

// Whole-function columns: DiffMatch (UD) and the automaton stream (ST)
// with the dispatcher pinned to one level — the end-to-end view of the
// same speedups.
void BM_KernelLineDiff(benchmark::State& state, simd::Level level) {
  simd::ScopedLevelOverride guard(level);
  PagePair pair = MakePair(16 << 10);
  for (auto _ : state) {
    auto segments = DiffMatch(pair.p, 0, pair.q, 0);
    benchmark::DoNotOptimize(segments);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size() + pair.q.size()));
}

void BM_KernelAutomatonStream(benchmark::State& state, simd::Level level) {
  simd::ScopedLevelOverride guard(level);
  PagePair pair = MakePair(16 << 10);
  SuffixAutomaton automaton(pair.q);
  for (auto _ : state) {
    int64_t best = automaton.LongestCommonSubstring(pair.p);
    benchmark::DoNotOptimize(best);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pair.p.size()));
}

}  // namespace

void RegisterKernelBenchmarks() {
  struct NamedKernel {
    const char* name;
    void (*fn)(benchmark::State&, simd::Level);
  };
  static constexpr NamedKernel kKernels[] = {
      {"BM_KernelPrefixTrim", BM_KernelPrefixTrim},
      {"BM_KernelBytesEqual", BM_KernelBytesEqual},
      {"BM_KernelCountNewlines", BM_KernelCountNewlines},
      {"BM_KernelStreamClassify", BM_KernelStreamClassify},
      {"BM_KernelLineDiff", BM_KernelLineDiff},
      {"BM_KernelAutomatonStream", BM_KernelAutomatonStream},
  };
  for (const NamedKernel& kernel : kKernels) {
    for (simd::Level level : simd::SupportedLevels()) {
      std::string name =
          std::string(kernel.name) + "/" + simd::LevelName(level);
      benchmark::RegisterBenchmark(name.c_str(), kernel.fn, level);
    }
  }
}

}  // namespace delex

// Expanded BENCHMARK_MAIN() with the shared metadata header on stderr —
// stdout is google-benchmark's (possibly --benchmark_format=json) report
// and must stay parseable.
int main(int argc, char** argv) {
  delex::bench::BenchInit(argc, argv, /*print_meta_line=*/false);
  std::fprintf(stderr, "{\"bench_meta\": %s}\n",
               delex::bench::MetaJson().c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The machine shape ci/bench_compare.py matches against the baseline's.
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("cpu_model", delex::bench::CpuModel());
  delex::RegisterKernelBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
