// Shared repetition settings for the tracked microbenchmarks.
//
// Single runs on a shared host vary too much to compare, so a tracked
// benchmark runs 5 repetitions and reports only the aggregates:
// mean/median/stddev plus `min`. Apply with
// `BENCHMARK(BM_X)->Apply(FiveRepetitions)`. BENCH_REPETITIONS=<n> in the
// environment overrides the 5; with 1, each benchmark reports its single
// run, which scripts/run_bench.sh uses to interleave the runs of two
// binaries and aggregate them itself.
#ifndef MIX_BENCH_BENCH_STATS_H_
#define MIX_BENCH_BENCH_STATS_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace mix::bench {

inline double MinOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

inline void FiveRepetitions(benchmark::internal::Benchmark* b) {
  const char* env = std::getenv("BENCH_REPETITIONS");
  const int n = env == nullptr ? 0 : std::atoi(env);
  b->Repetitions(n > 0 ? n : 5)
      ->ReportAggregatesOnly()
      ->ComputeStatistics("min", MinOf);
}

}  // namespace mix::bench

#endif  // MIX_BENCH_BENCH_STATS_H_
