// Shared repetition settings for the tracked microbenchmarks.
//
// Single runs on a shared host vary too much to compare, so a tracked
// benchmark runs 5 repetitions and reports only the aggregates:
// mean/median/stddev plus `min`. Apply with
// `BENCHMARK(BM_X)->Apply(FiveRepetitions)`.
#ifndef MIX_BENCH_BENCH_STATS_H_
#define MIX_BENCH_BENCH_STATS_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

namespace mix::bench {

inline double MinOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

inline void FiveRepetitions(benchmark::internal::Benchmark* b) {
  b->Repetitions(5)->ReportAggregatesOnly()->ComputeStatistics("min", MinOf);
}

}  // namespace mix::bench

#endif  // MIX_BENCH_BENCH_STATS_H_
