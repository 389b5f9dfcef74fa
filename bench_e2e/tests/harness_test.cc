// Self-tests of the benchmark harness: seeded streams repeat, percentiles
// are exact, and the open loop charges a stall to the requests behind it.
#include "harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace bench {
namespace {

TEST(HarnessTest, SameSeedSameZipfStream) {
  ZipfSampler zipf(64, 1.1);
  Rng a(17), b(17), c(18);
  std::vector<int> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(zipf.Sample(&a));
    sb.push_back(zipf.Sample(&b));
    sc.push_back(zipf.Sample(&c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  for (int r : sa) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 64);
  }
}

TEST(HarnessTest, ZipfFavoursLowRanks) {
  ZipfSampler zipf(64, 1.1);
  Rng rng(3);
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[8]);
  EXPECT_GT(counts[8], counts[63]);
  // Rank 0 carries ~1/H(64, 1.1) of the mass.
  EXPECT_NEAR(counts[0] / 20000.0, zipf.Probability(0), 0.02);
}

TEST(HarnessTest, ZipfMixHasExactSharesInSeededOrder) {
  Rng a(9), b(9), c(10);
  std::vector<int> ma = ZipfMix(64, 1.1, 4096, &a);
  std::vector<int> mb = ZipfMix(64, 1.1, 4096, &b);
  std::vector<int> mc = ZipfMix(64, 1.1, 4096, &c);
  EXPECT_EQ(ma, mb);
  EXPECT_NE(ma, mc);
  ASSERT_EQ(ma.size(), 4096u);
  // Every seed deals the same counts, each within one of its exact share.
  ZipfSampler zipf(64, 1.1);
  std::vector<int> ca(64, 0), cc(64, 0);
  for (int r : ma) ++ca[static_cast<size_t>(r)];
  for (int r : mc) ++cc[static_cast<size_t>(r)];
  EXPECT_EQ(ca, cc);
  for (int k = 0; k < 64; ++k) {
    EXPECT_NEAR(ca[static_cast<size_t>(k)], zipf.Probability(k) * 4096, 1.0)
        << k;
  }
}

TEST(HarnessTest, WindowedStatisticsTakeTheMedianWindow) {
  // Five 1 s windows of ten samples; window 2 is a stall (10x slower and
  // with fewer samples), and a sample after the last whole window is
  // left out.
  const int64_t s = 1'000'000'000;
  std::vector<double> values;
  std::vector<int64_t> at;
  for (int w = 0; w < 5; ++w) {
    const int n = w == 2 ? 4 : 10;
    for (int i = 0; i < n; ++i) {
      values.push_back((w == 2 ? 10.0 : 1.0) * (i + 1) + w);
      at.push_back(s * w + s / 20 * i);
    }
  }
  values.push_back(1e9);
  at.push_back(s * 5 + 1);
  EXPECT_EQ(ByWindow(values, at, 0, s * 5 + s / 2, s).size(), 5u);
  // Window p50s: 5.5, 6.5, 27, 8.5, 9.5 -> median 8.5.
  EXPECT_DOUBLE_EQ(WindowedPercentile(values, at, 0, s * 5 + s / 2, s, 0.5),
                   8.5);
  // Events per second: 10, 10, 4, 10, 10 -> 10.
  EXPECT_DOUBLE_EQ(WindowedRate(at, 0, s * 5 + s / 2, s), 10.0);
}

TEST(HarnessTest, SameSeedSamePoissonStream) {
  Rng a(5), b(5), c(6);
  auto pa = PoissonArrivals(1000, 1'000'000'000, &a);
  auto pb = PoissonArrivals(1000, 1'000'000'000, &b);
  auto pc = PoissonArrivals(1000, 1'000'000'000, &c);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
  // ~1000 arrivals in one second at 1000/s, strictly increasing.
  EXPECT_GT(pa.size(), 900u);
  EXPECT_LT(pa.size(), 1100u);
  for (size_t i = 1; i < pa.size(); ++i) EXPECT_GT(pa[i], pa[i - 1]);
}

TEST(HarnessTest, PercentileIsExact) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.5), 3);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(&v, 1.0), 5);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.25), 2);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.125), 1.5);
  std::vector<double> even = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(&even, 0.5), 25);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(&hundred, 0.99), 99.01);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Percentile(&empty, 0.5), 0);
}

TEST(HarnessTest, SupportedPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10), 0.0);
  Summary s = Summarize({1, 2, 3, 4});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(HarnessTest, InjectedStallShowsAsLatenessAfterIt) {
  // 40 requests due 1 ms apart on one worker; request 10 stalls 30 ms.
  std::vector<int64_t> arrivals;
  for (int i = 0; i < 40; ++i) arrivals.push_back(int64_t{i} * 1'000'000);
  LoadTimes t = RunOpenLoop(arrivals, 1, [](size_t i, int, int64_t) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  ASSERT_EQ(t.late_ns.size(), arrivals.size());
  // The request right after the stall is due 1 ms into it: ~29 ms late.
  EXPECT_GT(t.late_ns[11], 20'000'000);
  // Its latency, timed from its due time, carries the same wait.
  EXPECT_GE(t.latency_ns[11], t.late_ns[11]);
  // Every request queued behind the stall is late too, by less the later
  // it was due.
  EXPECT_GT(t.late_ns[20], 10'000'000);
  EXPECT_GE(t.late_ns[12], t.late_ns[20]);
  // Requests before the stall were on time, give or take a host hiccup.
  for (int i = 0; i < 10; ++i) EXPECT_LT(t.late_ns[i], 15'000'000) << i;
}

TEST(HarnessTest, ClosedLoopRunsUntilDeadline) {
  std::atomic<int> sessions{0};
  LoadTimes t = RunClosedLoop(2, 20'000'000, [&](int, int64_t) {
    sessions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(t.latency_ns.size(), static_cast<size_t>(sessions.load()));
  EXPECT_GE(sessions.load(), 10);
  EXPECT_GE(t.wall_ns, 20'000'000);
}

}  // namespace
}  // namespace bench
