// Load-generation and statistics harness of the end-to-end benchmark.
//
// Everything here is independent of the mediator: seeded random streams
// (SplitMix64, Zipf popularity, Poisson arrivals), exact percentiles over
// raw samples, and the two load shapes the workloads use — a closed loop
// (each client starts its next session when the previous one ends) and an
// open loop (sessions start on a precomputed schedule, and every latency is
// timed from the scheduled arrival, so a stall charges the wait it imposes
// on the requests queued behind it). tests/harness_test.cc covers it.
#ifndef BENCH_E2E_HARNESS_H_
#define BENCH_E2E_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in (0, 1].
  double UnitOpen() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// Zipf(s) popularity over ranks 0..n-1 (rank 0 most popular), sampled by
/// inverting the exact CDF.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : cdf_(static_cast<size_t>(std::max(n, 1))) {
    double total = 0;
    for (size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(Rng* rng) const {
    double u = rng->UnitOpen();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<int>(it - cdf_.begin());
  }
  /// Probability of `rank`.
  double Probability(int rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// `n` ranks of a `family`-member Zipf(s) popularity in exact proportion
/// (largest-remainder rounding), in an order shuffled by `rng`. A closed loop
/// that cycles through it runs every member at its share whatever the seed;
/// only the order changes.
inline std::vector<int> ZipfMix(int family, double s, size_t n, Rng* rng) {
  ZipfSampler zipf(family, s);
  std::vector<size_t> count(static_cast<size_t>(family));
  std::vector<std::pair<double, int>> remainder;
  size_t dealt = 0;
  for (int k = 0; k < family; ++k) {
    const double share = zipf.Probability(k) * static_cast<double>(n);
    count[static_cast<size_t>(k)] = static_cast<size_t>(share);
    dealt += count[static_cast<size_t>(k)];
    remainder.push_back({share - std::floor(share), k});
  }
  std::stable_sort(
      remainder.begin(), remainder.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; dealt < n; ++i, ++dealt) {
    ++count[static_cast<size_t>(remainder[i % remainder.size()].second)];
  }
  std::vector<int> out;
  out.reserve(n);
  for (int k = 0; k < family; ++k) {
    out.insert(out.end(), count[static_cast<size_t>(k)], k);
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->Uniform(i)]);
  }
  return out;
}

/// Poisson arrival offsets (ns from the start) at `rate_per_s`, covering
/// [0, duration_ns).
inline std::vector<int64_t> PoissonArrivals(double rate_per_s,
                                            int64_t duration_ns, Rng* rng) {
  std::vector<int64_t> out;
  double t = 0;
  while (true) {
    t += -std::log(rng->UnitOpen()) / rate_per_s * 1e9;
    if (t >= static_cast<double>(duration_ns)) break;
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

/// Exact percentile of raw samples, linear interpolation between the two
/// closest ranks (p in [0, 1]; the sample vector is sorted in place).
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double pos =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(samples->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + ((*samples)[hi] - (*samples)[lo]) * frac;
}

/// The highest percentile that still has at least `tail` samples beyond it
/// among `n` samples (0 when there are too few samples for any).
inline double SupportedPercentile(size_t n, size_t tail = 10) {
  if (n <= tail) return 0;
  return 1.0 - static_cast<double>(tail) / static_cast<double>(n);
}

/// One latency series summarized: sample count, mean, exact percentiles,
/// and the highest percentile the sample count supports with its value.
struct Summary {
  size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double supported = 0;
  double at_supported = 0;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  double total = 0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(samples.size());
  s.p50 = Percentile(&samples, 0.5);
  s.p90 = Percentile(&samples, 0.9);
  s.p99 = Percentile(&samples, 0.99);
  s.supported = SupportedPercentile(samples.size());
  s.at_supported = Percentile(&samples, s.supported);
  return s;
}

/// The samples whose time stamps fall in each whole `window_ns` window of
/// [start_ns, stop_ns); a partial last window is left out.
inline std::vector<std::vector<double>> ByWindow(
    const std::vector<double>& values, const std::vector<int64_t>& at_ns,
    int64_t start_ns, int64_t stop_ns, int64_t window_ns) {
  const int64_t windows =
      window_ns > 0 ? std::max<int64_t>(0, (stop_ns - start_ns) / window_ns)
                    : 0;
  std::vector<std::vector<double>> out(static_cast<size_t>(windows));
  for (size_t i = 0; i < at_ns.size() && i < values.size(); ++i) {
    if (at_ns[i] < start_ns) continue;
    const int64_t w = (at_ns[i] - start_ns) / window_ns;
    if (w < windows) out[static_cast<size_t>(w)].push_back(values[i]);
  }
  return out;
}

/// Median over the whole windows of [start_ns, stop_ns) of each window's
/// percentile p: the tail of a typical window, so a host stall that covers
/// fewer than half of the windows does not move it.
inline double WindowedPercentile(const std::vector<double>& values,
                                 const std::vector<int64_t>& at_ns,
                                 int64_t start_ns, int64_t stop_ns,
                                 int64_t window_ns, double p) {
  std::vector<double> per;
  for (auto& w : ByWindow(values, at_ns, start_ns, stop_ns, window_ns)) {
    if (!w.empty()) per.push_back(Percentile(&w, p));
  }
  return Percentile(&per, 0.5);
}

/// Median over the whole windows of [start_ns, stop_ns) of events per
/// second, one event per time stamp.
inline double WindowedRate(const std::vector<int64_t>& at_ns, int64_t start_ns,
                           int64_t stop_ns, int64_t window_ns) {
  std::vector<double> ones(at_ns.size(), 1.0);
  std::vector<double> per;
  for (auto& w : ByWindow(ones, at_ns, start_ns, stop_ns, window_ns)) {
    per.push_back(static_cast<double>(w.size()) * 1e9 /
                  static_cast<double>(window_ns));
  }
  return Percentile(&per, 0.5);
}

/// Per-request timing of a load run. `late_ns` is how far behind its
/// intended start the generator issued the request; `latency_ns` runs from
/// the intended start to completion. `start_ns` is when the load began.
struct LoadTimes {
  std::vector<int64_t> late_ns;
  std::vector<int64_t> latency_ns;
  int64_t start_ns = 0;
  int64_t wall_ns = 0;
};

/// Open loop: request i is due at start + arrivals[i]; `workers` threads
/// take requests in order, sleep until they are due, and run
/// `fn(i, worker, due_ns)`. When every worker is busy a due request waits,
/// and that wait counts in its latency and lateness.
inline LoadTimes RunOpenLoop(
    const std::vector<int64_t>& arrivals, int workers,
    const std::function<void(size_t, int, int64_t)>& fn) {
  LoadTimes out;
  out.late_ns.assign(arrivals.size(), 0);
  out.latency_ns.assign(arrivals.size(), 0);
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 1'000'000;
  out.start_ns = start;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (true) {
        size_t i = next.fetch_add(1);
        if (i >= arrivals.size()) return;
        const int64_t due = start + arrivals[i];
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        out.late_ns[i] = std::max<int64_t>(0, now - due);
        fn(i, w, due);
        out.latency_ns[i] = NowNs() - due;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_ns = NowNs() - start;
  return out;
}

/// Closed loop: `clients` threads each run sessions back to back until
/// `duration_ns` has passed; `fn(client, k)` runs the client's k-th
/// session. Lateness is the generator's own gap between one session's end
/// and the next one's start.
inline LoadTimes RunClosedLoop(int clients, int64_t duration_ns,
                               const std::function<void(int, int64_t)>& fn) {
  LoadTimes out;
  std::vector<LoadTimes> per(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  const int64_t stop = start + duration_ns;
  out.start_ns = start;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadTimes& mine = per[static_cast<size_t>(c)];
      int64_t prev_end = NowNs();
      for (int64_t k = 0; NowNs() < stop; ++k) {
        const int64_t begin = NowNs();
        mine.late_ns.push_back(begin - prev_end);
        fn(c, k);
        prev_end = NowNs();
        mine.latency_ns.push_back(prev_end - begin);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_ns = NowNs() - start;
  for (const LoadTimes& p : per) {
    out.late_ns.insert(out.late_ns.end(), p.late_ns.begin(), p.late_ns.end());
    out.latency_ns.insert(out.latency_ns.end(), p.latency_ns.begin(),
                          p.latency_ns.end());
  }
  return out;
}

}  // namespace bench

#endif  // BENCH_E2E_HARNESS_H_
