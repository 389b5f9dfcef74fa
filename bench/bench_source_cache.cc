// Experiment E14 (EXPERIMENTS.md): the cross-session shared source-fragment
// cache + compiled-plan cache under concurrent session load.
//
//   * BM_SharedCacheSessions — 64 sessions over 8 client threads against a
//     shared hot source whose wrapper exchanges cost 250 µs each (the
//     remote-source deployment model), with the cache off (cache_kb=0) vs
//     on. Acceptance: with the cache warm, wrapper navigations drop >= 50%
//     and session throughput rises >= 2x at byte-identical answers
//     (`mismatches` = 0, `answer_bytes` equal across runs).
//   * BM_CacheBudgetPressure — the same load against an UNDERSIZED byte
//     budget: `peak_bytes` must never exceed the budget, and the churn
//     shows as `evictions` (entries displaced) plus `rejects` (publishes
//     the frequency-gated admission turned away) > 0 — the
//     reserve-then-insert accounting under churn.
//   * BM_CacheOps — raw publish/lookup throughput of one shared cache at 1
//     and 4 threads, frequency-sketch touch included: what its one mutex
//     can serve, against the cache calls a workload makes per second.
//
// Every benchmark runs 5 repetitions and reports aggregates only
// (bench/bench_stats.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "buffer/source_cache.h"
#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "service/service.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using service::MediatorService;
using service::SessionEnvironment;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Decorator modeling a remote source: every LXP exchange sleeps `delay`
/// and bumps a shared exchange counter — the "wrapper navigations" E14
/// compares cache-on vs cache-off.
class CountedDelayWrapper : public buffer::LxpWrapper {
 public:
  CountedDelayWrapper(std::unique_ptr<buffer::LxpWrapper> inner,
                      std::chrono::microseconds delay,
                      std::atomic<int64_t>* exchanges)
      : inner_(std::move(inner)), delay_(delay), exchanges_(exchanges) {}

  std::string GetRoot(const std::string& uri) override {
    Charge();
    return inner_->GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    Charge();
    return inner_->Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    Charge();
    return inner_->FillMany(holes, budget);
  }

 private:
  void Charge() {
    exchanges_->fetch_add(1, std::memory_order_relaxed);
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
  }

  std::unique_ptr<buffer::LxpWrapper> inner_;
  std::chrono::microseconds delay_;
  std::atomic<int64_t>* exchanges_;
};

struct Workload {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
  std::string reference_term;  ///< in-process (cache-free) evaluation

  explicit Workload(int n) {
    homes = xml::MakeHomesDoc(n, 10);
    schools = xml::MakeSchoolsDoc(n, 10);
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = mediator::CompileXmas(kFig3).ValueOrDie();
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    reference_term = xml::ToTerm(xml::MaterializeInto(med->document(), &out));
  }

  void Populate(SessionEnvironment* env, std::chrono::microseconds delay,
                std::atomic<int64_t>* exchanges) const {
    auto factory = [delay, exchanges](const xml::Document* doc) {
      return [doc, delay, exchanges]() -> std::unique_ptr<buffer::LxpWrapper> {
        return std::make_unique<CountedDelayWrapper>(
            std::make_unique<wrappers::XmlLxpWrapper>(doc), delay, exchanges);
      };
    };
    env->RegisterWrapperFactory("homesSrc", factory(homes.get()), "homes.xml");
    env->RegisterWrapperFactory("schoolsSrc", factory(schools.get()),
                                "schools.xml");
  }
};

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out));
}

struct RunTally {
  int64_t sessions = 0;
  int64_t mismatches = 0;
  int64_t exchanges = 0;
  int64_t answer_bytes = 0;
  int64_t cache_hits = 0;
  int64_t evictions = 0;
  int64_t rejects = 0;
  int64_t peak_bytes = 0;
  int64_t plan_hits = 0;
};

/// One full load run: 64 sessions over 8 client threads, each open ->
/// framed materialization -> fidelity check -> close. `cache_bytes` <= 0
/// runs cache-off.
RunTally RunSessions(const Workload& workload, int64_t cache_bytes,
                     std::chrono::microseconds delay) {
  constexpr int kSessions = 64;
  constexpr int kClientThreads = 8;

  std::atomic<int64_t> exchanges{0};
  SessionEnvironment env;
  workload.Populate(&env, delay, &exchanges);
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  options.source_cache_bytes = cache_bytes;
  MediatorService service(&env, options);

  std::atomic<int64_t> bad{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> peak{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int s = 0; s < kSessions / kClientThreads; ++s) {
        auto doc = client::FramedDocument::Open(&service, kFig3);
        if (!doc.ok()) {
          ++bad;
          continue;
        }
        std::string term = MaterializeFramed(doc.value().get());
        if (term != workload.reference_term) ++bad;
        bytes_out += static_cast<int64_t>(term.size());
        (void)doc.value()->Close();
        // Sample the byte account mid-load: the reserve-then-insert scheme
        // promises it NEVER exceeds the budget, not just at quiescence.
        int64_t now = service.source_cache().bytes();
        int64_t seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  service::ServiceMetricsSnapshot snap = service.Metrics();
  RunTally tally;
  tally.sessions = kSessions;
  tally.mismatches = bad.load();
  tally.exchanges = exchanges.load();
  tally.answer_bytes = bytes_out.load();
  tally.cache_hits = snap.cache_hits;
  tally.evictions = snap.cache_evictions;
  tally.rejects = service.source_cache().stats().rejects;
  tally.peak_bytes = std::max(peak.load(), snap.cache_bytes);
  tally.plan_hits = snap.plan_cache_hits;
  return tally;
}

/// A total over the iterations, reported per run (one 64-session load), so
/// rows that ran different iteration counts compare.
benchmark::Counter PerRun(int64_t total) {
  return benchmark::Counter(static_cast<double>(total),
                            benchmark::Counter::kAvgIterations);
}

/// E14 headline: cache_kb=0 (off) vs cache_kb=4096 (on, amply sized).
/// items_per_second is session throughput; `wrapper_exchanges` is the
/// navigation count the >= 50% reduction acceptance reads.
void BM_SharedCacheSessions(benchmark::State& state) {
  const int64_t cache_bytes = state.range(0) * int64_t{1024};
  constexpr std::chrono::microseconds kDelay{250};
  static const Workload* workload = new Workload(24);

  RunTally total;
  for (auto _ : state) {
    RunTally run = RunSessions(*workload, cache_bytes, kDelay);
    total.sessions += run.sessions;
    total.mismatches += run.mismatches;
    total.exchanges += run.exchanges;
    total.answer_bytes += run.answer_bytes;
    total.cache_hits += run.cache_hits;
    total.plan_hits += run.plan_hits;
    total.peak_bytes = std::max(total.peak_bytes, run.peak_bytes);
  }
  state.SetItemsProcessed(total.sessions);
  state.counters["cache_kb"] = static_cast<double>(state.range(0));
  state.counters["mismatches"] = static_cast<double>(total.mismatches);
  state.counters["wrapper_exchanges"] = PerRun(total.exchanges);
  state.counters["answer_bytes"] = PerRun(total.answer_bytes);
  state.counters["cache_hits"] = PerRun(total.cache_hits);
  state.counters["plan_cache_hits"] = PerRun(total.plan_hits);
  state.counters["peak_cache_bytes"] = static_cast<double>(total.peak_bytes);
}
BENCHMARK(BM_SharedCacheSessions)
    ->ArgName("cache_kb")
    ->Arg(0)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Apply(bench::FiveRepetitions);

/// Undersized budget: the cache churns (evictions + rejects > 0) but the
/// byte account never crosses the budget and every answer stays
/// byte-identical. No fill delay — this measures the accounting under
/// maximum insert pressure.
void BM_CacheBudgetPressure(benchmark::State& state) {
  const int64_t budget = state.range(0);
  static const Workload* workload = new Workload(24);

  RunTally total;
  for (auto _ : state) {
    RunTally run =
        RunSessions(*workload, budget, std::chrono::microseconds(0));
    total.sessions += run.sessions;
    total.mismatches += run.mismatches;
    total.evictions += run.evictions;
    total.rejects += run.rejects;
    total.peak_bytes = std::max(total.peak_bytes, run.peak_bytes);
  }
  state.SetItemsProcessed(total.sessions);
  state.counters["budget_bytes"] = static_cast<double>(budget);
  state.counters["mismatches"] = static_cast<double>(total.mismatches);
  state.counters["evictions"] = PerRun(total.evictions);
  state.counters["rejects"] = PerRun(total.rejects);
  state.counters["peak_cache_bytes"] = static_cast<double>(total.peak_bytes);
  state.counters["over_budget"] =
      static_cast<double>(total.peak_bytes > budget ? 1 : 0);
}
BENCHMARK(BM_CacheBudgetPressure)
    ->ArgName("budget")
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Apply(bench::FiveRepetitions);

/// Raw cache ops: publish-then-lookup over a rotating key set — the
/// per-exchange overhead a cache-enabled buffer adds to a hit path. Every
/// thread and every run works on the one cache; an item is one publish plus
/// one lookup, and items_per_second is the total over all threads.
void BM_CacheOps(benchmark::State& state) {
  static buffer::SourceCache cache(
      buffer::SourceCache::Options{int64_t{8} << 20});
  buffer::FragmentList fragments;
  for (int i = 0; i < 10; ++i) {
    fragments.push_back(buffer::Fragment::Element("row"));
  }
  const buffer::SourceCache::Pin homes = cache.PinSource("homes", 0);
  // Threads start apart on the key ring, so they do not all publish the
  // same key at once.
  int64_t i = 128 * state.thread_index();
  int64_t hits = 0;
  for (auto _ : state) {
    std::string hole = "t:homes:" + std::to_string(i % 512);
    cache.PublishFill(homes, hole, fragments);
    auto hit = cache.LookupFill(homes, hole);
    if (hit != nullptr) ++hits;
    benchmark::DoNotOptimize(hit);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CacheOps)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Apply(bench::FiveRepetitions);

}  // namespace
