// Experiment E16 (EXPERIMENTS.md): the cross-session answer-view cache
// under concurrent warm session load.
//
//   * BM_AnswerViewSessions — a cold phase donates each distinct view once,
//     then 64 warm sessions over 8 client threads re-open the same queries
//     (including a predicate-narrowed variant served by subsumption)
//     against a shared remote source whose wrapper exchanges cost 250 µs
//     each. Acceptance: with the cache on (views_kb=1024) the warm phase
//     performs ZERO wrapper exchanges and session throughput rises >= 2x
//     over views_kb=0 at byte-identical answers (`mismatches` = 0).
//   * BM_ViewMatchCost — raw TryMatch cost on the session-open path: a
//     subsumption probe against a populated cache.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/framed_document.h"
#include "mediator/answer_view_cache.h"
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

/// Single-source base view plus a predicate-narrowed variant: the variant
/// never donates a snapshot of its own — it is served from the base view
/// through the subsumption rewrite (σ over the snapshot's children).
const char* kZipsBase = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V
)";
const char* kZipsNarrow = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V AND $V < '91005'
)";

/// Decorator modeling a remote source: every LXP exchange sleeps `delay`
/// and bumps a shared exchange counter.
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
  /// In-process (cache-free) evaluation per query — the fidelity oracle.
  std::vector<std::string> reference;

  explicit Workload(int n) {
    homes = xml::MakeHomesDoc(n, 10);
    schools = xml::MakeSchoolsDoc(n, 10);
    for (const char* q : Queries()) {
      xml::DocNavigable homes_nav(homes.get());
      xml::DocNavigable schools_nav(schools.get());
      mediator::SourceRegistry sources;
      sources.Register("homesSrc", &homes_nav);
      sources.Register("schoolsSrc", &schools_nav);
      auto plan = mediator::CompileXmas(q).ValueOrDie();
      auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
      xml::Document out;
      reference.push_back(
          xml::ToTerm(xml::MaterializeInto(med->document(), &out)));
    }
  }

  static const std::vector<const char*>& Queries() {
    static const std::vector<const char*> qs = {kFig3, kZipsBase, kZipsNarrow};
    return qs;
  }

  /// Donor queries: the distinct views the cold phase materializes once.
  /// kZipsNarrow is deliberately absent — warm opens of it must be served
  /// by subsumption from the kZipsBase snapshot.
  static const std::vector<const char*>& Donors() {
    static const std::vector<const char*> qs = {kFig3, kZipsBase};
    return qs;
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
  int64_t warm_sessions = 0;
  int64_t mismatches = 0;
  int64_t warm_exchanges = 0;
  int64_t view_hits = 0;
  int64_t view_publishes = 0;
};

/// One full run: a cold donor phase (opens + full materialization, which
/// publishes each view), then 64 warm sessions over 8 client threads
/// cycling through all queries. `view_bytes` <= 0 runs the A/B baseline.
RunTally RunSessions(const Workload& workload, int64_t view_bytes,
                     std::chrono::microseconds delay) {
  constexpr int kWarmSessions = 64;
  constexpr int kClientThreads = 8;

  std::atomic<int64_t> exchanges{0};
  SessionEnvironment env;
  workload.Populate(&env, delay, &exchanges);
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  options.answer_view_cache_bytes = view_bytes;
  MediatorService service(&env, options);

  std::atomic<int64_t> bad{0};
  for (const char* q : Workload::Donors()) {
    auto doc = client::FramedDocument::Open(&service, q);
    if (!doc.ok()) {
      ++bad;
      continue;
    }
    (void)MaterializeFramed(doc.value().get());
    (void)doc.value()->Close();
  }
  const int64_t cold_exchanges = exchanges.load();

  const auto& queries = Workload::Queries();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int s = 0; s < kWarmSessions / kClientThreads; ++s) {
        size_t qi = static_cast<size_t>(t + s) % queries.size();
        auto doc = client::FramedDocument::Open(&service, queries[qi]);
        if (!doc.ok()) {
          ++bad;
          continue;
        }
        if (MaterializeFramed(doc.value().get()) != workload.reference[qi]) {
          ++bad;
        }
        (void)doc.value()->Close();
      }
    });
  }
  for (auto& t : clients) t.join();

  service::ServiceMetricsSnapshot snap = service.Metrics();
  RunTally tally;
  tally.warm_sessions = kWarmSessions;
  tally.mismatches = bad.load();
  tally.warm_exchanges = exchanges.load() - cold_exchanges;
  tally.view_hits = snap.view_hits;
  tally.view_publishes = snap.view_publishes;
  return tally;
}

/// E16 headline: views_kb=0 (off) vs views_kb=1024 (on). items_per_second
/// is warm-session throughput; `warm_wrapper_exchanges` must be 0 with the
/// cache on (every warm open is snapshot-served).
void BM_AnswerViewSessions(benchmark::State& state) {
  const int64_t view_bytes = state.range(0) * int64_t{1024};
  constexpr std::chrono::microseconds kDelay{250};
  static const Workload* workload = new Workload(24);

  RunTally total;
  for (auto _ : state) {
    RunTally run = RunSessions(*workload, view_bytes, kDelay);
    total.warm_sessions += run.warm_sessions;
    total.mismatches += run.mismatches;
    total.warm_exchanges += run.warm_exchanges;
    total.view_hits += run.view_hits;
    total.view_publishes += run.view_publishes;
  }
  state.SetItemsProcessed(total.warm_sessions);
  state.counters["views_kb"] = static_cast<double>(state.range(0));
  state.counters["mismatches"] = static_cast<double>(total.mismatches);
  state.counters["warm_wrapper_exchanges"] =
      static_cast<double>(total.warm_exchanges);
  state.counters["view_hits"] = static_cast<double>(total.view_hits);
  state.counters["view_publishes"] = static_cast<double>(total.view_publishes);
}
BENCHMARK(BM_AnswerViewSessions)
    ->ArgName("views_kb")
    ->Arg(0)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Raw subsumption-probe cost on the open path: TryMatch against a cache
/// holding one matching descriptor — the per-open overhead a view-enabled
/// service adds before falling back to a live build.
void BM_ViewMatchCost(benchmark::State& state) {
  auto plan = mediator::CompileXmas(kZipsBase).ValueOrDie();
  mediator::ViewShape shape = mediator::ComputeViewShape(*plan);
  auto narrow_plan = mediator::CompileXmas(kZipsNarrow).ValueOrDie();
  mediator::ViewShape narrow = mediator::ComputeViewShape(*narrow_plan);

  mediator::AnswerViewCache cache(
      mediator::AnswerViewCache::Options{int64_t{1} << 20});
  // Donate the real base answer: evaluate kZipsBase in-process and export
  // its materialized document (a factored publish must carry the view's
  // root label).
  auto homes = xml::MakeHomesDoc(24, 10);
  auto schools = xml::MakeSchoolsDoc(24, 10);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
  xml::Document answer;
  xml::Node* answer_root = xml::MaterializeInto(med->document(), &answer);
  answer.set_root(answer_root);
  xml::DocNavigable answer_nav(&answer);
  std::vector<SubtreeEntry> entries;
  answer_nav.FetchSubtree(answer_nav.Root(), -1, &entries);
  cache.Publish(shape, entries, cache.generations().PinSources(shape.sources));

  int64_t hits = 0;
  for (auto _ : state) {
    mediator::AnswerViewCache::Match m = cache.TryMatch(narrow);
    if (m.snapshot != nullptr) ++hits;
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ViewMatchCost);

}  // namespace
