// Experiment E15 (EXPERIMENTS.md): the plan optimizer's effect on
// wrapper traffic, at byte-identical answers. The axis is whether the
// sources declare their pushdown capability (pushdown=1) or register
// without one (pushdown=0); the optimizer runs in both, and only a
// declared capability licenses wrapper pushdown.
//
//   * BM_RelationalScanPushdown — a zip-equality scan over a 512-row
//     relational source. With the predicate compiled into the wrapper's
//     mini-SQL view only matching rows cross the LXP boundary.
//     Acceptance: `wrapper_exchanges` drops >= 25% pushdown 0 -> 1 and
//     `mismatches` = 0.
//   * BM_RelationalJoinPushdown — the Fig. 3 join shape over two
//     relational sources (homes x schools on zip) with a constant zip
//     filter on each leg; both legs push their predicate. Same acceptance.
//   * BM_XmlFig3Pushdown — the original XML Fig. 3 workload. The XML
//     wrapper declares no pushdown capability, so both arms run the same
//     plan: expect `wrapper_exchanges` parity (the honest non-win; see
//     DESIGN.md §6).
//   * BM_OptimizeCost — CompileXmas alone vs CompileXmas + OptimizePlan,
//     the one-time per-plan-cache-miss cost the savings above are bought
//     with.
//
// Each benchmark runs 5 repetitions and reports only the aggregates
// (bench_stats.h).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "rdb/database.h"
#include "service/service.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using service::MediatorService;
using service::SessionEnvironment;

const char* kScanQuery =
    "CONSTRUCT <hits> $R {$R} </hits> {} "
    "WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '91207'";

const char* kJoinQuery =
    "CONSTRUCT <pairs> <pair> $R $S {$S} </pair> {$R} </pairs> {} "
    "WHERE realty realty.homes.row $R AND $R zip._ $Z1 "
    "AND edu edu.schools.row $S AND $S zip._ $Z2 "
    "AND $Z1 = $Z2 AND $Z1 = '91207' AND $Z2 = '91207'";

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Counts every LXP exchange (root fetch / fill) crossing to the wrapped
/// wrapper — the unit E15's >= 25% reduction is measured in.
class CountedWrapper : public buffer::LxpWrapper {
 public:
  CountedWrapper(std::unique_ptr<buffer::LxpWrapper> inner,
                 std::atomic<int64_t>* exchanges)
      : inner_(std::move(inner)), exchanges_(exchanges) {}

  std::string GetRoot(const std::string& uri) override {
    exchanges_->fetch_add(1, std::memory_order_relaxed);
    return inner_->GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    exchanges_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    exchanges_->fetch_add(1, std::memory_order_relaxed);
    return inner_->FillMany(holes, budget);
  }

 private:
  std::unique_ptr<buffer::LxpWrapper> inner_;
  std::atomic<int64_t>* exchanges_;
};

rdb::Database MakeHomesDb(int rows) {
  rdb::Database db("realty");
  rdb::Schema schema(
      {{"addr", rdb::Type::kString}, {"zip", rdb::Type::kInt}});
  rdb::Table* t = db.CreateTable("homes", schema).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    (void)t->Insert({rdb::Value("street " + std::to_string(i)),
                     rdb::Value(int64_t{91200 + i % 64})});
  }
  return db;
}

rdb::Database MakeSchoolsDb(int rows) {
  rdb::Database db("edu");
  rdb::Schema schema(
      {{"dir", rdb::Type::kString}, {"zip", rdb::Type::kInt}});
  rdb::Table* t = db.CreateTable("schools", schema).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    (void)t->Insert({rdb::Value("dir " + std::to_string(i)),
                     rdb::Value(int64_t{91200 + i % 64})});
  }
  return db;
}

/// `declare` registers the wrapper's pushdown capability with the source;
/// without it the optimizer has no license to push predicates into SQL.
void RegisterDb(SessionEnvironment* env, const std::string& name,
                const rdb::Database* db, std::atomic<int64_t>* exchanges,
                bool declare) {
  SessionEnvironment::WrapperOptions wo;
  if (declare) wo.capability = wrappers::RelationalLxpWrapper(db).Capability();
  env->RegisterWrapperFactory(
      name,
      [db, exchanges]() -> std::unique_ptr<buffer::LxpWrapper> {
        return std::make_unique<CountedWrapper>(
            std::make_unique<wrappers::RelationalLxpWrapper>(db), exchanges);
      },
      "db", wo);
}

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out));
}

struct RunTally {
  int64_t sessions = 0;
  int64_t mismatches = 0;
  int64_t exchanges = 0;
  int64_t answer_bytes = 0;
};

/// One session: open, materialize through the framed client, compare to
/// `reference` (empty = establish it).
RunTally RunOnce(SessionEnvironment* env, std::atomic<int64_t>* exchanges,
                 const std::string& query, std::string* reference) {
  MediatorService::Options options;
  options.workers = 2;
  MediatorService service(env, options);

  RunTally tally;
  exchanges->store(0, std::memory_order_relaxed);
  auto doc = client::FramedDocument::Open(&service, query);
  if (!doc.ok()) {
    tally.mismatches = 1;
    return tally;
  }
  std::string term = MaterializeFramed(doc.value().get());
  (void)doc.value()->Close();
  tally.sessions = 1;
  tally.exchanges = exchanges->load(std::memory_order_relaxed);
  tally.answer_bytes = static_cast<int64_t>(term.size());
  if (reference->empty()) {
    *reference = term;
  } else if (term != *reference) {
    tally.mismatches = 1;
  }
  return tally;
}

void Report(benchmark::State& state, const RunTally& total) {
  state.SetItemsProcessed(total.sessions);
  state.counters["pushdown"] = static_cast<double>(state.range(0));
  state.counters["mismatches"] = static_cast<double>(total.mismatches);
  state.counters["wrapper_exchanges"] = static_cast<double>(
      total.sessions > 0 ? total.exchanges / total.sessions : 0);
  state.counters["answer_bytes"] = static_cast<double>(
      total.sessions > 0 ? total.answer_bytes / total.sessions : 0);
}

/// E15 workload 1: predicate scan over one relational leg. `reference` is
/// shared across both arms (pushdown=0 runs first and establishes it), so
/// a pushdown that changed a single answer byte shows up as a mismatch.
void BM_RelationalScanPushdown(benchmark::State& state) {
  static const rdb::Database* db = new rdb::Database(MakeHomesDb(512));
  static std::string* reference = new std::string;

  std::atomic<int64_t> exchanges{0};
  SessionEnvironment env;
  RegisterDb(&env, "realty", db, &exchanges, state.range(0) != 0);

  RunTally total;
  for (auto _ : state) {
    RunTally run = RunOnce(&env, &exchanges, kScanQuery, reference);
    total.sessions += run.sessions;
    total.mismatches += run.mismatches;
    total.exchanges += run.exchanges;
    total.answer_bytes += run.answer_bytes;
  }
  Report(state, total);
}
BENCHMARK(BM_RelationalScanPushdown)
    ->ArgName("pushdown")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::FiveRepetitions);

/// E15 workload 2: the Fig. 3 join shape over two relational legs, a
/// constant zip filter pushed into each.
void BM_RelationalJoinPushdown(benchmark::State& state) {
  static const rdb::Database* homes = new rdb::Database(MakeHomesDb(256));
  static const rdb::Database* schools = new rdb::Database(MakeSchoolsDb(256));
  static std::string* reference = new std::string;

  std::atomic<int64_t> exchanges{0};
  SessionEnvironment env;
  RegisterDb(&env, "realty", homes, &exchanges, state.range(0) != 0);
  RegisterDb(&env, "edu", schools, &exchanges, state.range(0) != 0);

  RunTally total;
  for (auto _ : state) {
    RunTally run = RunOnce(&env, &exchanges, kJoinQuery, reference);
    total.sessions += run.sessions;
    total.mismatches += run.mismatches;
    total.exchanges += run.exchanges;
    total.answer_bytes += run.answer_bytes;
  }
  Report(state, total);
}
BENCHMARK(BM_RelationalJoinPushdown)
    ->ArgName("pushdown")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::FiveRepetitions);

/// The original XML Fig. 3 workload: the XML wrapper's declared capability
/// is empty, so both arms must show exchange parity — reported rather than
/// hidden.
void BM_XmlFig3Pushdown(benchmark::State& state) {
  static const xml::Document* homes = xml::MakeHomesDoc(48, 10).release();
  static const xml::Document* schools = xml::MakeSchoolsDoc(48, 10).release();
  static std::string* reference = new std::string;

  std::atomic<int64_t> exchanges{0};
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  if (state.range(0) != 0) {
    wo.capability = wrappers::XmlLxpWrapper(homes).Capability();
  }
  env.RegisterWrapperFactory(
      "homesSrc",
      [&exchanges]() -> std::unique_ptr<buffer::LxpWrapper> {
        return std::make_unique<CountedWrapper>(
            std::make_unique<wrappers::XmlLxpWrapper>(homes), &exchanges);
      },
      "homes.xml", wo);
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&exchanges]() -> std::unique_ptr<buffer::LxpWrapper> {
        return std::make_unique<CountedWrapper>(
            std::make_unique<wrappers::XmlLxpWrapper>(schools), &exchanges);
      },
      "schools.xml", wo);

  RunTally total;
  for (auto _ : state) {
    RunTally run = RunOnce(&env, &exchanges, kFig3, reference);
    total.sessions += run.sessions;
    total.mismatches += run.mismatches;
    total.exchanges += run.exchanges;
    total.answer_bytes += run.answer_bytes;
  }
  Report(state, total);
}
BENCHMARK(BM_XmlFig3Pushdown)
    ->ArgName("pushdown")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::FiveRepetitions);

/// What a plan-cache miss pays: CompileXmas alone (optimize=0) vs
/// CompileXmas + OptimizePlan, the full pass pipeline, over the join
/// workload.
void BM_OptimizeCost(benchmark::State& state) {
  const bool optimize = state.range(0) != 0;
  mediator::passes::OptimizerOptions options;
  {
    rdb::Database homes = MakeHomesDb(8);
    rdb::Database schools = MakeSchoolsDb(8);
    options.sources["realty"] =
        wrappers::RelationalLxpWrapper(&homes).Capability();
    options.sources["edu"] =
        wrappers::RelationalLxpWrapper(&schools).Capability();
  }

  int64_t rewrites = 0;
  for (auto _ : state) {
    auto plan = mediator::CompileXmas(kJoinQuery).ValueOrDie();
    if (optimize) {
      auto report = mediator::passes::OptimizePlan(&plan, options);
      rewrites += report.ok() ? report.value().total() : 0;
    }
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rewrites_per_plan"] = benchmark::Counter(
      static_cast<double>(rewrites), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OptimizeCost)
    ->ArgName("optimize")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(bench::FiveRepetitions);

}  // namespace
