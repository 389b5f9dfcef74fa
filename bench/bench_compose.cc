// Experiment E10 (DESIGN.md): static query∘view composition (Section 3's
// preprocessing) vs. runtime mediator stacking (Fig. 1).
//
// Workload: a selective query over the Fig. 3 homes/schools view
// (med_homes whose home has one specific zip), client reads the full
// (small) answer. Three strategies:
//
//   * stacked:            query mediator over the view mediator's virtual
//                         document;
//   * composed:           one flat plan (view unfolded into the query);
//   * composed+rewritten: the flat plan after the optimizer pipeline
//                         (passes::OptimizePlan) runs over the combined
//                         operator tree (σ-enabling, pushdowns, fusion).
//
// Expected shape: source navigations are identical across strategies (the
// selection's variable is only derivable through the view's join, so no
// strategy can skip source work), but composition removes the per-hop
// id-wrapping administration of the mediator tree — a constant-factor
// wall-time win that grows with answer size — and yields one flat plan the
// rewriter can keep working on.
#include <benchmark/benchmark.h>

#include "mediator/compose.h"
#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;

mediator::PlanPtr ViewPlan() {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2");
  return mediator::TranslateQuery(q.value()).ValueOrDie();
}

mediator::PlanPtr QueryPlan() {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <hits> $M {$M} </hits> {} "
      "WHERE theView answer.med_home $M AND $M home.zip._ $Z "
      "AND $Z = '91000'");
  return mediator::TranslateQuery(q.value()).ValueOrDie();
}

struct Instance {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
};

Instance MakeInstance(int n) {
  return Instance{xml::MakeHomesDoc(n, n / 8), xml::MakeSchoolsDoc(n, n / 8)};
}

void BM_StackedSelectiveQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Instance inst = MakeInstance(n);
  auto view = ViewPlan();
  auto query = QueryPlan();
  for (auto _ : state) {
    xml::DocNavigable homes_nav(inst.homes.get());
    xml::DocNavigable schools_nav(inst.schools.get());
    NavStats stats;
    CountingNavigable hc(&homes_nav, &stats);
    CountingNavigable sc(&schools_nav, &stats);
    mediator::SourceRegistry lower_sources;
    lower_sources.Register("homesSrc", &hc);
    lower_sources.Register("schoolsSrc", &sc);
    auto lower = mediator::LazyMediator::Build(*view, lower_sources).ValueOrDie();
    mediator::SourceRegistry upper_sources;
    upper_sources.Register("theView", lower->document());
    auto upper = mediator::LazyMediator::Build(*query, upper_sources).ValueOrDie();
    auto answer = xml::Materialize(upper->document());
    benchmark::DoNotOptimize(answer->node_count());
    state.counters["src_navs"] = static_cast<double>(stats.total());
  }
}
BENCHMARK(BM_StackedSelectiveQuery)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({400})
    ->Args({1000});

void RunFlat(benchmark::State& state, int n, bool rewrite) {
  Instance inst = MakeInstance(n);
  auto view = ViewPlan();
  auto query = QueryPlan();
  auto composed =
      mediator::ComposeQueryOverView(*query, "theView", *view).ValueOrDie();
  if (rewrite) {
    mediator::passes::OptimizerOptions options;
    options.sources["homesSrc"].sigma = true;
    options.sources["schoolsSrc"].sigma = true;
    mediator::passes::OptimizePlan(&composed, options).ValueOrDie();
  }
  for (auto _ : state) {
    xml::DocNavigable homes_nav(inst.homes.get());
    xml::DocNavigable schools_nav(inst.schools.get());
    NavStats stats;
    CountingNavigable hc(&homes_nav, &stats);
    CountingNavigable sc(&schools_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &hc);
    sources.Register("schoolsSrc", &sc);
    auto med = mediator::LazyMediator::Build(*composed, sources).ValueOrDie();
    auto answer = xml::Materialize(med->document());
    benchmark::DoNotOptimize(answer->node_count());
    state.counters["src_navs"] = static_cast<double>(stats.total());
  }
}

void BM_ComposedSelectiveQuery(benchmark::State& state) {
  RunFlat(state, static_cast<int>(state.range(0)), /*rewrite=*/false);
}
BENCHMARK(BM_ComposedSelectiveQuery)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({400})
    ->Args({1000});

void BM_ComposedRewrittenSelectiveQuery(benchmark::State& state) {
  RunFlat(state, static_cast<int>(state.range(0)), /*rewrite=*/true);
}
BENCHMARK(BM_ComposedRewrittenSelectiveQuery)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({400})
    ->Args({1000});

}  // namespace
