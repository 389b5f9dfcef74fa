// Experiment E6 (DESIGN.md): the full Fig. 4 plan, end-to-end, as a tree
// of lazy mediators (Figs. 1-2).
//
//   * join selectivity sweep: source navigations for the first result as
//     the zip-code density varies (sparser joins scan further — the
//     unbounded-browsable behavior at plan scale);
//   * plan depth: stacking an extra mediator level on top (query over a
//     view, Fig. 1) — navigations at the bottom boundary stay put, per-hop
//     administration grows;
//   * rewriting ablation: σ-enabled vs. plain plans over σ-capable sources.
#include <benchmark/benchmark.h>

#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Runs the optimizer with σ granted to `sources`.
void Optimize(mediator::PlanPtr* plan, const std::vector<std::string>& sources) {
  mediator::passes::OptimizerOptions options;
  for (const std::string& s : sources) options.sources[s].sigma = true;
  mediator::passes::OptimizePlan(plan, options).ValueOrDie();
}

mediator::PlanPtr Fig3Plan(bool sigma) {
  auto q = xmas::ParseQuery(kFig3).ValueOrDie();
  auto plan = mediator::TranslateQuery(q).ValueOrDie();
  if (sigma) Optimize(&plan, {"homesSrc", "schoolsSrc"});
  return plan;
}

/// First-result latency vs. join selectivity (zips count).
void BM_JoinSelectivitySweep(benchmark::State& state) {
  int n = 2000;
  int zips = static_cast<int>(state.range(0));
  auto homes = xml::MakeHomesDoc(n, zips);
  auto schools = xml::MakeSchoolsDoc(n, zips);
  auto plan = Fig3Plan(false);
  for (auto _ : state) {
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    NavStats stats;
    CountingNavigable hc(&homes_nav, &stats);
    CountingNavigable sc(&schools_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &hc);
    sources.Register("schoolsSrc", &sc);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    Navigable* doc = med->document();
    auto mh = doc->Down(doc->Root());
    benchmark::DoNotOptimize(mh);
    state.counters["src_navs_first_result"] =
        static_cast<double>(stats.total());
  }
}
BENCHMARK(BM_JoinSelectivitySweep)
    ->ArgNames({"zips"})
    ->Args({10})
    ->Args({100})
    ->Args({1000})
    ->Args({10000});

/// Homes interleaved with non-matching noise elements (ads, banners...) —
/// the realistic Web page where label selection actually skips content.
/// One home every `noise + 1` children.
std::unique_ptr<xml::Document> NoisyHomes(int n, int zips, int noise) {
  auto doc = std::make_unique<xml::Document>();
  xml::Node* root = doc->NewElement("homes");
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < noise; ++j) {
      xml::Node* ad = doc->NewElement("ad");
      doc->AppendChild(ad, doc->NewText("buy now"));
      doc->AppendChild(root, ad);
    }
    xml::Node* home = doc->NewElement("home");
    xml::Node* zip = doc->NewElement("zip");
    doc->AppendChild(zip, doc->NewText(xml::ZipFor(i, zips, 7)));
    doc->AppendChild(home, zip);
    doc->AppendChild(root, home);
  }
  doc->set_root(root);
  return doc;
}

/// σ-rewriting ablation: a label-selection view over a noisy source
/// (`noise` non-matching siblings per home) — the Section 2 example whose
/// browsability σ upgrades. Skims the first 20 homes.
void BM_SigmaRewriteAblation(benchmark::State& state) {
  bool sigma = state.range(0) != 0;
  int noise = static_cast<int>(state.range(1));
  auto homes = NoisyHomes(2000, 60, noise);
  auto q = xmas::ParseQuery(
      "CONSTRUCT <out> $H {$H} </out> {} WHERE homesSrc homes.home $H");
  auto plan = mediator::TranslateQuery(q.value()).ValueOrDie();
  if (sigma) Optimize(&plan, {"homesSrc"});
  for (auto _ : state) {
    xml::DocNavigable homes_nav(homes.get());
    NavStats stats;
    CountingNavigable hc(&homes_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &hc);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    Navigable* doc = med->document();
    auto h = doc->Down(doc->Root());
    for (int i = 0; i < 19 && h.has_value(); ++i) h = doc->Right(*h);
    // σ folds r/f sibling scans into single select commands at the source.
    state.counters["src_cmds"] = static_cast<double>(stats.total());
    state.counters["src_selects"] = static_cast<double>(stats.selects);
  }
}
BENCHMARK(BM_SigmaRewriteAblation)
    ->ArgNames({"sigma", "noise"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 9})
    ->Args({1, 9})
    ->Args({0, 99})
    ->Args({1, 99});

/// Mediator-tree depth: the same client workload through 0..3 extra
/// identity-view mediators stacked on the Fig. 3 answer.
void BM_MediatorStackDepth(benchmark::State& state) {
  int extra_levels = static_cast<int>(state.range(0));
  auto homes = xml::MakeHomesDoc(500, 60);
  auto schools = xml::MakeSchoolsDoc(500, 60);
  auto base_plan = Fig3Plan(false);
  // Identity view: re-group all med_homes under a fresh answer element.
  auto identity_q = xmas::ParseQuery(
      "CONSTRUCT <answer> $M {$M} </answer> {} "
      "WHERE below answer.med_home $M");
  auto identity_plan =
      mediator::TranslateQuery(identity_q.value()).ValueOrDie();

  for (auto _ : state) {
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    NavStats stats;
    CountingNavigable hc(&homes_nav, &stats);
    CountingNavigable sc(&schools_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &hc);
    sources.Register("schoolsSrc", &sc);
    std::vector<std::unique_ptr<mediator::LazyMediator>> stack;
    stack.push_back(
        mediator::LazyMediator::Build(*base_plan, sources).ValueOrDie());
    for (int i = 0; i < extra_levels; ++i) {
      mediator::SourceRegistry upper;
      upper.Register("below", stack.back()->document());
      stack.push_back(
          mediator::LazyMediator::Build(*identity_plan, upper).ValueOrDie());
    }
    Navigable* doc = stack.back()->document();
    auto mh = doc->Down(doc->Root());
    for (int i = 0; i < 2 && mh.has_value(); ++i) mh = doc->Right(*mh);
    state.counters["src_navs"] = static_cast<double>(stats.total());
  }
}
BENCHMARK(BM_MediatorStackDepth)
    ->ArgNames({"extra_levels"})
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Args({3});

}  // namespace
