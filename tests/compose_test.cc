// Static query∘view composition (mediator/compose.h): the composed flat
// plan must be navigationally equivalent to runtime mediator stacking.
#include <gtest/gtest.h>

#include "mediator/compose.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

const char* kViewText = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

PlanPtr ParsePlan(const std::string& text) {
  auto q = xmas::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto plan = TranslateQuery(q.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

/// Evaluates `query` over the Fig. 3 view by runtime stacking.
std::string RunStacked(const PlanNode& query, const PlanNode& view,
                       const xml::Document* homes,
                       const xml::Document* schools) {
  xml::DocNavigable homes_nav(homes);
  xml::DocNavigable schools_nav(schools);
  SourceRegistry lower_sources;
  lower_sources.Register("homesSrc", &homes_nav);
  lower_sources.Register("schoolsSrc", &schools_nav);
  auto lower = LazyMediator::Build(view, lower_sources).ValueOrDie();
  SourceRegistry upper_sources;
  upper_sources.Register("theView", lower->document());
  auto upper = LazyMediator::Build(query, upper_sources).ValueOrDie();
  return testing::MaterializeToTerm(upper->document());
}

/// Evaluates the composed flat plan directly against the base sources.
std::string RunComposed(const PlanNode& composed, const xml::Document* homes,
                        const xml::Document* schools, NavStats* stats) {
  xml::DocNavigable homes_nav(homes);
  xml::DocNavigable schools_nav(schools);
  CountingNavigable hc(&homes_nav, stats);
  CountingNavigable sc(&schools_nav, stats);
  SourceRegistry sources;
  sources.Register("homesSrc", &hc);
  sources.Register("schoolsSrc", &sc);
  auto med = LazyMediator::Build(composed, sources).ValueOrDie();
  return testing::MaterializeToTerm(med->document());
}

TEST(ComposeTest, MedHomeQueryUnfolds) {
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr query = ParsePlan(
      "CONSTRUCT <homes_found> $M {$M} </homes_found> {} "
      "WHERE theView answer.med_home $M");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  // The composed plan is flat: no reference to the view source remains.
  EXPECT_EQ(composed.value()->ToString().find("theView"), std::string::npos);

  auto homes = xml::MakeHomesDoc(20, 5);
  auto schools = xml::MakeSchoolsDoc(20, 5);
  NavStats stats;
  EXPECT_EQ(RunComposed(*composed.value(), homes.get(), schools.get(), &stats),
            RunStacked(*query, *view, homes.get(), schools.get()));
}

TEST(ComposeTest, ResidualNavigationBelowUnfoldedElement) {
  // answer.med_home unfolds; navigation *inside* med_home (source content)
  // stays in the query as operators over the bound variable.
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr query = ParsePlan(
      "CONSTRUCT <zips> $Z {$Z} </zips> {} "
      "WHERE theView answer.med_home $M AND $M school.zip._ $Z");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();

  auto homes = xml::MakeHomesDoc(12, 3);
  auto schools = xml::MakeSchoolsDoc(12, 3);
  NavStats stats;
  EXPECT_EQ(RunComposed(*composed.value(), homes.get(), schools.get(), &stats),
            RunStacked(*query, *view, homes.get(), schools.get()));
}

TEST(ComposeTest, SelectionOverViewComposesAndAgrees) {
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr query = ParsePlan(
      "CONSTRUCT <hits> $M {$M} </hits> {} "
      "WHERE theView answer.med_home $M AND $M home.zip._ $Z "
      "AND $Z = '91001'");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();

  auto homes = xml::MakeHomesDoc(30, 4);
  auto schools = xml::MakeSchoolsDoc(30, 4);
  NavStats stats;
  EXPECT_EQ(RunComposed(*composed.value(), homes.get(), schools.get(), &stats),
            RunStacked(*query, *view, homes.get(), schools.get()));
}

TEST(ComposeTest, CrossingNonEmptyGroupPreservesOrder) {
  // Hand-built view whose groupBy{G} input has *interleaved* group keys
  // (union of two identical scans => each group's members are split
  // across the two halves). Unfolding out.reg.h crosses groupBy{G}, so
  // the composer must insert the occurrence-mode orderBy to reproduce the
  // flattened group order.
  auto chain = [] {
    return PlanNode::GetDescendants(
        PlanNode::GetDescendants(PlanNode::Source("regionsSrc", "R"), "R",
                                 "regions.region", "G"),
        "G", "home", "H");
  };
  PlanPtr stream = PlanNode::Union(chain(), chain());
  stream = PlanNode::WrapList(std::move(stream), "H", "W");
  stream = PlanNode::CreateElement(std::move(stream), true, "h", "W", "Vh");
  stream = PlanNode::GroupBy(std::move(stream), {"G"}, "Vh", "L");
  stream = PlanNode::CreateElement(std::move(stream), true, "reg", "L", "E");
  stream = PlanNode::GroupBy(std::move(stream), {}, "E", "L2");
  stream = PlanNode::CreateElement(std::move(stream), true, "out", "L2", "A");
  PlanPtr view = PlanNode::TupleDestroy(std::move(stream), "A");

  PlanPtr query = ParsePlan(
      "CONSTRUCT <hs> $X {$X} </hs> {} WHERE theView out.reg.h $X");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  // The crossing inserted the occurrence sort.
  EXPECT_NE(composed.value()->ToString().find("occurrence"),
            std::string::npos);

  auto regions = testing::Doc(
      "regions[region[home[h1],home[h2]],region[home[h3]],"
      "region[home[h4],home[h5]]]");
  xml::DocNavigable nav1(regions.get());
  SourceRegistry lower_sources;
  lower_sources.Register("regionsSrc", &nav1);
  auto lower = LazyMediator::Build(*view, lower_sources).ValueOrDie();
  SourceRegistry upper_sources;
  upper_sources.Register("theView", lower->document());
  auto upper = LazyMediator::Build(*query, upper_sources).ValueOrDie();
  std::string stacked = testing::MaterializeToTerm(upper->document());

  xml::DocNavigable nav2(regions.get());
  SourceRegistry flat_sources;
  flat_sources.Register("regionsSrc", &nav2);
  auto flat = LazyMediator::Build(*composed.value(), flat_sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(flat->document()), stacked);
  // Sanity: the union really interleaved the groups — region 1's cluster
  // is [h1,h2,h1,h2], so h2 (first half) is followed by h1 (second half).
  EXPECT_NE(stacked.find("h[home[h2]],h[home[h1]]"), std::string::npos);
}

TEST(ComposeTest, ComposedPlanUsesFewerSourceNavigations) {
  // The win: a selective query over the view, composed + rewritten, lets
  // the select sink across the former view boundary.
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr query = ParsePlan(
      "CONSTRUCT <hits> $M {$M} </hits> {} "
      "WHERE theView answer.med_home $M AND $M home.zip._ $Z "
      "AND $Z = '91000'");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok());

  auto homes = xml::MakeHomesDoc(60, 6);
  auto schools = xml::MakeSchoolsDoc(60, 6);

  // Stacked cost: count at the base sources.
  NavStats stacked_stats;
  {
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    CountingNavigable hc(&homes_nav, &stacked_stats);
    CountingNavigable sc(&schools_nav, &stacked_stats);
    SourceRegistry lower_sources;
    lower_sources.Register("homesSrc", &hc);
    lower_sources.Register("schoolsSrc", &sc);
    auto lower = LazyMediator::Build(*view, lower_sources).ValueOrDie();
    SourceRegistry upper_sources;
    upper_sources.Register("theView", lower->document());
    auto upper = LazyMediator::Build(*query, upper_sources).ValueOrDie();
    testing::MaterializeToTerm(upper->document());
  }
  NavStats composed_stats;
  std::string composed_out = RunComposed(*composed.value(), homes.get(),
                                         schools.get(), &composed_stats);
  EXPECT_FALSE(composed_out.empty());
  EXPECT_LE(composed_stats.total(), stacked_stats.total());
}

TEST(ComposeTest, QueryWithoutTheViewIsUntouched) {
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr query = ParsePlan(
      "CONSTRUCT <x> $A {$A} </x> {} WHERE other a.b $A");
  auto composed = ComposeQueryOverView(*query, "theView", *view);
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(composed.value()->ToString(), query->ToString());
}

TEST(ComposeTest, BailCases) {
  PlanPtr view = ParsePlan(kViewText);
  auto expect_bail = [&](const char* query_text, const char* why) {
    PlanPtr query = ParsePlan(query_text);
    auto composed = ComposeQueryOverView(*query, "theView", *view);
    EXPECT_FALSE(composed.ok()) << why;
    if (!composed.ok()) {
      EXPECT_EQ(composed.status().code(), Status::Code::kInvalidArgument)
          << why;
    }
  };
  // Wildcard path.
  expect_bail(
      "CONSTRUCT <x> $M {$M} </x> {} WHERE theView answer._ $M",
      "non-chain path");
  // Root-label mismatch.
  expect_bail(
      "CONSTRUCT <x> $M {$M} </x> {} WHERE theView wrong.med_home $M",
      "root mismatch");
  // Path to the root only.
  expect_bail("CONSTRUCT <x> $M {$M} </x> {} WHERE theView answer $M",
              "root-only path");
  // Descending into source-dependent content (med_home content is ANY).
  expect_bail(
      "CONSTRUCT <x> $M {$M} </x> {} "
      "WHERE theView answer.med_home.school $M",
      "ANY content");
}

}  // namespace
}  // namespace mix::mediator

namespace mix::mediator {
namespace {

TEST(ComposeTest, HandBuiltBailShapes) {
  using algebra::BindingPredicate;
  using algebra::CompareOp;

  // View whose root label is variable: bail.
  {
    PlanPtr stream = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R",
                                              "tag._", "T");
    stream = PlanNode::WrapList(std::move(stream), "T", "W");
    stream = PlanNode::CreateElement(std::move(stream),
                                     /*label_is_constant=*/false, "T", "W",
                                     "E");
    PlanPtr view = PlanNode::TupleDestroy(std::move(stream), "E");
    PlanPtr query = ParsePlan(
        "CONSTRUCT <x> $M {$M} </x> {} WHERE v a.b $M");
    auto composed = ComposeQueryOverView(*query, "v", *view);
    EXPECT_FALSE(composed.ok());
  }

  // View whose root is a raw source value (no createElement): bail.
  {
    PlanPtr view = PlanNode::TupleDestroy(
        PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a", "A"),
        "A");
    PlanPtr query = ParsePlan(
        "CONSTRUCT <x> $M {$M} </x> {} WHERE v a.b $M");
    auto composed = ComposeQueryOverView(*query, "v", *view);
    EXPECT_FALSE(composed.ok());
  }
}

TEST(ComposeTest, ViewSourceReferencedTwiceBails) {
  PlanPtr view = ParsePlan(kViewText);
  PlanPtr q = ParsePlan(
      "CONSTRUCT <x> $A {$A} </x> {} "
      "WHERE theView answer.med_home $M AND $M home $A");
  // Union of two copies of the stream: the view source appears twice.
  PlanPtr twice = PlanNode::TupleDestroy(
      PlanNode::Union(q->children[0]->Clone(), q->children[0]->Clone()),
      q->var);
  auto composed = ComposeQueryOverView(*twice, "theView", *view);
  ASSERT_FALSE(composed.ok());
  EXPECT_NE(composed.status().ToString().find("more than once"),
            std::string::npos);
}

}  // namespace
}  // namespace mix::mediator
