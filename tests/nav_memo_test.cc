// NavStats regression for the per-operator navigation memo: on the paper's
// E6 homes/schools plan, enabling the memo must never *increase* source
// navigations — caching can only remove navigations, never add them.
#include <gtest/gtest.h>

#include <string>

#include "algebra/get_descendants_op.h"
#include "algebra/nav_memo.h"
#include "algebra/source_op.h"
#include "core/navigable.h"
#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "pathexpr/path_expr.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace mix {
namespace {

/// The Fig. 3 homes/schools query (the E6 plan after translation).
constexpr const char* kE6Query = R"(
CONSTRUCT <answer>
  <med_home> $H
    $S {$S}
  </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

struct E6Run {
  int64_t source_navs;
  std::string answer;
};

/// Builds the E6 plan over counting sources and materializes the answer
/// three times (pass 1 is the forward scan; passes 2 and 3 are client
/// revisits of already-issued handles). Returns total source navigations.
E6Run RunE6(size_t memo_capacity) {
  size_t saved = algebra::DefaultNavMemoCapacity();
  algebra::SetDefaultNavMemoCapacity(memo_capacity);

  auto query = xmas::ParseQuery(kE6Query).ValueOrDie();
  auto plan = mediator::TranslateQuery(query).ValueOrDie();
  mediator::passes::OptimizerOptions optimizer;
  optimizer.sources["homesSrc"].sigma = true;
  optimizer.sources["schoolsSrc"].sigma = true;
  auto rewritten = plan->Clone();
  EXPECT_TRUE(mediator::passes::OptimizePlan(&rewritten, optimizer).ok());

  auto homes = xml::MakeHomesDoc(60, 12);
  auto schools = xml::MakeSchoolsDoc(60, 12);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  NavStats homes_stats, schools_stats;
  CountingNavigable homes_counted(&homes_nav, &homes_stats);
  CountingNavigable schools_counted(&schools_nav, &schools_stats);

  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_counted);
  sources.Register("schoolsSrc", &schools_counted);
  auto med = mediator::LazyMediator::Build(*rewritten, sources).ValueOrDie();

  std::string answer;
  for (int pass = 0; pass < 3; ++pass) {
    auto full = xml::Materialize(med->document());
    std::string term = xml::ToTerm(full->root());
    if (pass == 0) {
      answer = term;
    } else {
      // Caching must be invisible in the answer.
      EXPECT_EQ(term, answer) << "pass " << pass << " diverged";
    }
  }

  algebra::SetDefaultNavMemoCapacity(saved);
  return {homes_stats.total() + schools_stats.total(), answer};
}

TEST(NavMemoRegressionTest, MemoNeverIncreasesSourceNavigationsOnE6) {
  E6Run with_memo = RunE6(1024);
  E6Run without_memo = RunE6(0);
  EXPECT_EQ(with_memo.answer, without_memo.answer);
  EXPECT_FALSE(with_memo.answer.empty());
  EXPECT_LE(with_memo.source_navs, without_memo.source_navs);
}

// A direct pin on the revisit path of one operator: re-asking NextBinding
// from an old binding is answered from the memo after its first recompute.
TEST(NavMemoRegressionTest, GetDescendantsRevisitHitsMemo) {
  auto doc = testing::Doc("r[a[1],a[2],a[3],a[4]]");

  auto run = [&doc](size_t capacity) {
    size_t saved = algebra::DefaultNavMemoCapacity();
    algebra::SetDefaultNavMemoCapacity(capacity);
    xml::DocNavigable nav(doc.get());
    NavStats stats;
    CountingNavigable counted(&nav, &stats);
    algebra::SourceOp source(&counted, "R");
    algebra::GetDescendantsOp gd(
        &source, "R", pathexpr::PathExpr::Parse("a").ValueOrDie(), "A");
    // Forward scan to the end.
    auto first = gd.FirstBinding();
    EXPECT_TRUE(first.has_value());
    for (auto b = first; b.has_value(); b = gd.NextBinding(*b)) {
    }
    // Two revisits of the oldest binding: the first may recompute (and
    // memoize), the second must not navigate at all when the memo is on.
    gd.NextBinding(*first);
    int64_t after_first_revisit = stats.total();
    gd.NextBinding(*first);
    int64_t after_second_revisit = stats.total();
    algebra::SetDefaultNavMemoCapacity(saved);
    return after_second_revisit - after_first_revisit;
  };

  EXPECT_EQ(run(1024), 0);
  EXPECT_GT(run(0), 0);
}

}  // namespace
}  // namespace mix
