#include <gtest/gtest.h>

#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/random_tree.h"
#include "xml/doc_navigable.h"

namespace mix::mediator {
namespace {

using algebra::BindingPredicate;
using algebra::CompareOp;
using passes::OptimizerOptions;

PlanPtr Translate(const std::string& text) {
  auto q = xmas::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto plan = TranslateQuery(q.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

/// Runs `pass` alone through a PassManager; returns the rewrites it applied.
int RunPass(std::unique_ptr<passes::Pass> pass, PlanPtr* plan,
            const OptimizerOptions& options = {}) {
  passes::PassManager pm;
  pm.Add(std::move(pass));
  auto report = pm.Run(plan, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value().total() : 0;
}

int CountSigma(const PlanNode& n) {
  int c = n.kind == PlanNode::Kind::kGetDescendants && n.use_sigma ? 1 : 0;
  for (const PlanPtr& child : n.children) c += CountSigma(*child);
  return c;
}

TEST(RewriteTest, SigmaEnabledOnLabelChains) {
  PlanPtr plan = Translate(
      "CONSTRUCT <a> $H {$H} </a> {} "
      "WHERE src homes.home $H AND $H zip._ $V");
  OptimizerOptions options;
  options.sources["src"].sigma = true;
  int sigma_enabled = RunPass(passes::MakeBrowsabilityPass(), &plan, options);
  // homes.home is a chain; zip._ is not.
  EXPECT_EQ(sigma_enabled, 1);
  EXPECT_EQ(CountSigma(*plan), 1);
}

TEST(RewriteTest, SigmaNotEnabledWithoutCapableSources) {
  PlanPtr plan = Translate(
      "CONSTRUCT <a> $H {$H} </a> {} WHERE src homes.home $H");
  EXPECT_EQ(RunPass(passes::MakeBrowsabilityPass(), &plan), 0);
}

TEST(RewriteTest, SelectPushedBelowJoin) {
  // Build select(join(...)) by hand.
  PlanPtr left = PlanNode::GetDescendants(PlanNode::Source("s1", "R1"), "R1",
                                          "a.k", "K1");
  PlanPtr right = PlanNode::GetDescendants(PlanNode::Source("s2", "R2"), "R2",
                                           "b.k", "K2");
  PlanPtr join =
      PlanNode::Join(std::move(left), std::move(right),
                     BindingPredicate::VarVar("K1", CompareOp::kEq, "K2"));
  PlanPtr plan = PlanNode::Select(
      std::move(join), BindingPredicate::VarConst("K1", CompareOp::kGt, "5"));

  EXPECT_GE(RunPass(passes::MakeSelectPushdownPass(), &plan), 1);
  // The root is now the join; the select sits on the left side.
  EXPECT_EQ(plan->kind, PlanNode::Kind::kJoin);
  EXPECT_EQ(plan->children[0]->kind, PlanNode::Kind::kSelect);
}

TEST(RewriteTest, SelectPushedBelowGetDescendants) {
  PlanPtr gd1 = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R",
                                         "a.k", "K");
  PlanPtr gd2 =
      PlanNode::GetDescendants(std::move(gd1), "K", "v._", "V");
  PlanPtr plan = PlanNode::Select(
      std::move(gd2), BindingPredicate::VarConst("K", CompareOp::kEq, "x"));

  // The predicate mentions K but not V: it can sink below the V extraction
  // (but not below K's own extraction).
  EXPECT_EQ(RunPass(passes::MakeSelectPushdownPass(), &plan), 1);
  EXPECT_EQ(plan->kind, PlanNode::Kind::kGetDescendants);
  EXPECT_EQ(plan->out_var, "V");
  EXPECT_EQ(plan->children[0]->kind, PlanNode::Kind::kSelect);
}

TEST(RewriteTest, SelectPushedBelowGroupByOnGroupVars) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a",
                                        "A");
  PlanPtr gd2 = PlanNode::GetDescendants(std::move(gd), "A", "v._", "V");
  PlanPtr gb = PlanNode::GroupBy(std::move(gd2), {"A"}, "V", "L");
  PlanPtr plan = PlanNode::Select(
      std::move(gb), BindingPredicate::VarConst("A", CompareOp::kNe, "z"));

  // Sinks below the groupBy *and* below the V extraction, stopping at A's
  // own extraction.
  EXPECT_EQ(RunPass(passes::MakeSelectPushdownPass(), &plan), 2);
  EXPECT_EQ(plan->kind, PlanNode::Kind::kGroupBy);
  EXPECT_EQ(plan->children[0]->kind, PlanNode::Kind::kGetDescendants);
  EXPECT_EQ(plan->children[0]->children[0]->kind, PlanNode::Kind::kSelect);
}

TEST(RewriteTest, SelectNotPushedWhenListVarInvolved) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a",
                                        "A");
  PlanPtr plan = PlanNode::Select(
      std::move(gd), BindingPredicate::VarConst("A", CompareOp::kEq, "x"));
  // Predicate uses the getDescendants output: no pushdown possible.
  EXPECT_EQ(RunPass(passes::MakeSelectPushdownPass(), &plan), 0);
  EXPECT_EQ(plan->kind, PlanNode::Kind::kSelect);
}

TEST(RewriteTest, RedundantProjectRemoved) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a",
                                        "A");
  PlanPtr plan = PlanNode::Project(std::move(gd), {"R", "A"});
  EXPECT_EQ(RunPass(passes::MakeProjectPrunePass(), &plan), 1);
  EXPECT_EQ(plan->kind, PlanNode::Kind::kGetDescendants);
}

TEST(RewriteTest, NarrowingProjectKept) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a",
                                        "A");
  PlanPtr plan = PlanNode::Project(std::move(gd), {"A"});
  EXPECT_EQ(RunPass(passes::MakeProjectPrunePass(), &plan), 0);
  EXPECT_EQ(plan->kind, PlanNode::Kind::kProject);
}

TEST(RewriteTest, RewrittenPlanIsEquivalent) {
  const char* query =
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";
  PlanPtr plan = Translate(query);
  PlanPtr rewritten = plan->Clone();
  OptimizerOptions options;
  options.sources["homesSrc"].sigma = true;
  options.sources["schoolsSrc"].sigma = true;
  EXPECT_GT(RunPass(passes::MakeBrowsabilityPass(), &rewritten, options), 0);

  auto homes = xml::MakeHomesDoc(15, 3);
  auto schools = xml::MakeSchoolsDoc(15, 3);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);

  auto before = LazyMediator::Build(*plan, sources).ValueOrDie();
  auto after = LazyMediator::Build(*rewritten, sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(before->document()),
            testing::MaterializeToTerm(after->document()));
}

TEST(RewriteTest, CloneIsDeepAndEqualRendering) {
  PlanPtr plan = Translate(
      "CONSTRUCT <a> $H {$H} </a> {} WHERE src homes.home $H");
  PlanPtr clone = plan->Clone();
  EXPECT_EQ(plan->ToString(), clone->ToString());
  clone->children[0]->label = "changed";
  EXPECT_NE(plan->ToString(), clone->ToString());
}

}  // namespace
}  // namespace mix::mediator
