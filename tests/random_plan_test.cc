// Randomized plan-level differential testing: build random (but
// schema-valid) algebra plans over random documents and check that the
// lazily navigated virtual answer equals the eager reference evaluation.
// This sweeps operator interactions no hand-written test enumerates.
#include <gtest/gtest.h>

#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "mediator/passes/pass.h"
#include "test_util.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Pick(int bound) { return static_cast<int>(Next() % static_cast<uint64_t>(bound)); }

 private:
  uint64_t state_;
};

const char* kPaths[] = {"a0", "a1", "_", "a0._", "_._", "(a0|a1)", "_*.a1",
                        "a0*.a1", "a2?._"};

struct GenStream {
  PlanPtr plan;
  algebra::VarList schema;
};

/// Applies `steps` random schema-valid operators to a source stream.
GenStream GenerateStream(Rng* rng, const std::string& source_name,
                         const std::string& prefix, int steps) {
  GenStream s;
  std::string root = prefix + "root";
  s.plan = PlanNode::Source(source_name, root);
  s.schema = {root};
  int fresh = 0;
  for (int i = 0; i < steps; ++i) {
    int op = rng->Pick(9);
    switch (op) {
      case 0:
      case 1:
      case 2: {  // getDescendants (weighted: keeps schemas growing)
        std::string anchor =
            s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
        std::string out = prefix + "v" + std::to_string(fresh++);
        s.plan = PlanNode::GetDescendants(std::move(s.plan), anchor,
                                          kPaths[rng->Pick(9)], out);
        s.schema.push_back(out);
        break;
      }
      case 3: {  // select var-const
        std::string var =
            s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
        algebra::CompareOp cmp = static_cast<algebra::CompareOp>(rng->Pick(6));
        s.plan = PlanNode::Select(
            std::move(s.plan),
            algebra::BindingPredicate::VarConst(
                var, cmp, "t" + std::to_string(rng->Pick(20))));
        break;
      }
      case 4: {  // wrapList
        std::string var =
            s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
        std::string out = prefix + "w" + std::to_string(fresh++);
        s.plan = PlanNode::WrapList(std::move(s.plan), var, out);
        s.schema.push_back(out);
        break;
      }
      case 5: {  // const
        std::string out = prefix + "c" + std::to_string(fresh++);
        s.plan = PlanNode::Const(std::move(s.plan),
                                 "k" + std::to_string(rng->Pick(5)), out);
        s.schema.push_back(out);
        break;
      }
      case 6: {  // distinct or orderBy
        if (rng->Pick(2) == 0) {
          s.plan = PlanNode::Distinct(std::move(s.plan));
        } else {
          std::string var =
              s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
          s.plan = PlanNode::OrderBy(std::move(s.plan), {var});
        }
        break;
      }
      case 7: {  // concatenate or materialize
        if (rng->Pick(2) == 0 && s.schema.size() >= 2) {
          std::string x =
              s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
          std::string y =
              s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
          std::string out = prefix + "z" + std::to_string(fresh++);
          s.plan = PlanNode::Concatenate(std::move(s.plan), x, y, out);
          s.schema.push_back(out);
        } else {
          s.plan = PlanNode::Materialize(std::move(s.plan));
        }
        break;
      }
      case 8: {  // rename
        std::string old_var =
            s.schema[static_cast<size_t>(rng->Pick(static_cast<int>(s.schema.size())))];
        std::string new_var = prefix + "n" + std::to_string(fresh++);
        s.plan = PlanNode::Rename(std::move(s.plan), old_var, new_var);
        for (auto& v : s.schema) {
          if (v == old_var) v = new_var;
        }
        break;
      }
    }
  }
  return s;
}

/// Full random plan: 1-2 source streams, joined if 2, grouped and wrapped
/// into a single answer element.
PlanPtr GeneratePlan(Rng* rng) {
  bool two_sources = rng->Pick(2) == 1;
  GenStream left = GenerateStream(rng, "src1", "l", 2 + rng->Pick(3));
  GenStream top = std::move(left);
  if (two_sources) {
    GenStream right = GenerateStream(rng, "src2", "r", 1 + rng->Pick(3));
    std::string lv =
        top.schema[static_cast<size_t>(rng->Pick(static_cast<int>(top.schema.size())))];
    std::string rv = right.schema[static_cast<size_t>(
        rng->Pick(static_cast<int>(right.schema.size())))];
    algebra::CompareOp cmp =
        rng->Pick(2) == 0 ? algebra::CompareOp::kEq : algebra::CompareOp::kNe;
    PlanPtr join =
        PlanNode::Join(std::move(top.plan), std::move(right.plan),
                       algebra::BindingPredicate::VarVar(lv, cmp, rv));
    // Randomly exercise the join strategy options (semantics-neutral).
    join->join_cache_inner = rng->Pick(2) == 0;
    join->join_index_inner = rng->Pick(3) == 0;
    GenStream merged;
    merged.plan = std::move(join);
    merged.schema = top.schema;
    for (auto& v : right.schema) merged.schema.push_back(v);
    top = std::move(merged);
  }
  std::string grouped =
      top.schema[static_cast<size_t>(rng->Pick(static_cast<int>(top.schema.size())))];
  PlanPtr gb = PlanNode::GroupBy(std::move(top.plan), {}, grouped, "ALL");
  PlanPtr ce = PlanNode::CreateElement(std::move(gb), true, "answer", "ALL",
                                       "DOC");
  return PlanNode::TupleDestroy(std::move(ce), "DOC");
}

class RandomPlanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPlanTest, LazyEqualsReference) {
  Rng rng(GetParam());

  xml::RandomTreeOptions tree_options;
  tree_options.seed = GetParam() * 31 + 1;
  tree_options.max_depth = 4;
  tree_options.max_fanout = 3;
  tree_options.label_alphabet = 3;
  auto doc1 = xml::RandomTree(tree_options);
  tree_options.seed = GetParam() * 31 + 2;
  auto doc2 = xml::RandomTree(tree_options);

  for (int round = 0; round < 5; ++round) {
    PlanPtr plan = GeneratePlan(&rng);
    ASSERT_TRUE(ComputeSchema(*plan->children[0]).ok());

    xml::DocNavigable nav1(doc1.get());
    xml::DocNavigable nav2(doc2.get());
    SourceRegistry sources;
    sources.Register("src1", &nav1);
    sources.Register("src2", &nav2);
    auto med = LazyMediator::Build(*plan, sources).ValueOrDie();
    std::string lazy = testing::MaterializeToTerm(med->document());

    xml::Document scratch;
    ReferenceSources ref{{"src1", doc1->root()}, {"src2", doc2->root()}};
    auto answer = EvaluateReference(*plan, ref, &scratch);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(lazy, xml::ToTerm(answer.value()))
        << "seed=" << GetParam() << " round=" << round << "\n"
        << plan->ToString();

    // And rewriting must not change the answer either.
    PlanPtr rewritten = plan->Clone();
    passes::OptimizerOptions options;
    options.sources["src1"].sigma = true;
    options.sources["src2"].sigma = true;
    auto report = passes::OptimizePlan(&rewritten, options);
    ASSERT_TRUE(report.ok()) << "seed=" << GetParam() << " round=" << round
                             << ": " << report.status().ToString();
    xml::DocNavigable nav1b(doc1.get());
    xml::DocNavigable nav2b(doc2.get());
    SourceRegistry sources_b;
    sources_b.Register("src1", &nav1b);
    sources_b.Register("src2", &nav2b);
    auto med_b = LazyMediator::Build(*rewritten, sources_b).ValueOrDie();
    EXPECT_EQ(lazy, testing::MaterializeToTerm(med_b->document()))
        << "seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace mix::mediator
