// Property / differential tests: the lazy mediator machinery must agree
// with the eager reference semantics on randomized inputs, and buffered
// LXP access must be invisible.
#include <gtest/gtest.h>

#include "buffer/buffer.h"
#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

PlanPtr ParseAndTranslate(const std::string& text) {
  auto q = xmas::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto plan = TranslateQuery(q.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Lazy == eager for the running example across instance shapes.
// ---------------------------------------------------------------------------

class LazyVsEagerTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LazyVsEagerTest, Fig3Agrees) {
  auto [n_homes, n_schools, zips] = GetParam();
  auto homes = xml::MakeHomesDoc(n_homes, zips, /*seed=*/21);
  auto schools = xml::MakeSchoolsDoc(n_schools, zips, /*seed=*/22);

  PlanPtr plan = ParseAndTranslate(kFig3);

  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto mediator = LazyMediator::Build(*plan, sources).ValueOrDie();
  std::string lazy = testing::MaterializeToTerm(mediator->document());

  xml::Document scratch;
  ReferenceSources ref{{"homesSrc", homes->root()},
                       {"schoolsSrc", schools->root()}};
  const xml::Node* answer = EvaluateReference(*plan, ref, &scratch).ValueOrDie();
  EXPECT_EQ(lazy, xml::ToTerm(answer));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LazyVsEagerTest,
    ::testing::Values(std::make_tuple(0, 0, 1), std::make_tuple(1, 0, 1),
                      std::make_tuple(0, 1, 1), std::make_tuple(1, 1, 1),
                      std::make_tuple(5, 5, 1), std::make_tuple(10, 10, 3),
                      std::make_tuple(25, 30, 7),
                      std::make_tuple(40, 10, 2)));

// ---------------------------------------------------------------------------
// A family of single-source queries evaluated over random trees.
// ---------------------------------------------------------------------------

const char* kSingleSourceQueries[] = {
    // Flat re-grouping of matched elements.
    "CONSTRUCT <out> $X {$X} </out> {} WHERE src a0 $X",
    // Wildcard descent.
    "CONSTRUCT <out> $X {$X} </out> {} WHERE src _._ $X",
    // Deep recursive search.
    "CONSTRUCT <out> $X {$X} </out> {} WHERE src _*.a1 $X",
    // Extraction + comparison.
    "CONSTRUCT <out> $Y {$Y} </out> {} WHERE src _._ $X AND $X _ $Y "
    "AND $Y != 'nothing-matches-this'",
    // Nested construction with per-group lists.
    "CONSTRUCT <out> <g> $X $Y {$Y} </g> {$X} </out> {} "
    "WHERE src a0 $X AND $X _ $Y",
};

class RandomTreeQueryTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(RandomTreeQueryTest, LazyEqualsReference) {
  auto [query_index, seed] = GetParam();
  xml::RandomTreeOptions tree_options;
  tree_options.seed = seed;
  tree_options.max_depth = 4;
  tree_options.max_fanout = 4;
  tree_options.label_alphabet = 3;
  auto doc = xml::RandomTree(tree_options);

  PlanPtr plan =
      ParseAndTranslate(kSingleSourceQueries[static_cast<size_t>(query_index)]);

  xml::DocNavigable nav(doc.get());
  SourceRegistry sources;
  sources.Register("src", &nav);
  auto mediator = LazyMediator::Build(*plan, sources).ValueOrDie();
  std::string lazy = testing::MaterializeToTerm(mediator->document());

  xml::Document scratch;
  ReferenceSources ref{{"src", doc->root()}};
  const xml::Node* answer =
      EvaluateReference(*plan, ref, &scratch).ValueOrDie();
  EXPECT_EQ(lazy, xml::ToTerm(answer))
      << "query " << query_index << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTreeQueryTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21,
                                                   34)));

// ---------------------------------------------------------------------------
// The optimizer pipeline must never change results (random trees, σ on).
// ---------------------------------------------------------------------------

class RewriteEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteEquivalenceTest, RewrittenPlanAgrees) {
  xml::RandomTreeOptions tree_options;
  tree_options.seed = GetParam();
  tree_options.max_depth = 4;
  tree_options.label_alphabet = 3;
  auto doc = xml::RandomTree(tree_options);

  for (const char* query : kSingleSourceQueries) {
    PlanPtr plan = ParseAndTranslate(query);
    PlanPtr rewritten = plan->Clone();
    passes::OptimizerOptions options;
    options.sources["src"].sigma = true;
    auto report = passes::OptimizePlan(&rewritten, options);
    ASSERT_TRUE(report.ok()) << query << ": " << report.status().ToString();

    xml::DocNavigable nav1(doc.get());
    xml::DocNavigable nav2(doc.get());
    SourceRegistry s1, s2;
    s1.Register("src", &nav1);
    s2.Register("src", &nav2);
    auto m1 = LazyMediator::Build(*plan, s1).ValueOrDie();
    auto m2 = LazyMediator::Build(*rewritten, s2).ValueOrDie();
    EXPECT_EQ(testing::MaterializeToTerm(m1->document()),
              testing::MaterializeToTerm(m2->document()))
        << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEquivalenceTest,
                         ::testing::Values<uint64_t>(7, 11, 19, 23));

// ---------------------------------------------------------------------------
// Buffer transparency: running the mediator over buffered LXP wrappers
// gives byte-identical answers to direct in-memory access, for every
// granularity.
// ---------------------------------------------------------------------------

class BufferTransparencyTest : public ::testing::TestWithParam<int> {};

TEST_P(BufferTransparencyTest, MediatorOverBufferEqualsDirect) {
  int chunk = GetParam();
  auto homes = xml::MakeHomesDoc(12, 3);
  auto schools = xml::MakeSchoolsDoc(12, 3);
  PlanPtr plan = ParseAndTranslate(kFig3);

  xml::DocNavigable homes_direct(homes.get());
  xml::DocNavigable schools_direct(schools.get());
  SourceRegistry direct;
  direct.Register("homesSrc", &homes_direct);
  direct.Register("schoolsSrc", &schools_direct);
  auto m_direct = LazyMediator::Build(*plan, direct).ValueOrDie();

  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = chunk;
  wopts.inline_limit = 2;
  wrappers::XmlLxpWrapper hw(homes.get(), wopts);
  wrappers::XmlLxpWrapper sw(schools.get(), wopts);
  buffer::BufferComponent hb(&hw, "h");
  buffer::BufferComponent sb(&sw, "s");
  SourceRegistry buffered;
  buffered.Register("homesSrc", &hb);
  buffered.Register("schoolsSrc", &sb);
  auto m_buffered = LazyMediator::Build(*plan, buffered).ValueOrDie();

  EXPECT_EQ(testing::MaterializeToTerm(m_direct->document()),
            testing::MaterializeToTerm(m_buffered->document()));
}

INSTANTIATE_TEST_SUITE_P(Chunks, BufferTransparencyTest,
                         ::testing::Values(1, 2, 3, 8, 64));

// ---------------------------------------------------------------------------
// Random navigation sequences: a virtual answer and its materialized copy
// must answer identically, command by command.
// ---------------------------------------------------------------------------

class RandomWalkTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWalkTest, VirtualAnswersLikeMaterialized) {
  uint64_t seed = GetParam();
  auto homes = xml::MakeHomesDoc(8, 2, seed);
  auto schools = xml::MakeSchoolsDoc(8, 2, seed + 1);
  PlanPtr plan = ParseAndTranslate(kFig3);

  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto mediator = LazyMediator::Build(*plan, sources).ValueOrDie();
  Navigable* virt = mediator->document();

  auto materialized = xml::Materialize(virt);
  xml::DocNavigable mat_nav(materialized.get());

  // Pool of live (virtual id, materialized id) pairs; random commands.
  std::vector<std::pair<NodeId, NodeId>> pool{{virt->Root(), mat_nav.Root()}};
  uint64_t state = seed * 2654435761ULL + 1;
  auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int step = 0; step < 300; ++step) {
    auto& [vid, mid] = pool[rng() % pool.size()];
    switch (rng() % 3) {
      case 0: {
        auto vd = virt->Down(vid);
        auto md = mat_nav.Down(mid);
        ASSERT_EQ(vd.has_value(), md.has_value());
        if (vd.has_value()) pool.emplace_back(*vd, *md);
        break;
      }
      case 1: {
        auto vr = virt->Right(vid);
        auto mr = mat_nav.Right(mid);
        ASSERT_EQ(vr.has_value(), mr.has_value());
        if (vr.has_value()) pool.emplace_back(*vr, *mr);
        break;
      }
      case 2:
        ASSERT_EQ(virt->Fetch(vid), mat_nav.Fetch(mid));
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWalkTest,
                         ::testing::Values<uint64_t>(3, 17, 99, 123, 777));

}  // namespace
}  // namespace mix::mediator
