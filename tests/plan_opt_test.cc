// Plan optimizer tests (DESIGN.md §6): per-pass units over the plan tree,
// golden per-pass dumps, and end-to-end byte-equality of optimized vs.
// level-0 plans across the Fig. 3 query family, stacked mediators, and the
// PR 4 fault matrix — plus the NavStats guarantee that an optimized plan
// never navigates the sources more than the unoptimized one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "buffer/buffer.h"
#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/ir.h"
#include "mediator/passes/pass.h"
#include "mediator/plan_cache.h"
#include "mediator/plan_text.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "service/service.h"
#include "test_util.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

using algebra::BindingPredicate;
using algebra::CompareOp;
using client::FramedDocument;
using passes::OptimizePlan;
using passes::OptimizeReport;
using passes::OptimizerOptions;

// The Fig. 3 running example and fixtures (same as tests/mediator_test.cc).
const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";
const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";
const char* kSchools =
    "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],"
    "school[dir[Hart],zip[91223]]]";

PlanPtr Compile(const std::string& text) {
  auto plan = CompileXmas(text);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

int CountKind(const PlanNode& n, PlanNode::Kind kind) {
  int c = n.kind == kind ? 1 : 0;
  for (const PlanPtr& child : n.children) c += CountKind(*child, kind);
  return c;
}

const PlanNode* FindKind(const PlanNode& n, PlanNode::Kind kind) {
  if (n.kind == kind) return &n;
  for (const PlanPtr& child : n.children) {
    if (const PlanNode* f = FindKind(*child, kind)) return f;
  }
  return nullptr;
}

/// Capability of the realty test database: homes(addr string, zip int,
/// price double).
SourceCapability RealtyCapability() {
  SourceCapability cap;
  cap.pushdown = true;
  cap.database = "realty";
  cap.tables["homes"] = {{"addr", ColumnType::kString},
                         {"zip", ColumnType::kInt},
                         {"price", ColumnType::kDouble}};
  return cap;
}

rdb::Database MakeRealtyDb(int rows) {
  rdb::Database db("realty");
  rdb::Schema schema({{"addr", rdb::Type::kString},
                      {"zip", rdb::Type::kInt},
                      {"price", rdb::Type::kDouble}});
  rdb::Table* t = db.CreateTable("homes", schema).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(t->Insert({rdb::Value("street " + std::to_string(i)),
                           rdb::Value(int64_t{91220 + i % 20}),
                           rdb::Value(100.5 + i)})
                    .ok());
  }
  return db;
}

// ---------------------------------------------------------------------------
// Annotation plumbing
// ---------------------------------------------------------------------------

TEST(PlanIrTest, CloneAndAnalyzePreservePlanText) {
  PlanPtr plan = Compile(kFig3);
  PlanPtr clone = plan->Clone();
  AnnotationTable table;
  ASSERT_TRUE(AnalyzeIr(*clone, {}, &table).ok());
  EXPECT_EQ(clone->ToString(), plan->ToString());
}

TEST(PlanIrTest, AnalyzeAnnotatesSchemaSourcesAndClass) {
  PlanPtr plan = Compile(kFig3);
  AnnotationTable table;
  ASSERT_TRUE(AnalyzeIr(*plan, {}, &table).ok());
  // Root is tupleDestroy (document, no schema); its subtree sees both
  // sources, and without σ the join plan is merely browsable.
  const Annotation& root = table.at(plan.get());
  EXPECT_TRUE(root.schema.empty());
  EXPECT_EQ(root.sources,
            (std::vector<std::string>{"homesSrc", "schoolsSrc"}));
  EXPECT_EQ(root.cls, Browsability::kBrowsable);
  // Schema flows: the stream under the root binds the constructed answer.
  ASSERT_EQ(plan->children.size(), 1u);
  EXPECT_FALSE(table.at(plan->children[0].get()).schema.empty());
}

TEST(PlanIrTest, AnnotatedDumpRoundTripsThroughPlanText) {
  PlanPtr plan = Compile(kFig3);
  AnnotationTable table;
  ASSERT_TRUE(AnalyzeIr(*plan, {}, &table).ok());
  std::string annotated = DumpIr(*plan, table);
  ASSERT_NE(annotated.find('%'), std::string::npos);
  // plan_text strips the % annotations, so the dump stays machine-readable.
  auto parsed = ParsePlanText(annotated);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->ToString(), plan->ToString());
}

// ---------------------------------------------------------------------------
// Per-pass units
// ---------------------------------------------------------------------------

TEST(PassTest, FusionFusesSelectIntoGetDescendants) {
  PlanPtr plan = Compile(
      "CONSTRUCT <hits> $H {$H} </hits> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = '91220'");
  PlanPtr baseline = Compile(
      "CONSTRUCT <hits> $H {$H} </hits> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = '91220'");
  OptimizerOptions options;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().applied("fusion"), 1);
  // The standalone select disappeared into the zip._ extraction's filter.
  EXPECT_EQ(CountKind(*plan, PlanNode::Kind::kSelect), 0);
  const PlanNode* gd = nullptr;
  for (const PlanNode* n = plan.get(); n != nullptr;) {
    if (n->kind == PlanNode::Kind::kGetDescendants &&
        n->predicate.has_value()) {
      gd = n;
      break;
    }
    n = n->children.empty() ? nullptr : n->children[0].get();
  }
  ASSERT_NE(gd, nullptr);
  EXPECT_EQ(gd->out_var, "Z");

  // Byte-equality against the unoptimized plan.
  auto homes = testing::Doc(kHomes);
  xml::DocNavigable nav1(homes.get()), nav2(homes.get());
  SourceRegistry s1, s2;
  s1.Register("homesSrc", &nav1);
  s2.Register("homesSrc", &nav2);
  auto opt = LazyMediator::Build(*plan, s1).ValueOrDie();
  auto raw = LazyMediator::Build(*baseline, s2).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(opt->document()),
            testing::MaterializeToTerm(raw->document()));
}

TEST(PassTest, DeadConstructorEliminated) {
  // B is constructed but never consumed; A reaches the document root.
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("homesSrc", "R"), "R",
                                        "homes.home", "H");
  PlanPtr c1 = PlanNode::CreateElement(std::move(gd), true, "a", "H", "A");
  PlanPtr c2 = PlanNode::CreateElement(std::move(c1), true, "b", "H", "B");
  PlanPtr plan = PlanNode::TupleDestroy(std::move(c2), "A");
  PlanPtr baseline = plan->Clone();

  OptimizerOptions options;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().applied("fusion"), 1);
  EXPECT_EQ(CountKind(*plan, PlanNode::Kind::kCreateElement), 1);
  EXPECT_EQ(FindKind(*plan, PlanNode::Kind::kCreateElement)->out_var, "A");

  auto homes = testing::Doc(kHomes);
  xml::DocNavigable nav1(homes.get()), nav2(homes.get());
  SourceRegistry s1, s2;
  s1.Register("homesSrc", &nav1);
  s2.Register("homesSrc", &nav2);
  auto opt = LazyMediator::Build(*plan, s1).ValueOrDie();
  auto raw = LazyMediator::Build(*baseline, s2).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(opt->document()),
            testing::MaterializeToTerm(raw->document()));
}

TEST(PassTest, LiveConstructorsAreKept) {
  // Every constructed element in Fig. 3 feeds the answer — nothing dies.
  PlanPtr plan = Compile(kFig3);
  OptimizerOptions options;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("fusion"), 0);
}

TEST(PassTest, DeadConstructorKeptWhenRemovalBreaksUnion) {
  // X is dead, but a union needs both sides to bind the same variables:
  // removing either createElement alone fails analysis and is reverted,
  // and the passes after fusion still see the restored plan's analysis.
  auto branch = [] {
    return PlanNode::CreateElement(PlanNode::Source("homesSrc", "R"), true,
                                   "a", "R", "X");
  };
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Union(branch(), branch()),
                                        "R", "homes.home", "H");
  PlanPtr plan = PlanNode::TupleDestroy(std::move(gd), "H");
  OptimizerOptions options;
  options.sources["homesSrc"].sigma = true;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().applied("fusion"), 0);
  EXPECT_EQ(CountKind(*plan, PlanNode::Kind::kCreateElement), 2);
  EXPECT_EQ(report.value().applied("browsability"), 1);
}

TEST(PassTest, ProjectPruneDropsFullSchemaProject) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R",
                                        "a.b", "X");
  PlanPtr project = PlanNode::Project(std::move(gd), {"R", "X"});
  PlanPtr wrap = PlanNode::WrapList(std::move(project), "X", "L");
  PlanPtr plan = PlanNode::TupleDestroy(std::move(wrap), "L");
  OptimizerOptions options;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("project_prune"), 1);
  EXPECT_EQ(CountKind(*plan, PlanNode::Kind::kProject), 0);
}

TEST(PassTest, CachedViewChildrenFlagSurvivesOptimization) {
  const std::string expected =
      "tupleDestroy[$v]\n  cachedView[snap -> $v, children]\n";
  PlanPtr plan =
      PlanNode::TupleDestroy(PlanNode::CachedView("snap", "v", true), "v");
  auto report = OptimizePlan(&plan, OptimizerOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(plan->ToString(), expected);

  // Under a full-schema project: project_prune splices the project out and
  // the cachedView moves up with its flag.
  plan = PlanNode::TupleDestroy(
      PlanNode::Project(PlanNode::CachedView("snap", "v", true), {"v"}), "v");
  report = OptimizePlan(&plan, OptimizerOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().applied("project_prune"), 1);
  EXPECT_EQ(plan->ToString(), expected);
}

PlanPtr LabelChainPlan(const std::string& source_name) {
  PlanPtr gd = PlanNode::GetDescendants(PlanNode::Source(source_name, "R"),
                                        "R", "homes.home", "H");
  PlanPtr wrap = PlanNode::WrapList(std::move(gd), "H", "L");
  return PlanNode::TupleDestroy(std::move(wrap), "L");
}

TEST(PassTest, BrowsabilityPassUpgradesSigmaCapableSources) {
  PlanPtr plan = LabelChainPlan("homesSrc");
  OptimizerOptions options;
  options.sources["homesSrc"].sigma = true;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("browsability"), 1);
  const PlanNode* gd = FindKind(*plan, PlanNode::Kind::kGetDescendants);
  ASSERT_NE(gd, nullptr);
  EXPECT_TRUE(gd->use_sigma);
  // The classifier sees σ through the capability map from the first
  // analysis on, so the report carries the bounded class throughout.
  EXPECT_EQ(report.value().after_cls, Browsability::kBoundedBrowsable);
}

TEST(PassTest, BrowsabilityPassRespectsPerSourceCapability) {
  // Same shape over a source with no σ capability: no rewrite.
  PlanPtr plan = LabelChainPlan("otherSrc");
  OptimizerOptions options;
  options.sources["homesSrc"].sigma = true;  // different source
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("browsability"), 0);
  // Without σ the sibling scans stay data-dependent: merely browsable.
  EXPECT_EQ(report.value().after_cls, Browsability::kBrowsable);
}

TEST(PassTest, JoinReorderRotatesByFanoutAndPreservesAnswer) {
  // join_p(join_q(A, B), C) where q is a non-equality pairing and p an
  // equality over B- and C-variables only: rotating p inward is legal and
  // its estimate is lower, so the reorder fires.
  auto build = [] {
    PlanPtr a = PlanNode::GetDescendants(
        PlanNode::GetDescendants(PlanNode::Source("homesSrc", "RA"), "RA",
                                 "homes.home", "HA"),
        "HA", "zip._", "A");
    PlanPtr b = PlanNode::GetDescendants(
        PlanNode::GetDescendants(PlanNode::Source("homesSrc2", "RB"), "RB",
                                 "homes.home", "HB"),
        "HB", "zip._", "B");
    PlanPtr c = PlanNode::GetDescendants(
        PlanNode::GetDescendants(PlanNode::Source("schoolsSrc", "RC"), "RC",
                                 "schools.school", "SC"),
        "SC", "zip._", "C");
    PlanPtr inner = PlanNode::Join(
        std::move(a), std::move(b),
        BindingPredicate::VarVar("A", CompareOp::kNe, "B"));
    PlanPtr outer = PlanNode::Join(
        std::move(inner), std::move(c),
        BindingPredicate::VarVar("B", CompareOp::kEq, "C"));
    PlanPtr wrap = PlanNode::WrapList(std::move(outer), "A", "L");
    return PlanNode::TupleDestroy(std::move(wrap), "L");
  };
  PlanPtr plan = build();
  PlanPtr baseline = build();

  OptimizerOptions options;
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().applied("join_reorder"), 1);
  // The equality join moved inward: the root join is now the != pairing.
  const PlanNode* join = FindKind(*plan, PlanNode::Kind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->predicate->op(), CompareOp::kNe);

  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  auto run = [&](const PlanNode& p) {
    xml::DocNavigable h1(homes.get()), h2(homes.get()), s(schools.get());
    SourceRegistry reg;
    reg.Register("homesSrc", &h1);
    reg.Register("homesSrc2", &h2);
    reg.Register("schoolsSrc", &s);
    auto med = LazyMediator::Build(p, reg).ValueOrDie();
    return testing::MaterializeToTerm(med->document());
  };
  // Reassociation preserves leaf order, so the answer is byte-identical.
  EXPECT_EQ(run(*plan), run(*baseline));
}

// ---------------------------------------------------------------------------
// Wrapper predicate pushdown
// ---------------------------------------------------------------------------

const char* kZipQuery =
    "CONSTRUCT <hits> $R {$R} </hits> {} "
    "WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '91225'";

TEST(WrapperPushdownTest, IntEqualityCompilesIntoSqlView) {
  PlanPtr plan = Compile(kZipQuery);
  OptimizerOptions options;
  options.sources["realty"] = RealtyCapability();
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().applied("wrapper_pushdown"), 1);

  const PlanNode* source = FindKind(*plan, PlanNode::Kind::kSource);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->source_uri, "sql:SELECT * FROM homes WHERE zip = 91225");
  // The row extraction now walks the query view's document shape.
  EXPECT_EQ(CountKind(*plan, PlanNode::Kind::kSelect), 0);
  bool repointed = false;
  for (const PlanNode* n = plan.get(); n != nullptr;
       n = n->children.empty() ? nullptr : n->children[0].get()) {
    if (n->kind == PlanNode::Kind::kGetDescendants && n->path == "view.row") {
      repointed = true;
    }
  }
  EXPECT_TRUE(repointed);
}

TEST(WrapperPushdownTest, MultiplePredicatesShareOneView) {
  PlanPtr plan = Compile(
      "CONSTRUCT <hits> $R {$R} </hits> {} "
      "WHERE realty realty.homes.row $R AND $R zip._ $Z "
      "AND $Z >= '91225' AND $Z < '91230'");
  OptimizerOptions options;
  options.sources["realty"] = RealtyCapability();
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().applied("wrapper_pushdown"), 2);
  const PlanNode* source = FindKind(*plan, PlanNode::Kind::kSource);
  ASSERT_NE(source, nullptr);
  // Predicates land in plan pre-order (outermost select first); AND is
  // commutative, so the order is cosmetic.
  EXPECT_EQ(source->source_uri,
            "sql:SELECT * FROM homes WHERE zip < 91230 AND zip >= 91225");
}

TEST(WrapperPushdownTest, TypeDisciplineRefusesUnsafeComparisons) {
  struct Case {
    const char* predicate;
    const char* why;
  };
  const Case cases[] = {
      // String column, numeric constant: XMAS compares numerically, rdb
      // lexicographically — they can disagree, so no pushdown.
      {"$R addr._ $A AND $A = '10'", "numeric constant on string column"},
      // Int column, non-integer constant: never equal numerically, but the
      // mismatch makes the SQL side reject or reinterpret — refuse.
      {"$R zip._ $Z AND $Z = 'abc'", "non-integer constant on int column"},
      // Double column: text round-tripping is not exact.
      {"$R price._ $P AND $P = '100.5'", "double column"},
  };
  for (const Case& c : cases) {
    PlanPtr plan = Compile(std::string("CONSTRUCT <hits> $R {$R} </hits> {} "
                                       "WHERE realty realty.homes.row $R AND ") +
                           c.predicate);
    OptimizerOptions options;
    options.sources["realty"] = RealtyCapability();
    auto report = OptimizePlan(&plan, options);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().applied("wrapper_pushdown"), 0) << c.why;
    const PlanNode* source = FindKind(*plan, PlanNode::Kind::kSource);
    ASSERT_NE(source, nullptr);
    EXPECT_TRUE(source->source_uri.empty()) << c.why;
  }
}

TEST(WrapperPushdownTest, QuoteInConstantNeverReachesSqlLexer) {
  // The XMAS surface cannot spell an embedded quote, but a hand-built (or
  // stacked-mediator-generated) plan can: the pushdown must refuse it.
  PlanPtr rows = PlanNode::GetDescendants(PlanNode::Source("realty", "R"),
                                          "R", "realty.homes.row", "T");
  PlanPtr cells =
      PlanNode::GetDescendants(std::move(rows), "T", "addr._", "A");
  PlanPtr filtered = PlanNode::Select(
      std::move(cells),
      BindingPredicate::VarConst("A", CompareOp::kEq, "o'brien"));
  PlanPtr wrap = PlanNode::WrapList(std::move(filtered), "T", "L");
  PlanPtr plan = PlanNode::TupleDestroy(std::move(wrap), "L");

  OptimizerOptions options;
  options.sources["realty"] = RealtyCapability();
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("wrapper_pushdown"), 0);
  const PlanNode* source = FindKind(*plan, PlanNode::Kind::kSource);
  ASSERT_NE(source, nullptr);
  EXPECT_TRUE(source->source_uri.empty());
}

TEST(WrapperPushdownTest, NoPushdownWithoutCapability) {
  PlanPtr plan = Compile(kZipQuery);
  OptimizerOptions options;  // no realty capability registered
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().applied("wrapper_pushdown"), 0);
  const PlanNode* source = FindKind(*plan, PlanNode::Kind::kSource);
  EXPECT_TRUE(source->source_uri.empty());
}

TEST(WrapperPushdownTest, EndToEndFiltersServerSideAndMatchesBaseline) {
  rdb::Database db = MakeRealtyDb(200);

  auto run = [&db](int level, int64_t* fills) {
    wrappers::RelationalLxpWrapper wrapper(&db);
    PlanPtr plan = Compile(kZipQuery);
    if (level > 0) {
      OptimizerOptions options;
      options.sources["realty"] = RealtyCapability();
      auto report = OptimizePlan(&plan, options);
      EXPECT_TRUE(report.ok());
      EXPECT_GE(report.value().applied("wrapper_pushdown"), 1);
    }
    buffer::BufferComponent buffer(&wrapper, "db");
    SourceRegistry reg;
    reg.Register("realty", &buffer);
    reg.RegisterOpener("realty", [&wrapper](const std::string& uri)
                                     -> std::unique_ptr<Navigable> {
      return std::make_unique<buffer::BufferComponent>(&wrapper, uri);
    });
    auto med = LazyMediator::Build(*plan, reg).ValueOrDie();
    std::string answer = testing::MaterializeToTerm(med->document());
    *fills = wrapper.fills_served();
    return answer;
  };

  int64_t fills0 = 0, fills1 = 0;
  std::string baseline = run(0, &fills0);
  std::string optimized = run(1, &fills1);
  EXPECT_EQ(optimized, baseline);
  // 200 rows, 10 matches: the baseline ships every row across the LXP
  // boundary while the pushed-down view ships only matches — far fewer
  // exchanges (the E15 claim, pinned here at the unit level).
  EXPECT_LT(fills1, fills0);
  EXPECT_NE(baseline.find("91225"), std::string::npos);
  EXPECT_EQ(baseline.find("street 0]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass-dump golden file (MIX_DUMP_PASSES surface)
// ---------------------------------------------------------------------------

TEST(DumpPassesTest, PerPassDumpsMatchGoldenFile) {
  PlanPtr plan = Compile(kZipQuery);
  OptimizerOptions options;
  options.sources["realty"] = RealtyCapability();
  std::string log;
  options.dump_hook = [&log](const std::string& pass, const std::string& dump) {
    log += "== " + pass + " ==\n" + dump;
  };
  auto report = OptimizePlan(&plan, options);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(log.empty());

  const std::string golden_path =
      std::string(MIX_FIXTURES_DIR) + "/plan_opt_passes.golden";
  if (std::getenv("MIX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << log;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with MIX_REGEN_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(log, golden.str());
}

TEST(DumpPassesTest, EnvVarPathDumpsToStderrWithoutCrashing) {
  // No hook set + MIX_DUMP_PASSES=1: dumps go to stderr. Just exercise it.
  ::setenv("MIX_DUMP_PASSES", "1", 1);
  PlanPtr plan = Compile(kZipQuery);
  OptimizerOptions options;
  options.sources["realty"] = RealtyCapability();
  auto report = OptimizePlan(&plan, options);
  ::unsetenv("MIX_DUMP_PASSES");
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().total(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: optimized vs. level-0 across the query family
// ---------------------------------------------------------------------------

struct EvalOutcome {
  std::string answer;
  NavStats stats;
};

EvalOutcome Evaluate(const PlanNode& plan, const xml::Document* homes,
                     const xml::Document* schools) {
  EvalOutcome out;
  xml::DocNavigable homes_nav(homes);
  xml::DocNavigable schools_nav(schools);
  CountingNavigable hc(&homes_nav, &out.stats);
  CountingNavigable sc(&schools_nav, &out.stats);
  SourceRegistry reg;
  reg.Register("homesSrc", &hc);
  reg.Register("schoolsSrc", &sc);
  auto med = LazyMediator::Build(plan, reg).ValueOrDie();
  out.answer = testing::MaterializeToTerm(med->document());
  return out;
}

TEST(EndToEndTest, OptimizedAnswersAreByteIdenticalAndNavigateNoMore) {
  const char* queries[] = {
      // Fig. 3 itself (join + group).
      kFig3,
      // Plain extraction.
      "CONSTRUCT <answer> $H {$H} </answer> {} WHERE homesSrc homes.home $H",
      // Constant selection (σ + fusion candidates).
      "CONSTRUCT <hits> $H {$H} </hits> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = '91002'",
      // Cross-source selection over the join.
      "CONSTRUCT <pairs> <pair> $H $S {$S} </pair> {$H} </pairs> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 "
      "AND $V1 = $V2 AND $V2 = '91003'",
      // Nested extraction below the match.
      "CONSTRUCT <dirs> $D {$D} </dirs> {} "
      "WHERE schoolsSrc schools.school $S AND $S dir._ $D",
  };
  auto homes = xml::MakeHomesDoc(25, 6);
  auto schools = xml::MakeSchoolsDoc(25, 6);
  for (const char* q : queries) {
    PlanPtr baseline = Compile(q);
    PlanPtr optimized = Compile(q);
    OptimizerOptions options;
    options.sources["homesSrc"].sigma = true;
    options.sources["schoolsSrc"].sigma = true;
    auto report = OptimizePlan(&optimized, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EvalOutcome raw = Evaluate(*baseline, homes.get(), schools.get());
    EvalOutcome opt = Evaluate(*optimized, homes.get(), schools.get());
    EXPECT_EQ(opt.answer, raw.answer) << q;
    // The optimizer may never make navigation worse (σ counts once per
    // skip; the unoptimized loop pays r+f per skipped sibling).
    EXPECT_LE(opt.stats.total(), raw.stats.total()) << q;
  }
}

TEST(EndToEndTest, StackedMediatorsAgreeUnderOptimization) {
  PlanPtr view = Compile(kFig3);
  const char* upper_text =
      "CONSTRUCT <homes_found> $M {$M} </homes_found> {} "
      "WHERE theView answer.med_home $M";
  auto homes = xml::MakeHomesDoc(20, 5);
  auto schools = xml::MakeSchoolsDoc(20, 5);

  auto run = [&](bool optimize) {
    PlanPtr lower = Compile(kFig3);
    PlanPtr upper = Compile(upper_text);
    if (optimize) {
      OptimizerOptions options;
      options.sources["homesSrc"].sigma = true;
      options.sources["schoolsSrc"].sigma = true;
      EXPECT_TRUE(OptimizePlan(&lower, options).ok());
      // The upper mediator's source is the lower mediator's virtual
      // document — no declared capability, σ stays off there.
      EXPECT_TRUE(OptimizePlan(&upper, OptimizerOptions()).ok());
    }
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    SourceRegistry lower_reg;
    lower_reg.Register("homesSrc", &homes_nav);
    lower_reg.Register("schoolsSrc", &schools_nav);
    auto lower_med = LazyMediator::Build(*lower, lower_reg).ValueOrDie();
    SourceRegistry upper_reg;
    upper_reg.Register("theView", lower_med->document());
    auto upper_med = LazyMediator::Build(*upper, upper_reg).ValueOrDie();
    return testing::MaterializeToTerm(upper_med->document());
  };
  EXPECT_EQ(run(true), run(false));
}

// ---------------------------------------------------------------------------
// Service integration: reference answers, fault matrix, metrics
// ---------------------------------------------------------------------------

/// The Fig. 3 answer as the eager reference evaluator computes it over the
/// raw (unoptimized) plan: the baseline every served answer must equal.
std::string ReferenceFig3Answer() {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::Document scratch;
  ReferenceSources sources{{"homesSrc", homes->root()},
                           {"schoolsSrc", schools->root()}};
  Result<const xml::Node*> answer =
      EvaluateReference(*Compile(kFig3), sources, &scratch);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? xml::ToTerm(answer.value()) : std::string();
}

TEST(ServiceOptTest, OptimizedAnswerMatchesReferenceEvaluator) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  service::SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] {
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
      },
      "homes.xml");
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml");
  service::MediatorService svc(&env, service::MediatorService::Options());
  auto doc = FramedDocument::Open(&svc, kFig3).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), ReferenceFig3Answer());
}

TEST(ServiceOptTest, FaultMatrixAnswersMatchReferenceEvaluator) {
  // The PR 4 fault matrix through the optimizing service: retries absorb
  // the injected faults and the answers equal the eager reference.
  const std::string expected = ReferenceFig3Answer();
  for (double p : {0.05, 0.2}) {
    auto homes = testing::Doc(kHomes);
    auto schools = testing::Doc(kSchools);
    service::SessionEnvironment env;
    service::SessionEnvironment::WrapperOptions wo;
    wo.fault.p_fail = p;
    wo.fault.p_truncate = p / 4;
    wo.fault.p_garble = p / 4;
    wo.fault.p_duplicate = p / 4;
    wo.fault.p_delay = p;
    wo.retry.max_attempts = 10;
    env.RegisterWrapperFactory(
        "homesSrc",
        [&homes] {
          return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
        },
        "homes.xml", wo);
    env.RegisterWrapperFactory(
        "schoolsSrc",
        [&schools] {
          return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
        },
        "schools.xml", wo);
    service::MediatorService svc(&env, service::MediatorService::Options());
    auto doc = FramedDocument::Open(&svc, kFig3).ValueOrDie();
    EXPECT_EQ(testing::MaterializeToTerm(doc.get()), expected) << "p=" << p;
    EXPECT_TRUE(doc->last_status().ok());
  }
}

TEST(ServiceOptTest, RelationalPushdownFiltersServerSide) {
  rdb::Database db = MakeRealtyDb(200);
  // `declare_pushdown` false registers the same wrapper without its
  // capability: the optimizer then has no license to push the selection
  // into the source, which is the baseline the pushdown is measured
  // against.
  auto run = [&db](bool declare_pushdown, int64_t* wrapper_fills) {
    std::vector<wrappers::RelationalLxpWrapper*> created;
    service::SessionEnvironment env;
    service::SessionEnvironment::WrapperOptions wo;
    if (declare_pushdown) {
      wo.capability = wrappers::RelationalLxpWrapper(&db).Capability();
    }
    env.RegisterWrapperFactory(
        "realty",
        [&db, &created]() -> std::unique_ptr<buffer::LxpWrapper> {
          auto w = std::make_unique<wrappers::RelationalLxpWrapper>(&db);
          created.push_back(w.get());
          return w;
        },
        "db", wo);
    service::MediatorService svc(&env, service::MediatorService::Options());
    auto doc = FramedDocument::Open(&svc, kZipQuery).ValueOrDie();
    std::string answer = testing::MaterializeToTerm(doc.get());
    *wrapper_fills = created.at(0)->fills_served();

    service::ServiceMetricsSnapshot snap = svc.Metrics();
    if (declare_pushdown) {
      EXPECT_GE(snap.plans_optimized, 1);
      EXPECT_GT(snap.optimizer_rewrites, 0);
      EXPECT_NE(snap.ToString().find("wrapper_pushdown"), std::string::npos);
    } else {
      // The source-independent passes still run; the pushdown may not.
      EXPECT_EQ(snap.ToString().find("wrapper_pushdown"), std::string::npos);
    }
    return answer;
  };
  int64_t fills_plain = 0, fills_pushdown = 0;
  std::string baseline = run(false, &fills_plain);
  std::string optimized = run(true, &fills_pushdown);
  EXPECT_EQ(optimized, baseline);
  EXPECT_LT(fills_pushdown, fills_plain);
}

TEST(ServiceOptTest, PlanCacheKeySeparatesOptimizerConfigs) {
  PlanCache::Options plain;
  PlanCache::Options sigma_only;
  sigma_only.optimizer.sources["realty"].sigma = true;
  PlanCache::Options pushdown;
  pushdown.optimizer.sources["realty"] = RealtyCapability();
  const std::string fp_plain = passes::OptimizerFingerprint(plain.optimizer);
  const std::string fp_sigma =
      passes::OptimizerFingerprint(sigma_only.optimizer);
  const std::string fp_pushdown =
      passes::OptimizerFingerprint(pushdown.optimizer);
  EXPECT_NE(fp_plain, fp_sigma);
  EXPECT_NE(fp_plain, fp_pushdown);
  EXPECT_NE(fp_sigma, fp_pushdown);

  PlanCache cache(pushdown);
  auto first = cache.GetOrCompileEntry(kZipQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first.value()->report.total(), 0);
  // A reformatted copy hits and carries the original report.
  auto second = cache.GetOrCompileEntry(std::string(kZipQuery) + "  % hi\n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get(), first.value().get());
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.optimized, 1);
  EXPECT_GE(stats.pass_applied.count("wrapper_pushdown"), 1u);
}

}  // namespace
}  // namespace mix::mediator
