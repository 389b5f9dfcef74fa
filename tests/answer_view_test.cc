// Tests for the cross-session answer-view cache (DESIGN.md §4 "Answer-view
// cache"): view-shape computation (select-chain factoring, transparent
// project stripping), the conservative predicate-implication test, publish
// rejection of degraded/truncated exports, LRU eviction under a byte
// budget, generation-bump invalidation, and the end-to-end service path —
// a subsumed warm Open is served from the snapshot with ZERO wrapper
// exchanges at byte-identical answers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "mediator/answer_view_cache.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "service/service.h"
#include "service/session.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"

namespace mix::mediator {
namespace {

using algebra::CompareOp;
using service::MediatorService;
using service::SessionEnvironment;

// The Fig. 3 running example (same fixture as tests/service_test.cc).
const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Base view: all zip values. The narrowed variants put a var-constant
/// select directly on the grouped variable, so their shapes share the base
/// key and differ only in the stripped predicate set — the case-2
/// subsumption target.
const char* kZipsBase = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V
)";
const char* kZipsEq = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V AND $V = '91220'
)";
const char* kZipsLt = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V AND $V < '91225'
)";

/// A predicate on a variable that is NOT the grouped one cannot be
/// factored out of the base key (the snapshot does not retain $V per $H):
/// such plans stay exact-match-only.
const char* kHomesByZip = R"(
CONSTRUCT <answer> $H {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V AND $V = '91220'
)";

const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";
const char* kSchools =
    "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],"
    "school[dir[Hart],zip[91223]]]";

ViewShape ShapeOf(const char* query) {
  auto plan = CompileXmas(query);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return ComputeViewShape(*plan.value());
}

// ---------------------------------------------------------------------------
// View-shape computation.
// ---------------------------------------------------------------------------

TEST(ViewShapeTest, SelectChainOnGroupedVarIsFactored) {
  ViewShape base = ShapeOf(kZipsBase);
  ViewShape eq = ShapeOf(kZipsEq);
  ViewShape lt = ShapeOf(kZipsLt);

  ASSERT_TRUE(base.valid && eq.valid && lt.valid);
  EXPECT_TRUE(base.factored && eq.factored && lt.factored);
  // All three collapse to the same predicate-free base key...
  EXPECT_EQ(base.base_key, eq.base_key);
  EXPECT_EQ(base.base_key, lt.base_key);
  EXPECT_EQ(base.base_key.find("select"), std::string::npos);
  // ...with the stripped conjuncts recorded on the grouped variable.
  EXPECT_TRUE(base.preds.empty());
  ASSERT_EQ(eq.preds.size(), 1u);
  EXPECT_EQ(eq.preds[0].var, base.grouped_var);
  EXPECT_EQ(eq.preds[0].op, CompareOp::kEq);
  EXPECT_EQ(eq.preds[0].constant, "91220");
  ASSERT_EQ(lt.preds.size(), 1u);
  EXPECT_EQ(lt.preds[0].op, CompareOp::kLt);
  EXPECT_EQ(base.sources, std::vector<std::string>{"homesSrc"});
}

TEST(ViewShapeTest, PredicateOnForeignVarStaysInBaseKey) {
  // σ is on $V while the grouped variable is $H: the select cannot move
  // out of the base key, so this shape only ever matches itself.
  ViewShape s = ShapeOf(kHomesByZip);
  ASSERT_TRUE(s.valid);
  EXPECT_TRUE(s.preds.empty());
  EXPECT_NE(s.base_key.find("select"), std::string::npos);
}

TEST(ViewShapeTest, Fig3IsFactoredWithoutPredicates) {
  ViewShape s = ShapeOf(kFig3);
  ASSERT_TRUE(s.valid);
  EXPECT_TRUE(s.factored);
  EXPECT_TRUE(s.preds.empty());
  EXPECT_EQ(s.root_label, "answer");
  EXPECT_EQ(s.sources,
            (std::vector<std::string>{"homesSrc", "schoolsSrc"}));
}

TEST(ViewShapeTest, TransparentProjectUnderTupleDestroyIsStripped) {
  auto compiled = CompileXmas(kZipsBase);
  ASSERT_TRUE(compiled.ok());
  ViewShape plain = ComputeViewShape(*compiled.value());

  // Wrap the same crown in project[{create_out}] under tupleDestroy — a
  // schema-only narrowing the descriptor must see through.
  PlanPtr clone = compiled.value()->Clone();
  std::string out = clone->var;
  PlanPtr inner = std::move(clone->children[0]);
  PlanPtr wrapped = PlanNode::TupleDestroy(
      PlanNode::Project(std::move(inner), {out}), out);
  ViewShape projected = ComputeViewShape(*wrapped);

  ASSERT_TRUE(plain.valid && projected.valid);
  EXPECT_EQ(plain.base_key, projected.base_key);
  EXPECT_EQ(plain.factored, projected.factored);
}

TEST(ViewShapeTest, NonTupleDestroyRootIsInvalid) {
  PlanPtr leaf = PlanNode::Source("homesSrc", "H");
  EXPECT_FALSE(ComputeViewShape(*leaf).valid);
}

// ---------------------------------------------------------------------------
// Predicate implication (conservative, dual-order).
// ---------------------------------------------------------------------------

ViewPredicate P(const char* var, CompareOp op, const char* c) {
  return ViewPredicate{var, op, c};
}

TEST(PredicateImpliesTest, TruthTableAndConservatism) {
  using Op = CompareOp;
  // Reflexive / strengthening rows.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kEq, "91220")));
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kEq, "91223")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kLt, "91220"), P("V", Op::kLe, "91220")));
  EXPECT_FALSE(PredicateImplies(P("V", Op::kLe, "91220"), P("V", Op::kLt, "91220")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kGt, "91223"), P("V", Op::kGe, "91220")));
  // Numeric constants where BOTH orders agree: eq ⇒ lt holds.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kLt, "91225")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kNe, "91223")));
  // Numeric and lexicographic orders DISAGREE (9 < 10 but "9" > "10"):
  // CompareAtoms would sort mixed values inconsistently, so claim nothing.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "9"), P("V", Op::kLt, "10")));
  // Mixed numeric-ness is never claimed.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "10"), P("V", Op::kNe, "abc")));
  // Pure lexicographic (non-numeric) constants use the lex order alone.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "apple"), P("V", Op::kLt, "banana")));
  // Different variables never imply.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "x"), P("W", Op::kEq, "x")));
}

// ---------------------------------------------------------------------------
// Cache mechanics (direct, no service).
// ---------------------------------------------------------------------------

std::vector<SubtreeEntry> Export(const char* term) {
  auto doc = testing::Doc(term);
  xml::DocNavigable nav(doc.get());
  std::vector<SubtreeEntry> entries;
  nav.FetchSubtree(nav.Root(), -1, &entries);
  return entries;
}

ViewShape HandShape(const std::string& key,
                    std::vector<std::string> sources = {"homesSrc"}) {
  ViewShape s;
  s.valid = true;
  s.base_key = key;
  s.sources = std::move(sources);
  return s;
}

/// Pins of `cache`'s registry at the given generations.
GenerationRegistry::Pins PinsAt(AnswerViewCache* cache,
                                const std::map<std::string, int64_t>& at) {
  GenerationRegistry::Pins pins;
  for (const auto& [source, generation] : at) {
    pins.push_back(cache->generations().PinSource(source, generation));
  }
  return pins;
}

TEST(AnswerViewCacheTest, DegradedAndTruncatedExportsAreNeverPublished) {
  AnswerViewCache cache(AnswerViewCache::Options{1 << 20});

  cache.Publish(HandShape("k1"), Export("answer[a,#unavailable]"), PinsAt(&cache, {{"homesSrc", 0}}));
  std::vector<SubtreeEntry> cut = Export("answer[a,b]");
  cut[1].truncated = true;
  cache.Publish(HandShape("k2"), cut, PinsAt(&cache, {{"homesSrc", 0}}));
  std::vector<SubtreeEntry> malformed = Export("answer[a,b]");
  malformed[2].depth = 5;  // depth can grow by at most 1 per entry
  cache.Publish(HandShape("k3"), malformed, PinsAt(&cache, {{"homesSrc", 0}}));

  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.publishes, 0);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.rejects["degraded"], 1);
  EXPECT_EQ(s.rejects["truncated"], 1);
  EXPECT_EQ(s.rejects["malformed"], 1);
}

TEST(AnswerViewCacheTest, LruEvictsUnderByteBudgetAndMatchReplays) {
  // Budget sized for roughly one snapshot: the second publish evicts the
  // first (LRU), and the byte account stays within budget throughout.
  std::vector<SubtreeEntry> a = Export("answer[aaaa,bbbb]");
  int64_t one = 0;
  for (const SubtreeEntry& e : a) {
    one += static_cast<int64_t>(e.label.name().size()) + kViewNodeOverheadBytes;
  }
  AnswerViewCache cache(AnswerViewCache::Options{one + one / 2});
  cache.Publish(HandShape("k1"), a, PinsAt(&cache, {{"homesSrc", 0}}));
  EXPECT_EQ(cache.stats().entries, 1);

  AnswerViewCache::Match m = cache.TryMatch(HandShape("k1"));
  ASSERT_NE(m.snapshot, nullptr);
  ASSERT_NE(m.plan, nullptr);
  EXPECT_EQ(testing::MaterializeToTerm(m.snapshot->nav.get()),
            "answer[aaaa,bbbb]");

  cache.Publish(HandShape("k2"), Export("answer[cccc,dddd]"), PinsAt(&cache, {{"homesSrc", 0}}));
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_LE(s.bytes, one + one / 2);
  // k1 was evicted; the pinned shared_ptr from the earlier match stays
  // valid (eviction never invalidates an in-flight reader).
  EXPECT_EQ(cache.TryMatch(HandShape("k1")).snapshot, nullptr);
  EXPECT_EQ(testing::MaterializeToTerm(m.snapshot->nav.get()),
            "answer[aaaa,bbbb]");
}

TEST(AnswerViewCacheTest, InvalidateSourceDropsDependentsAndStalePins) {
  AnswerViewCache cache(AnswerViewCache::Options{1 << 20});
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                PinsAt(&cache, {{"homesSrc", 0}}));
  cache.Publish(HandShape("schools", {"schoolsSrc"}), Export("answer[b]"),
                PinsAt(&cache, {{"schoolsSrc", 0}}));
  EXPECT_EQ(cache.stats().entries, 2);

  cache.InvalidateSource("homesSrc");
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.entries, 1);  // only the schools view survives
  EXPECT_EQ(cache.TryMatch(HandShape("homes", {"homesSrc"})).snapshot, nullptr);
  EXPECT_NE(cache.TryMatch(HandShape("schools", {"schoolsSrc"})).snapshot,
            nullptr);

  // A donor that pinned the pre-bump generation publishes into the void.
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                PinsAt(&cache, {{"homesSrc", 0}}));
  EXPECT_EQ(cache.stats().rejects["stale"], 1);
  // Pinning afresh picks up the bumped generation and publishes cleanly.
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                cache.generations().PinSources({"homesSrc"}));
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(AnswerViewCacheTest, DisabledCacheIsInert) {
  AnswerViewCache cache(AnswerViewCache::Options{0});
  EXPECT_FALSE(cache.enabled());
  cache.Publish(HandShape("k"), Export("answer[a]"), PinsAt(&cache, {{"homesSrc", 0}}));
  EXPECT_EQ(cache.TryMatch(HandShape("k")).snapshot, nullptr);
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.publishes, 0);
  EXPECT_EQ(s.hits + s.misses, 0);
}

// ---------------------------------------------------------------------------
// End-to-end service path.
// ---------------------------------------------------------------------------

/// Wrapper decorator counting LXP exchanges — the "zero wrapper exchanges"
/// acceptance reads this.
class CountingWrapper : public buffer::LxpWrapper {
 public:
  CountingWrapper(std::unique_ptr<buffer::LxpWrapper> inner,
                  std::atomic<int64_t>* exchanges)
      : inner_(std::move(inner)), exchanges_(exchanges) {}

  std::string GetRoot(const std::string& uri) override {
    ++*exchanges_;
    return inner_->GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    ++*exchanges_;
    return inner_->Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    ++*exchanges_;
    return inner_->FillMany(holes, budget);
  }

 private:
  std::unique_ptr<buffer::LxpWrapper> inner_;
  std::atomic<int64_t>* exchanges_;
};

class ViewServiceFixture {
 public:
  ViewServiceFixture()
      : homes_(testing::Doc(kHomes)), schools_(testing::Doc(kSchools)) {
    env_.RegisterWrapperFactory(
        "homesSrc",
        [this] {
          return std::make_unique<CountingWrapper>(
              std::make_unique<wrappers::XmlLxpWrapper>(homes_.get()),
              &exchanges_);
        },
        "homes.xml");
    env_.RegisterWrapperFactory(
        "schoolsSrc",
        [this] {
          return std::make_unique<CountingWrapper>(
              std::make_unique<wrappers::XmlLxpWrapper>(schools_.get()),
              &exchanges_);
        },
        "schools.xml");
  }

  SessionEnvironment& env() { return env_; }
  int64_t exchanges() const { return exchanges_.load(); }

  /// In-process, cache-free evaluation — the fidelity oracle.
  std::string Reference(const char* query) {
    xml::DocNavigable homes_nav(homes_.get());
    xml::DocNavigable schools_nav(schools_.get());
    SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = CompileXmas(query).ValueOrDie();
    auto med = LazyMediator::Build(*plan, sources).ValueOrDie();
    return testing::MaterializeToTerm(med->document());
  }

 private:
  std::unique_ptr<xml::Document> homes_;
  std::unique_ptr<xml::Document> schools_;
  std::atomic<int64_t> exchanges_{0};
  SessionEnvironment env_;
};

MediatorService::Options ViewOptions(int64_t view_bytes) {
  MediatorService::Options o;
  o.answer_view_cache_bytes = view_bytes;
  return o;
}

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out));
}

TEST(AnswerViewServiceTest, WarmOpenServedWithZeroWrapperExchanges) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));
  const std::string expected = fx.Reference(kFig3);

  auto donor = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), expected);
  ASSERT_TRUE(donor->Close().ok());
  int64_t cold = fx.exchanges();
  EXPECT_GT(cold, 0);
  EXPECT_EQ(service.Metrics().view_publishes, 1);

  // The warm open replays the snapshot: byte-identical answer, ZERO new
  // wrapper exchanges (no wrappers are even built for the session).
  auto warm = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(warm.get()), expected);
  EXPECT_EQ(fx.exchanges(), cold);
  ASSERT_TRUE(warm->Close().ok());

  service::ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.view_hits, 1);
  EXPECT_EQ(snap.view_publishes, 1);
  EXPECT_GT(snap.view_bytes, 0);
  EXPECT_NE(snap.ToString().find("views{"), std::string::npos);
}

TEST(AnswerViewServiceTest, NarrowedPredicateServedFromBaseView) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));

  // Donor: the unfiltered zips view.
  auto donor = client::FramedDocument::Open(&service, kZipsBase).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), fx.Reference(kZipsBase));
  ASSERT_TRUE(donor->Close().ok());
  int64_t cold = fx.exchanges();
  ASSERT_EQ(service.Metrics().view_publishes, 1);

  // Both narrowed variants are subsumed: σ over the snapshot's children,
  // byte-identical to fresh evaluation, zero new wrapper exchanges.
  for (const char* narrowed : {kZipsEq, kZipsLt}) {
    auto doc = client::FramedDocument::Open(&service, narrowed).ValueOrDie();
    EXPECT_EQ(MaterializeFramed(doc.get()), fx.Reference(narrowed));
    ASSERT_TRUE(doc->Close().ok());
  }
  EXPECT_EQ(fx.exchanges(), cold);
  EXPECT_EQ(service.Metrics().view_hits, 2);
}

TEST(AnswerViewServiceTest, KnobZeroReproducesBaseline) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(0));
  const std::string expected = fx.Reference(kFig3);

  auto first = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(first.get()), expected);
  ASSERT_TRUE(first->Close().ok());
  int64_t cold = fx.exchanges();

  // Second open re-exchanges: nothing was published, nothing matched.
  auto second = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(second.get()), expected);
  ASSERT_TRUE(second->Close().ok());
  EXPECT_GT(fx.exchanges(), cold);

  service::ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.view_hits, 0);
  EXPECT_EQ(snap.view_misses, 0);
  EXPECT_EQ(snap.view_publishes, 0);
  EXPECT_EQ(snap.view_entries, 0);
}

TEST(AnswerViewServiceTest, InvalidateSourceForcesReExchange) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));
  const std::string expected = fx.Reference(kFig3);

  auto donor = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), expected);
  ASSERT_TRUE(donor->Close().ok());
  ASSERT_EQ(service.Metrics().view_entries, 1);

  // The freshness hook: homes changed, every dependent view is dropped.
  service.InvalidateSource("homesSrc");
  EXPECT_EQ(service.Metrics().view_entries, 0);

  int64_t before = fx.exchanges();
  auto fresh = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(fresh.get()), expected);
  ASSERT_TRUE(fresh->Close().ok());
  EXPECT_GT(fx.exchanges(), before) << "stale view must not serve";
  // The fresh session pinned the bumped generation, so it re-donates...
  EXPECT_EQ(service.Metrics().view_publishes, 2);
  // ...and the next open is served again.
  int64_t warm = fx.exchanges();
  auto served = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(served.get()), expected);
  EXPECT_EQ(fx.exchanges(), warm);
  ASSERT_TRUE(served->Close().ok());
}

/// A homes wrapper whose fills always fail: the first session degrades and
/// must publish nothing; later sessions get a healthy wrapper.
class FailingWrapper : public buffer::LxpWrapper {
 public:
  std::string GetRoot(const std::string&) override { return "h:root"; }
  buffer::FragmentList Fill(const std::string&) override { return {}; }
  Status TryFillMany(const std::vector<std::string>&,
                     const buffer::FillBudget&,
                     buffer::HoleFillList*) override {
    return Status::Unavailable("source down");
  }
};

TEST(AnswerViewServiceTest, DegradedSessionNeverPublishes) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
  std::atomic<int> built{0};
  env.RegisterWrapperFactory(
      "homesSrc",
      [&built, &homes]() -> std::unique_ptr<buffer::LxpWrapper> {
        if (built.fetch_add(1) == 0) return std::make_unique<FailingWrapper>();
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
      },
      "homes.xml");
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml");
  MediatorService service(&env, ViewOptions(1 << 20));

  // Session 1 degrades: its full-depth export errors, the publish hook
  // never fires, and nothing reaches the cache.
  auto broken = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  std::vector<SubtreeEntry> entries;
  broken->FetchSubtree(broken->Root(), -1, &entries);
  EXPECT_FALSE(broken->last_status().ok());
  ASSERT_TRUE(broken->Close().ok());
  EXPECT_EQ(service.Metrics().view_publishes, 0);
  EXPECT_EQ(service.Metrics().view_entries, 0);

  // Session 2 (healthy wrapper) donates; session 3 is served the GOOD
  // answer — a degraded answer can never poison later sessions.
  auto good = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  std::string expected = MaterializeFramed(good.get());
  EXPECT_NE(expected.find("med_home"), std::string::npos);
  EXPECT_EQ(expected.find("#unavailable"), std::string::npos);
  ASSERT_TRUE(good->Close().ok());
  EXPECT_EQ(service.Metrics().view_publishes, 1);

  auto served = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(served.get()), expected);
  ASSERT_TRUE(served->Close().ok());
  EXPECT_EQ(service.Metrics().view_hits, 1);
}

TEST(AnswerViewServiceTest, InvalidationDuringOpenNeverPublishesOldAnswer) {
  // A session pins its sources once, before its build: its buffers read,
  // and its answer is donated, under the same generations. Here homes
  // changes and is invalidated in the middle of a session's build (the
  // schools factory runs after the homes buffer exists), while homes'
  // fragments from generation 0 are still cached. That session reads the
  // old homes and its answer must not be published as current: a session
  // opened after the invalidation returned gets the new answer.
  auto homes_v1 = testing::Doc(kHomes);
  auto homes_v2 = testing::Doc("homes[home[addr[La Jolla],zip[91223]]]");
  auto schools = testing::Doc(kSchools);
  std::atomic<xml::Document*> homes{homes_v1.get()};
  std::atomic<MediatorService*> service_ptr{nullptr};
  std::atomic<int> schools_built{0};
  SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] {
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.load());
      },
      "homes.xml");
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&] {
        if (schools_built.fetch_add(1) == 1) {
          homes.store(homes_v2.get());
          service_ptr.load()->InvalidateSource("homesSrc");
        }
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml");
  MediatorService::Options options = ViewOptions(1 << 20);
  options.source_cache_bytes = 1 << 20;
  MediatorService service(&env, options);
  service_ptr.store(&service);

  auto reference = [&](const xml::Document* homes_doc) {
    xml::DocNavigable homes_nav(homes_doc);
    xml::DocNavigable schools_nav(schools.get());
    SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = CompileXmas(kFig3).ValueOrDie();
    auto med = LazyMediator::Build(*plan, sources).ValueOrDie();
    return testing::MaterializeToTerm(med->document());
  };
  const std::string old_answer = reference(homes_v1.get());
  const std::string new_answer = reference(homes_v2.get());
  ASSERT_NE(old_answer, new_answer);

  // Warm homes' fragments, then drop the view (and only schools' cache).
  auto warm = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(warm.get()), old_answer);
  ASSERT_TRUE(warm->Close().ok());
  service.InvalidateSource("schoolsSrc");
  ASSERT_EQ(service.Metrics().view_entries, 0);

  // Homes changes during this session's build.
  auto racing = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(racing.get()), old_answer);
  ASSERT_TRUE(racing->Close().ok());
  ASSERT_EQ(schools_built.load(), 2);

  auto after = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(after.get()), new_answer);
  ASSERT_TRUE(after->Close().ok());
  EXPECT_EQ(service.Metrics().view_hits, 0);
}

}  // namespace
}  // namespace mix::mediator
