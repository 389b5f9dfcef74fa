// Vectored-navigation tests: the batch API (DownAll / NextSiblings /
// FetchSubtree, BindingStream::NextBindings, LxpWrapper::FillMany) must be
// byte-identical to the node-at-a-time loops it replaces, and must never
// issue more source navigations than those loops.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "client/client.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/sim_net.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace mix {
namespace {

// ---------------------------------------------------------------------------
// Default implementations vs native overrides.
// ---------------------------------------------------------------------------

/// Forwards only the three primitives, so the batch calls exercise the
/// Navigable *default* implementations (the d/r/f loops).
class LoopOnly : public Navigable {
 public:
  explicit LoopOnly(Navigable* inner) : inner_(inner) {}
  NodeId Root() override { return inner_->Root(); }
  std::optional<NodeId> Down(const NodeId& p) override {
    return inner_->Down(p);
  }
  std::optional<NodeId> Right(const NodeId& p) override {
    return inner_->Right(p);
  }
  Label Fetch(const NodeId& p) override { return inner_->Fetch(p); }

 private:
  Navigable* inner_;
};

std::string EntriesToString(const std::vector<SubtreeEntry>& entries) {
  std::string out;
  for (const SubtreeEntry& e : entries) {
    out += e.label.name();
    out += "@" + std::to_string(e.depth);
    if (e.truncated) out += "!";
    out += ";";
  }
  return out;
}

TEST(BatchDefaultsTest, DownAllMatchesNativeOverride) {
  auto doc = testing::Doc("r[a[x,y],b,c[z]]");
  xml::DocNavigable nav(doc.get());
  LoopOnly looped(&nav);

  NodeId root = nav.Root();
  std::vector<NodeId> native, defaulted;
  nav.DownAll(root, &native);
  looped.DownAll(root, &defaulted);
  EXPECT_EQ(native, defaulted);
  ASSERT_EQ(native.size(), 3u);
  EXPECT_EQ(nav.Fetch(native[0]), "a");
  EXPECT_EQ(nav.Fetch(native[2]), "c");
}

TEST(BatchDefaultsTest, NextSiblingsMatchesNativeOverride) {
  auto doc = testing::Doc("r[a,b,c,d,e]");
  xml::DocNavigable nav(doc.get());
  LoopOnly looped(&nav);
  NodeId a = *nav.Down(nav.Root());

  for (int64_t limit : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{99},
                        int64_t{-1}}) {
    std::vector<NodeId> native, defaulted;
    nav.NextSiblings(a, limit, &native);
    looped.NextSiblings(a, limit, &defaulted);
    EXPECT_EQ(native, defaulted) << "limit=" << limit;
  }
  std::vector<NodeId> two;
  nav.NextSiblings(a, 2, &two);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(nav.Fetch(two[1]), "c");
}

TEST(BatchDefaultsTest, FetchSubtreeMatchesNativeOverride) {
  auto doc = testing::Doc("r[a[x,y[q]],b,c[z]]");
  xml::DocNavigable nav(doc.get());
  LoopOnly looped(&nav);
  NodeId root = nav.Root();

  for (int64_t depth : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{2}}) {
    std::vector<SubtreeEntry> native, defaulted;
    nav.FetchSubtree(root, depth, &native);
    looped.FetchSubtree(root, depth, &defaulted);
    EXPECT_EQ(EntriesToString(native), EntriesToString(defaulted))
        << "depth=" << depth;
  }

  std::vector<SubtreeEntry> full;
  nav.FetchSubtree(root, -1, &full);
  EXPECT_EQ(EntriesToString(full), "r@0;a@1;x@2;y@2;q@3;b@1;c@1;z@2;");
}

TEST(BatchDefaultsTest, TruncatedEntriesResumeCorrectly) {
  auto doc = testing::Doc("r[a[x,y[q]],b,c[z]]");
  xml::DocNavigable nav(doc.get());
  std::vector<SubtreeEntry> cut;
  nav.FetchSubtree(nav.Root(), 1, &cut);
  EXPECT_EQ(EntriesToString(cut), "r@0;a@1!;b@1;c@1!;");
  // Resume from each truncated frontier entry; together with the snapshot
  // this reconstructs the full tree.
  std::vector<SubtreeEntry> under_a;
  nav.FetchSubtree(cut[1].id, -1, &under_a);
  EXPECT_EQ(EntriesToString(under_a), "a@0;x@1;y@1;q@2;");
}

// ---------------------------------------------------------------------------
// Batched materialization: byte-identical, never more source navigations.
// ---------------------------------------------------------------------------

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

mediator::PlanPtr ParsePlan(const char* query) {
  auto q = xmas::ParseQuery(query);
  EXPECT_TRUE(q.ok());
  auto plan = mediator::TranslateQuery(q.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

struct EvalRun {
  std::string term;
  NavStats stats;
};

/// Evaluates the Fig. 3 plan over counted sources, materializing either
/// node-at-a-time or through the vectored path.
EvalRun RunFig3(xml::Document* homes, xml::Document* schools, bool batched) {
  xml::DocNavigable homes_nav(homes);
  xml::DocNavigable schools_nav(schools);
  EvalRun run;
  CountingNavigable homes_counted(&homes_nav, &run.stats);
  CountingNavigable schools_counted(&schools_nav, &run.stats);
  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_counted);
  sources.Register("schoolsSrc", &schools_counted);
  auto m = mediator::LazyMediator::Build(*ParsePlan(kFig3), sources)
               .ValueOrDie();
  xml::Document out;
  xml::Node* root = batched
                        ? xml::MaterializeInto(m->document(), &out)
                        : xml::MaterializeIntoNodeAtATime(m->document(), &out);
  run.term = xml::ToTerm(root);
  return run;
}

TEST(BatchEquivalenceTest, Fig3PlanIdenticalAndNeverMoreNavigations) {
  auto homes = xml::MakeHomesDoc(40, 8);
  auto schools = xml::MakeSchoolsDoc(40, 8);
  EvalRun baseline = RunFig3(homes.get(), schools.get(), /*batched=*/false);
  EvalRun batched = RunFig3(homes.get(), schools.get(), /*batched=*/true);
  EXPECT_EQ(batched.term, baseline.term);
  EXPECT_LE(batched.stats.total(), baseline.stats.total());
}

TEST(BatchEquivalenceTest, StackedMediatorsIdenticalAndNeverMore) {
  // Fig. 1 stacking: a second mediator browsing the first's virtual answer.
  const char* upper_q =
      "CONSTRUCT <schools_found> $S {$S} </schools_found> {} "
      "WHERE lower answer.med_home.school $S";
  auto homes = xml::MakeHomesDoc(25, 5);
  auto schools = xml::MakeSchoolsDoc(25, 5);

  auto run = [&](bool batched) {
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    EvalRun r;
    CountingNavigable hc(&homes_nav, &r.stats);
    CountingNavigable sc(&schools_nav, &r.stats);
    mediator::SourceRegistry lower_sources;
    lower_sources.Register("homesSrc", &hc);
    lower_sources.Register("schoolsSrc", &sc);
    auto lower =
        mediator::LazyMediator::Build(*ParsePlan(kFig3), lower_sources)
            .ValueOrDie();
    mediator::SourceRegistry upper_sources;
    upper_sources.Register("lower", lower->document());
    auto upper =
        mediator::LazyMediator::Build(*ParsePlan(upper_q), upper_sources)
            .ValueOrDie();
    xml::Document out;
    xml::Node* root =
        batched ? xml::MaterializeInto(upper->document(), &out)
                : xml::MaterializeIntoNodeAtATime(upper->document(), &out);
    r.term = xml::ToTerm(root);
    return r;
  };

  EvalRun baseline = run(false);
  EvalRun batched = run(true);
  EXPECT_EQ(batched.term, baseline.term);
  EXPECT_LE(batched.stats.total(), baseline.stats.total());
}

TEST(BatchEquivalenceTest, CountingChargesExactBaselineForFullFetch) {
  // CountingNavigable charges FetchSubtree at the node-at-a-time walk rate:
  // for a full fetch of an n-node tree, n fetches, n downs, n-1 rights.
  auto doc = testing::Doc("r[a[x,y[q]],b,c[z]]");  // 8 nodes
  xml::DocNavigable nav(doc.get());
  NavStats stats;
  CountingNavigable counted(&nav, &stats);
  std::vector<SubtreeEntry> entries;
  counted.FetchSubtree(counted.Root(), -1, &entries);
  EXPECT_EQ(entries.size(), 8u);
  EXPECT_EQ(stats.fetches, 8);
  EXPECT_EQ(stats.downs, 8);
  EXPECT_EQ(stats.rights, 7);

  // ...which is exactly what the d/r/f materialization loop costs.
  NavStats loop_stats;
  CountingNavigable loop_counted(&nav, &loop_stats);
  xml::Document out;
  xml::MaterializeIntoNodeAtATime(&loop_counted, &out);
  EXPECT_EQ(loop_stats.fetches, stats.fetches);
  EXPECT_EQ(loop_stats.downs, stats.downs);
  EXPECT_EQ(loop_stats.rights, stats.rights);
}

// ---------------------------------------------------------------------------
// Buffer: coalesced hole fills.
// ---------------------------------------------------------------------------

std::string WideDocTerm(int n) {
  std::string term = "r[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) term += ",";
    term += "c" + std::to_string(i);
  }
  term += "]";
  return term;
}

TEST(BufferBatchTest, DownAllCollapsesDemandMessages) {
  const int kChildren = 32;
  auto doc = testing::Doc(WideDocTerm(kChildren));
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 1;  // worst case: one hole round-trip per child
  wopts.inline_limit = 0;

  // Node-at-a-time paging.
  wrappers::XmlLxpWrapper loop_wrapper(doc.get(), wopts);
  net::Channel loop_channel(nullptr, net::ChannelOptions{});
  buffer::BufferComponent::Options loop_opts;
  loop_opts.channel = &loop_channel;
  buffer::BufferComponent loop_buffer(&loop_wrapper, "u", loop_opts);
  {
    int count = 0;
    for (auto c = loop_buffer.Down(loop_buffer.Root()); c.has_value();
         c = loop_buffer.Right(*c)) {
      ++count;
    }
    EXPECT_EQ(count, kChildren);
  }

  // Vectored: one coalesced request/response pair after the root fill.
  wrappers::XmlLxpWrapper batch_wrapper(doc.get(), wopts);
  net::Channel batch_channel(nullptr, net::ChannelOptions{});
  buffer::BufferComponent::Options batch_opts;
  batch_opts.channel = &batch_channel;
  buffer::BufferComponent batch_buffer(&batch_wrapper, "u", batch_opts);
  NodeId root = batch_buffer.Root();
  int64_t messages_after_root = batch_channel.stats().messages;
  std::vector<NodeId> children;
  batch_buffer.DownAll(root, &children);
  EXPECT_EQ(static_cast<int>(children.size()), kChildren);
  // The whole child list costs one request + one response.
  EXPECT_EQ(batch_channel.stats().messages - messages_after_root, 2);
  EXPECT_GT(batch_channel.stats().batched_parts,
            batch_channel.stats().batches);
  // Radically fewer messages — and, with adaptive fill sizing, the chased
  // batch needs FEWER fills than the node-at-a-time loop (the wrapper
  // doubles its chunk on consecutive continued fills), never more.
  EXPECT_LE(batch_buffer.fill_count(), loop_buffer.fill_count());
  EXPECT_LT(batch_channel.stats().messages, loop_channel.stats().messages);

  // And the buffered tree is the same.
  EXPECT_EQ(testing::MaterializeToTerm(&batch_buffer),
            testing::MaterializeToTerm(&loop_buffer));
}

TEST(BufferBatchTest, NextSiblingsPagesWithoutOverFetch) {
  const int kChildren = 16;
  auto doc = testing::Doc(WideDocTerm(kChildren));
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 2;
  wopts.inline_limit = 0;

  auto fills_for_page = [&](int64_t limit, bool batched) {
    wrappers::XmlLxpWrapper wrapper(doc.get(), wopts);
    buffer::BufferComponent buffer(&wrapper, "u");
    NodeId first = *buffer.Down(buffer.Root());
    if (batched) {
      std::vector<NodeId> page;
      buffer.NextSiblings(first, limit, &page);
      EXPECT_EQ(static_cast<int64_t>(page.size()), limit);
    } else {
      NodeId cur = first;
      for (int64_t i = 0; i < limit; ++i) {
        auto next = buffer.Right(cur);
        EXPECT_TRUE(next.has_value());
        cur = *next;
      }
    }
    return buffer.fill_count();
  };

  for (int64_t limit : {int64_t{1}, int64_t{5}, int64_t{9}}) {
    // No over-fetch: the element budget caps the adaptive chunk growth, so
    // the batched page ships the same elements; it may need fewer fills
    // than the node-at-a-time walk (growing chunks), never more.
    EXPECT_LE(fills_for_page(limit, true), fills_for_page(limit, false))
        << "limit=" << limit;
  }
}

// ---------------------------------------------------------------------------
// FillMany budgets and guards.
// ---------------------------------------------------------------------------

TEST(FillManyTest, DefaultImplementationLoopsWithoutChasing) {
  std::map<std::string, buffer::FragmentList> fills;
  fills["h1"] = {buffer::Fragment::Element("a"), buffer::Fragment::Hole("h2")};
  fills["h3"] = {buffer::Fragment::Element("b")};
  buffer::ScriptedLxpWrapper wrapper("h0", std::move(fills));

  buffer::HoleFillList result =
      wrapper.FillMany({"h1", "h3"}, buffer::FillBudget{});
  // One entry per requested hole, in request order; the continuation hole
  // h2 is NOT chased (the scripted wrapper inherits the safe default).
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].hole_id, "h1");
  EXPECT_EQ(result[1].hole_id, "h3");
  EXPECT_EQ(wrapper.fill_log(),
            (std::vector<std::string>{"h1", "h3"}));
}

TEST(FillManyTest, ChaseCompletesSiblingListWithEmptyBudget) {
  auto doc = testing::Doc(WideDocTerm(8));
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 2;
  wopts.inline_limit = 0;
  wrappers::XmlLxpWrapper wrapper(doc.get(), wopts);

  std::string root_hole = wrapper.GetRoot("u");
  buffer::FragmentList root_fill = wrapper.Fill(root_hole);
  ASSERT_EQ(root_fill.size(), 1u);
  ASSERT_EQ(root_fill[0].children.size(), 1u);
  ASSERT_TRUE(root_fill[0].children[0].is_hole);
  std::string child_hole = root_fill[0].children[0].hole_id;

  // {} = complete refinement: every continuation hole is chased, so the
  // child list arrives hole-free in one exchange.
  buffer::HoleFillList fills =
      wrapper.FillMany({child_hole}, buffer::FillBudget{});
  int elements = 0;
  bool trailing_hole = false;
  for (const buffer::HoleFill& f : fills) {
    for (const buffer::Fragment& frag : f.fragments) {
      if (frag.is_hole) {
        trailing_hole = true;
      } else {
        ++elements;
      }
    }
  }
  EXPECT_EQ(elements, 8);
  // Every hole introduced was itself refined within the same batch. With
  // adaptive fill sizing the chunks grow geometrically (2 + 4 + 2 children)
  // instead of costing 8/chunk = 4 fixed-size fills.
  EXPECT_EQ(static_cast<int>(fills.size()), 3);
  EXPECT_TRUE(trailing_hole);  // intermediate responses contain the chased holes
}

TEST(FillManyTest, ElementBudgetStopsChase) {
  auto doc = testing::Doc(WideDocTerm(8));
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 2;
  wopts.inline_limit = 0;
  wrappers::XmlLxpWrapper wrapper(doc.get(), wopts);
  std::string root_hole = wrapper.GetRoot("u");
  std::string child_hole = wrapper.Fill(root_hole)[0].children[0].hole_id;

  buffer::FillBudget budget;
  budget.elements = 3;
  buffer::HoleFillList fills = wrapper.FillMany({child_hole}, budget);
  // chunk=2: first fill ships 2 elements (< 3), one chase ships 2 more
  // (>= 3) — then the budget stops the chase.
  EXPECT_EQ(static_cast<int>(fills.size()), 2);
}

TEST(FillManyTest, FillCountBudgetBoundsSpeculation) {
  auto doc = testing::Doc(WideDocTerm(8));
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 2;
  wopts.inline_limit = 0;
  wrappers::XmlLxpWrapper wrapper(doc.get(), wopts);
  std::string root_hole = wrapper.GetRoot("u");
  std::string child_hole = wrapper.Fill(root_hole)[0].children[0].hole_id;

  buffer::FillBudget budget;
  budget.fills = 1;
  buffer::HoleFillList fills = wrapper.FillMany({child_hole}, budget);
  // The requested hole is always served; the budget forbids any chase.
  EXPECT_EQ(static_cast<int>(fills.size()), 1);
  EXPECT_EQ(fills[0].hole_id, child_hole);
}

/// A wrapper violating the FillMany contract (fewer entries than requested
/// holes) — the buffer must reject the response as a typed error, degrade
/// the unanswered hole, and never abort.
/// Answers the root's demand fill (a one-hole exchange for "root") and
/// nothing else: every other FillMany response is empty.
class ShortFillWrapper : public buffer::LxpWrapper {
 public:
  std::string GetRoot(const std::string&) override { return "root"; }
  buffer::FragmentList Fill(const std::string&) override {
    return {buffer::Fragment::Element("r", {buffer::Fragment::Hole("x")})};
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    if (holes == std::vector<std::string>{"root"}) {
      return LxpWrapper::FillMany(holes, budget);
    }
    return {};  // contract violation
  }
};

TEST(FillManyContractTest, BufferRejectsShortBatchResponse) {
  ShortFillWrapper wrapper;
  // With a channel attached, so the empty response is charged too (once as
  // one tiny message; it must not abort the accounting).
  net::Channel channel(nullptr, net::ChannelOptions{});
  buffer::BufferComponent::Options options;
  options.channel = &channel;
  buffer::BufferComponent buffer(&wrapper, "u", options);
  // Root()'s demand fill is answered; the batched child enumeration must
  // trip the contract check.
  NodeId r = buffer.Root();
  std::vector<NodeId> kids;
  buffer.DownAll(r, &kids);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(buffer.Fetch(kids[0]), "#unavailable");
  Status s = buffer.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("not answered"), std::string::npos);
  EXPECT_EQ(buffer.degraded_holes(), 1);
  // get_root, the root fill and the rejected exchange: two messages each.
  EXPECT_EQ(channel.stats().messages, 6);
}

// ---------------------------------------------------------------------------
// Client paging rides the batch path.
// ---------------------------------------------------------------------------

TEST(ClientBatchTest, ChildrenAndPagingMatchSingleStep) {
  auto doc = testing::Doc("r[a[x],b,c,d,e]");
  xml::DocNavigable nav(doc.get());
  client::VirtualXmlDocument vdoc(&nav);
  client::XmlElement root = vdoc.Root();

  std::vector<client::XmlElement> children = root.Children();
  ASSERT_EQ(children.size(), 5u);
  EXPECT_EQ(children[0].Name(), "a");
  EXPECT_EQ(children[4].Name(), "e");

  std::vector<client::XmlElement> page = children[0].FollowingSiblings(2);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].Name(), "b");
  EXPECT_EQ(page[1].Name(), "c");
  EXPECT_EQ(children[0].FollowingSiblings(-1).size(), 4u);
}

}  // namespace
}  // namespace mix
