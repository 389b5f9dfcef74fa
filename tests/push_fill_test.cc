// Wrapper-initiated (push) LXP fills — the asynchronous protocol variant
// of Section 4 — and the SuperRootNavigable document-node adapter.
//
// A push is a native-async wrapper completing a readahead future
// (BufferComponent::Options::max_in_flight) before the buffer asks for the
// hole: the buffer consumes it instead of a demand exchange, validates it
// like any batch response, and falls back to the demand path when it
// breaks the protocol.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/async_fill.h"
#include "buffer/buffer.h"
#include "core/super_root.h"
#include "net/sim_net.h"
#include "test_util.h"
#include "xml/doc_navigable.h"

namespace mix {
namespace {

using buffer::BufferComponent;
using buffer::FillBudget;
using buffer::FillFuture;
using buffer::Fragment;
using buffer::FragmentList;
using buffer::HoleFill;
using buffer::HoleFillList;
using buffer::LxpWrapper;
using buffer::ScriptedLxpWrapper;

ScriptedLxpWrapper MakeWrapper() {
  std::map<std::string, FragmentList> fills;
  fills["h0"] = {Fragment::Element("r", {Fragment::Hole("h1")})};
  fills["h1"] = {Fragment::Element("a"), Fragment::Hole("h2")};
  fills["h2"] = {Fragment::Element("b"), Fragment::Element("c")};
  return ScriptedLxpWrapper("h0", std::move(fills));
}

/// Demand exchanges go straight to the scripted source; a readahead flight
/// (a one-fill BeginFillMany) stays pending until the test calls Push(), which completes every
/// pending flight with what the source would answer (or with what
/// `rewrite` makes of it).
class PushingWrapper : public LxpWrapper {
 public:
  using Rewrite = std::function<HoleFillList(const std::string&, HoleFillList)>;

  explicit PushingWrapper(LxpWrapper* inner, Rewrite rewrite = nullptr)
      : inner_(inner), rewrite_(std::move(rewrite)) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    ++demand_exchanges_;
    return inner_->Fill(hole_id);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    ++demand_exchanges_;
    return inner_->TryFillMany(holes, budget, out);
  }
  std::shared_ptr<FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const FillBudget& budget) override {
    // A readahead flight asks for one fill; anything else is a demand
    // batch, answered at once.
    if (budget.fills != 1) {
      ++demand_exchanges_;
      return inner_->BeginFillMany(holes, budget);
    }
    auto future = std::make_shared<FillFuture>();
    pending_.push_back(Pending{holes, budget, future});
    return future;
  }

  /// Completes every pending flight; returns how many were pushed.
  int Push() {
    std::vector<Pending> pending = std::move(pending_);
    pending_.clear();
    for (Pending& p : pending) {
      HoleFillList fills;
      Status s = inner_->TryFillMany(p.holes, p.budget, &fills);
      if (s.ok() && rewrite_) fills = rewrite_(p.holes.front(), std::move(fills));
      p.future->Complete(s, std::move(fills));
      pushed_.push_back(p.future);
    }
    return static_cast<int>(pending.size());
  }

  /// Pushes `fills` once more to every flight already pushed; returns how
  /// many were pushed to.
  int PushAgain(const HoleFillList& fills) {
    for (const std::shared_ptr<FillFuture>& f : pushed_) {
      f->Complete(Status::OK(), fills);
    }
    return static_cast<int>(pushed_.size());
  }

  int demand_exchanges() const { return demand_exchanges_; }

 private:
  struct Pending {
    std::vector<std::string> holes;
    FillBudget budget;
    std::shared_ptr<FillFuture> future;
  };

  LxpWrapper* inner_;
  Rewrite rewrite_;
  std::vector<Pending> pending_;
  std::vector<std::shared_ptr<FillFuture>> pushed_;
  int demand_exchanges_ = 0;
};

BufferComponent::Options Window(int n, net::Channel* channel = nullptr) {
  BufferComponent::Options options;
  options.max_in_flight = n;
  options.channel = channel;
  return options;
}

TEST(PushFillTest, PushedFillAnswersLaterNavigationForFree) {
  ScriptedLxpWrapper source = MakeWrapper();
  PushingWrapper wrapper(&source);
  BufferComponent buffer(&wrapper, "u", Window(1));
  NodeId root = buffer.Root();
  EXPECT_EQ(wrapper.demand_exchanges(), 1);  // the root hole h0

  // The wrapper pushes the h1 continuation before the client asks.
  EXPECT_EQ(wrapper.Push(), 1);
  auto a = buffer.Down(root);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(buffer.Fetch(*a), "a");

  EXPECT_EQ(wrapper.Push(), 1);  // and then h2
  auto b = buffer.Right(*a);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(buffer.Fetch(*b), "b");
  auto c = buffer.Right(*b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(buffer.Fetch(*c), "c");
  EXPECT_FALSE(buffer.Right(*c).has_value());

  // No demand fill happened after the root: the pushes satisfied the
  // navigation.
  EXPECT_EQ(wrapper.demand_exchanges(), 1);
  BufferComponent::Stats st = buffer.stats();
  EXPECT_EQ(st.readahead_hits, 2);
  EXPECT_EQ(st.readahead_fallbacks, 0);
  EXPECT_EQ(buffer.fill_count(), 3);
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "r[a,b,c]");
}

TEST(PushFillTest, UnknownOrDuplicatePushIsDropped) {
  // A push refining a hole the buffer does not have is rejected before
  // any splice; the demand path answers the hole instead.
  ScriptedLxpWrapper source = MakeWrapper();
  PushingWrapper wrapper(&source, [](const std::string&, HoleFillList) {
    return HoleFillList{HoleFill{"nope", {Fragment::Element("x")}}};
  });
  BufferComponent buffer(&wrapper, "u", Window(1));
  NodeId root = buffer.Root();
  EXPECT_EQ(wrapper.Push(), 1);
  auto a = buffer.Down(root);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(buffer.Fetch(*a), "a");
  EXPECT_EQ(wrapper.Push(), 1);
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "r[a,b,c]");
  EXPECT_EQ(wrapper.demand_exchanges(), 3);
  EXPECT_EQ(buffer.stats().readahead_hits, 0);
  EXPECT_EQ(buffer.stats().readahead_fallbacks, 2);
  EXPECT_TRUE(buffer.TakeStatus().ok());

  // A duplicate push for the same flight: the first lands, the second is
  // dropped.
  ScriptedLxpWrapper source2 = MakeWrapper();
  PushingWrapper wrapper2(&source2);
  BufferComponent buffer2(&wrapper2, "u", Window(1));
  NodeId root2 = buffer2.Root();
  EXPECT_EQ(wrapper2.Push(), 1);
  EXPECT_EQ(wrapper2.PushAgain({HoleFill{"h1", {Fragment::Element("z")}}}), 1);
  auto a2 = buffer2.Down(root2);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(buffer2.Fetch(*a2), "a");
  EXPECT_EQ(buffer2.stats().readahead_hits, 1);
}

TEST(PushFillTest, PushTrafficChargedToDemandChannel) {
  auto walk = [](int window, net::ChannelStats* out, int* demand) {
    ScriptedLxpWrapper source = MakeWrapper();
    PushingWrapper wrapper(&source);
    net::Channel channel(nullptr, net::ChannelOptions{});
    BufferComponent buffer(&wrapper, "u", Window(window, &channel));
    NodeId root = buffer.Root();
    wrapper.Push();
    auto a = buffer.Down(root);
    ASSERT_TRUE(a.has_value());
    wrapper.Push();
    auto b = buffer.Right(*a);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(buffer.Fetch(*b), "b");
    *out = channel.stats();
    *demand = wrapper.demand_exchanges();
  };
  net::ChannelStats demand_only;
  net::ChannelStats pushed;
  int demand_only_exchanges = 0;
  int pushed_exchanges = 0;
  walk(0, &demand_only, &demand_only_exchanges);
  walk(1, &pushed, &pushed_exchanges);
  EXPECT_EQ(demand_only_exchanges, 3);
  EXPECT_EQ(pushed_exchanges, 1);
  // A consumed push is charged to the demand link as the one-hole exchange
  // it replaced — the same messages and the same bytes: a one-entry
  // response is a plain fill either way.
  EXPECT_GT(pushed.messages, 0);
  EXPECT_EQ(pushed.messages, demand_only.messages);
  EXPECT_EQ(pushed.bytes, demand_only.bytes);
}

TEST(PushFillTest, PushedFillsMayContainHoles) {
  std::map<std::string, FragmentList> fills;
  fills["h0"] = {Fragment::Element("r", {Fragment::Hole("h1")})};
  fills["h1"] = {Fragment::Element("a"), Fragment::Hole("h9")};
  fills["h9"] = {Fragment::Element("z")};
  ScriptedLxpWrapper source("h0", std::move(fills));
  PushingWrapper wrapper(&source);
  BufferComponent buffer(&wrapper, "u", Window(1));
  NodeId root = buffer.Root();
  EXPECT_EQ(wrapper.Push(), 1);
  auto a = buffer.Down(root);
  ASSERT_TRUE(a.has_value());
  // The pushed hole is live: it can itself be pushed to.
  EXPECT_EQ(wrapper.Push(), 1);
  auto z = buffer.Right(*a);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(buffer.Fetch(*z), "z");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "r[a,z]");
  EXPECT_EQ(wrapper.demand_exchanges(), 1);
  EXPECT_EQ(buffer.stats().readahead_hits, 2);
}

// ---------------------------------------------------------------------------
// SuperRootNavigable
// ---------------------------------------------------------------------------

TEST(SuperRootTest, DocumentNodeAboveRoot) {
  auto doc = testing::Doc("homes[home[zip[1]],home[zip[2]]]");
  xml::DocNavigable inner(doc.get());
  SuperRootNavigable sup(&inner);

  NodeId top = sup.Root();
  EXPECT_EQ(sup.Fetch(top), "#document");
  EXPECT_FALSE(sup.Right(top).has_value());

  auto root = sup.Down(top);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(sup.Fetch(*root), "homes");
  // The root element is the document node's only child.
  EXPECT_FALSE(sup.Right(*root).has_value());
  EXPECT_FALSE(sup.SelectSibling(*root, LabelPredicate::Any()).has_value());

  // Interior navigation forwards.
  auto home = sup.Down(*root);
  EXPECT_EQ(sup.Fetch(*home), "home");
  auto home2 = sup.Right(*home);
  ASSERT_TRUE(home2.has_value());
  EXPECT_EQ(testing::MaterializeToTerm(&sup),
            "#document[homes[home[zip[1]],home[zip[2]]]]");
}

TEST(SuperRootTest, LazyInnerRootAccess) {
  auto doc = testing::Doc("r[x]");
  xml::DocNavigable inner(doc.get());
  NavStats stats;
  CountingNavigable counted(&inner, &stats);
  SuperRootNavigable sup(&counted);
  NodeId top = sup.Root();
  EXPECT_EQ(sup.Fetch(top), "#document");
  EXPECT_EQ(stats.total(), 0);  // the wrapped source is still untouched
  sup.Down(top);
  // Down resolves the inner root (Root() itself is not a counted command).
  EXPECT_EQ(stats.total(), 0);
}

TEST(SuperRootTest, SigmaForwardsToInterior) {
  auto doc = testing::Doc("r[x,y,x]");
  xml::DocNavigable inner(doc.get());
  SuperRootNavigable sup(&inner);
  auto root = sup.Down(sup.Root());
  auto first = sup.Down(*root);
  auto hit = sup.SelectSibling(*first, LabelPredicate::Equals("x"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(sup.Fetch(*hit), "x");
}

}  // namespace
}  // namespace mix
