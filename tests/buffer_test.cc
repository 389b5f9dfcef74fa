#include <gtest/gtest.h>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "test_util.h"
#include "xml/materialize.h"

namespace mix::buffer {
namespace {

using FL = FragmentList;

TEST(FragmentTest, Constructors) {
  Fragment h = Fragment::Hole("id7");
  EXPECT_TRUE(h.is_hole);
  EXPECT_EQ(h.ToTerm(), "hole[id7]");

  Fragment e = Fragment::Element("a", {Fragment::Text("x"), Fragment::Hole("1")});
  EXPECT_EQ(e.ToTerm(), "a[x,hole[1]]");
}

TEST(FragmentTest, FromXmlSubtree) {
  auto doc = testing::Doc("r[a[x],b]");
  Fragment f = Fragment::FromXmlSubtree(doc->root());
  EXPECT_EQ(f.ToTerm(), "r[a[x],b]");
}

TEST(FragmentTest, ByteSizeGrowsWithContent) {
  Fragment small = Fragment::Element("a");
  Fragment big = Fragment::Element("a", {Fragment::Text("0123456789")});
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GT(FragmentListByteSize({small, big}), big.ByteSize());
}

/// The liberal LXP trace of Example 7 for t = a[b[d,e],c].
ScriptedLxpWrapper MakeExample7Wrapper() {
  std::map<std::string, FL> fills;
  fills["h0"] = {Fragment::Element("a", {Fragment::Hole("h1")})};
  fills["h1"] = {Fragment::Element("b", {Fragment::Hole("h2")}),
                 Fragment::Hole("h3")};
  fills["h3"] = {Fragment::Element("c")};
  fills["h2"] = {Fragment::Hole("h4"),
                 Fragment::Element("d", {Fragment::Hole("h5")}),
                 Fragment::Hole("h6")};
  fills["h4"] = {};
  fills["h5"] = {};
  fills["h6"] = {Fragment::Element("e")};
  return ScriptedLxpWrapper("h0", std::move(fills));
}

TEST(BufferTest, Example7FullExploration) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "a[b[d,e],c]");
}

TEST(BufferTest, Example7StepwiseTraceAndOpenTrees) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");

  NodeId a = buffer.Root();
  EXPECT_EQ(buffer.Fetch(a), "a");
  EXPECT_EQ(wrapper.fill_log(), (std::vector<std::string>{"h0"}));
  EXPECT_EQ(buffer.OpenTreeTerm(), "[a[hole[h1]]]");

  auto b = buffer.Down(a);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(buffer.Fetch(*b), "b");
  EXPECT_EQ(wrapper.fill_log(), (std::vector<std::string>{"h0", "h1"}));
  EXPECT_EQ(buffer.OpenTreeTerm(), "[a[b[hole[h2]],hole[h3]]]");

  // Descending into b hits the liberal fill of h2: the buffer must chase
  // through the leading hole h4 (which fills empty) to reach d.
  auto d = buffer.Down(*b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(buffer.Fetch(*d), "d");
  EXPECT_EQ(wrapper.fill_log(),
            (std::vector<std::string>{"h0", "h1", "h2", "h4"}));

  // d's only "child" is the empty hole h5: d is in fact a leaf.
  EXPECT_FALSE(buffer.Down(*d).has_value());
  // Right of d chases h6 -> e.
  auto e = buffer.Right(*d);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(buffer.Fetch(*e), "e");
  EXPECT_FALSE(buffer.Right(*e).has_value());

  // Right of b chases h3 -> c.
  auto c = buffer.Right(*b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(buffer.Fetch(*c), "c");
  EXPECT_EQ(buffer.holes_outstanding(), 0);
}

TEST(BufferTest, NoSourceAccessBeforeFirstNavigation) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  // Constructing the buffer must not fill anything.
  EXPECT_EQ(buffer.fill_count(), 0);
}

TEST(BufferTest, MinimalFillsForPartialNavigation) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  NodeId a = buffer.Root();
  buffer.Down(a);
  // Only the root hole and the first-level hole were filled; the subtrees
  // of b and the sibling c were never requested.
  EXPECT_EQ(buffer.fill_count(), 2);
  EXPECT_EQ(buffer.holes_outstanding(), 2);  // h2 and h3
}

TEST(BufferTest, BufferedNodesAnsweredWithoutRefill) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  NodeId a = buffer.Root();
  auto b = buffer.Down(a);
  int64_t fills = buffer.fill_count();
  // Re-navigating over explored parts must not touch the wrapper.
  EXPECT_EQ(buffer.Fetch(buffer.Root()), "a");
  auto b2 = buffer.Down(a);
  EXPECT_EQ(*b2, *b);
  EXPECT_EQ(buffer.fill_count(), fills);
}

TEST(BufferTest, ChannelAccounting) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  net::SimClock clock;
  net::Channel channel(&clock, net::ChannelOptions{});
  BufferComponent::Options options;
  options.channel = &channel;
  BufferComponent buffer(&wrapper, "u", options);

  buffer.Root();
  // get_root (2 messages) + fill h0 (2 messages).
  EXPECT_EQ(channel.stats().messages, 4);
  EXPECT_GT(channel.stats().bytes, 0);
  EXPECT_GT(clock.now_ns(), 0);
}

TEST(BufferTest, NoReadaheadQueueWithoutWindow) {
  // Only the readahead window drains the hole queue, so a window-0 buffer
  // must not keep an entry for every hole it has ever seen.
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "a[b[d,e],c]");
  EXPECT_EQ(buffer.fill_count(), 7);  // h0..h6: every hole was filled
  EXPECT_EQ(buffer.holes_outstanding(), 0);
  EXPECT_EQ(buffer.readahead_queue_size(), 0u);
}

TEST(BufferTest, EmptyFillRemovesHole) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element("r", {Fragment::Element("a"),
                                           Fragment::Hole("tail")})};
  fills["tail"] = {};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  auto a = buffer.Down(r);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(buffer.Right(*a).has_value());
  EXPECT_EQ(buffer.holes_outstanding(), 0);
}

// A fill violating the progress conditions is rejected *before* any splice:
// the offending hole degrades to an unavailable node, the error is latched
// as a typed Status, and the process never aborts (a remote wrapper must
// not be able to kill the mediator).
TEST(BufferFaultTest, AdjacentHolesRejectedWithStatus) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element(
      "r", {Fragment::Hole("x"), Fragment::Hole("y")})};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(buffer.Fetch(r), "#unavailable");
  Status s = buffer.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("adjacent holes"), std::string::npos);
  EXPECT_EQ(buffer.degraded_holes(), 1);
  // The latch is drained: clean navigation stays clean.
  EXPECT_TRUE(buffer.TakeStatus().ok());
}

TEST(BufferFaultTest, AllHoleFillRejectedWithStatus) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element("r", {Fragment::Hole("x")})};
  fills["x"] = {Fragment::Hole("y")};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  std::optional<NodeId> child = buffer.Down(r);
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(buffer.Fetch(*child), "#unavailable");
  Status s = buffer.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("only of holes"), std::string::npos);
  EXPECT_EQ(buffer.degraded_holes(), 1);
}

}  // namespace
}  // namespace mix::buffer
