// Codec tests for the mixd framed wire protocol (service/wire.h): round-trip
// fidelity for every payload kind, and — the robustness satellite — negative
// decoding: truncated, oversized, corrupt-tag, length-bomb and depth-bomb
// frames must come back as Status errors, never deaths.
#include <gtest/gtest.h>

#include <string>

#include "buffer/lxp.h"
#include "service/wire.h"

namespace mix::service::wire {
namespace {

using buffer::Fragment;

Frame RoundTrip(const Frame& in) {
  std::string bytes = EncodeFrame(in);
  Result<Frame> out = DecodeFrame(bytes);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).ValueOrDie();
}

TEST(WireCodecTest, ScalarFieldsRoundTrip) {
  Frame f;
  f.type = MsgType::kNextSiblings;
  f.session = 0x1234567890abcdefULL;
  f.deadline_ns = 5'000'000;
  f.number = -1;
  f.number2 = 42;
  f.flag = true;
  f.text = "CONSTRUCT <a/> {}";
  f.text2 = "zip";
  Frame g = RoundTrip(f);
  EXPECT_EQ(g.type, MsgType::kNextSiblings);
  EXPECT_EQ(g.session, f.session);
  EXPECT_EQ(g.deadline_ns, f.deadline_ns);
  EXPECT_EQ(g.number, -1);
  EXPECT_EQ(g.number2, 42);
  EXPECT_TRUE(g.flag);
  EXPECT_EQ(g.text, f.text);
  EXPECT_EQ(g.text2, f.text2);
}

TEST(WireCodecTest, NodeIdRoundTripStructural) {
  // A nested Skolem term like the binding-level ids of Example 4.
  NodeId inner("src", {int64_t{3}, int64_t{17}});
  NodeId outer("b", {int64_t{7}, std::string("H"), inner});
  Frame f;
  f.type = MsgType::kDown;
  f.session = 1;
  f.node = outer;
  Frame g = RoundTrip(f);
  EXPECT_TRUE(g.node.valid());
  EXPECT_EQ(g.node, outer);  // structural equality across the wire
  EXPECT_EQ(g.node.ToString(), outer.ToString());
}

TEST(WireCodecTest, InvalidNodeIdRoundTrips) {
  Frame f;
  f.type = MsgType::kNode;
  f.flag = false;
  Frame g = RoundTrip(f);
  EXPECT_FALSE(g.node.valid());
}

TEST(WireCodecTest, NodeListRoundTrip) {
  Frame f;
  f.type = MsgType::kNodeList;
  f.session = 9;
  for (int64_t i = 0; i < 5; ++i) f.nodes.push_back(NodeId("n", {i}));
  Frame g = RoundTrip(f);
  ASSERT_EQ(g.nodes.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(g.nodes[i], f.nodes[i]);
}

TEST(WireCodecTest, SubtreeEntriesRoundTrip) {
  Frame f;
  f.type = MsgType::kSubtree;
  SubtreeEntry a{Atom::Intern("answer"), 0, false, NodeId()};
  SubtreeEntry b{Atom::Intern("med_home"), 1, true, NodeId("h", {int64_t{4}})};
  f.entries = {a, b};
  Frame g = RoundTrip(f);
  ASSERT_EQ(g.entries.size(), 2u);
  EXPECT_EQ(g.entries[0].label, a.label);
  EXPECT_EQ(g.entries[0].depth, 0);
  EXPECT_FALSE(g.entries[0].truncated);
  EXPECT_FALSE(g.entries[0].id.valid());
  EXPECT_EQ(g.entries[1].label, b.label);
  EXPECT_EQ(g.entries[1].depth, 1);
  EXPECT_TRUE(g.entries[1].truncated);
  EXPECT_EQ(g.entries[1].id, b.id);
}

TEST(WireCodecTest, FragmentsAndHoleFillsRoundTrip) {
  Frame f;
  f.type = MsgType::kLxpFills;
  Fragment tree = Fragment::Element(
      "home", {Fragment::Element("zip", {Fragment::Text("91220")}),
               Fragment::Hole("x:3:0")});
  f.hole_fills.push_back({"h0", {tree, Fragment::Hole("x:9:2")}});
  f.hole_fills.push_back({"h1", {}});
  Frame g = RoundTrip(f);
  ASSERT_EQ(g.hole_fills.size(), 2u);
  EXPECT_EQ(g.hole_fills[0].hole_id, "h0");
  ASSERT_EQ(g.hole_fills[0].fragments.size(), 2u);
  EXPECT_EQ(g.hole_fills[0].fragments[0].ToTerm(), tree.ToTerm());
  EXPECT_TRUE(g.hole_fills[0].fragments[1].is_hole);
  EXPECT_EQ(g.hole_fills[0].fragments[1].hole_id, "x:9:2");
  EXPECT_TRUE(g.hole_fills[1].fragments.empty());
}

TEST(WireCodecTest, ErrorFrameCarriesStatus) {
  Frame f = Frame::Error(Status::Unavailable("queue full"));
  Frame g = RoundTrip(f);
  Status s = g.ToStatus();
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_EQ(s.message(), "queue full");
  // Non-error frames map to OK.
  Frame ok;
  ok.type = MsgType::kCloseOk;
  EXPECT_TRUE(RoundTrip(ok).ToStatus().ok());
}

// --- negative decoding: every case is a Status, never a death ------------

TEST(WireDecodeTest, TruncatedHeader) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  for (size_t n = 0; n < 8 && n < bytes.size(); ++n) {
    Result<Frame> r = DecodeFrame(bytes.substr(0, n));
    EXPECT_FALSE(r.ok()) << "prefix length " << n;
  }
}

TEST(WireDecodeTest, TruncatedPayloadEveryPrefix) {
  Frame f;
  f.type = MsgType::kDown;
  f.session = 3;
  f.node = NodeId("b", {int64_t{1}, std::string("H"), NodeId("src", {int64_t{2}})});
  std::string bytes = EncodeFrame(f);
  // Every strict prefix must fail cleanly (either "truncated header",
  // "truncated payload", or an in-payload bounds error).
  for (size_t n = 0; n < bytes.size(); ++n) {
    Result<Frame> r = DecodeFrame(bytes.substr(0, n));
    EXPECT_FALSE(r.ok()) << "prefix length " << n;
  }
  EXPECT_TRUE(DecodeFrame(bytes).ok());
}

TEST(WireDecodeTest, BadMagicAndVersion) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  std::string bad = bytes;
  bad[4] = 'Z';
  EXPECT_FALSE(DecodeFrame(bad).ok());
  bad = bytes;
  bad[6] = 9;  // version
  EXPECT_FALSE(DecodeFrame(bad).ok());
}

TEST(WireDecodeTest, CorruptTypeTag) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  for (uint8_t t : {uint8_t{0}, uint8_t{63}, uint8_t{200}, uint8_t{255}}) {
    std::string bad = bytes;
    bad[7] = static_cast<char>(t);
    Result<Frame> r = DecodeFrame(bad);
    EXPECT_FALSE(r.ok()) << "type " << int(t);
  }
}

TEST(WireDecodeTest, OversizedDeclaredPayload) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  // Declared length beyond the hard cap.
  std::string bad = bytes;
  uint32_t huge = (16u << 20) + 1;
  for (int i = 0; i < 4; ++i) bad[i] = static_cast<char>(huge >> (8 * i));
  EXPECT_FALSE(DecodeFrame(bad).ok());
  // Declared length larger than the buffer actually is.
  bad = bytes;
  uint32_t bigger = static_cast<uint32_t>(bytes.size());  // > real payload
  for (int i = 0; i < 4; ++i) bad[i] = static_cast<char>(bigger >> (8 * i));
  EXPECT_FALSE(DecodeFrame(bad).ok());
}

TEST(WireDecodeTest, TrailingBytesRejectedUnlessConsumedRequested) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  std::string padded = bytes + "xyz";
  EXPECT_FALSE(DecodeFrame(padded).ok());
  size_t consumed = 0;
  Result<Frame> r = DecodeFrame(padded, &consumed);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(consumed, bytes.size());
}

TEST(WireDecodeTest, StringLengthBomb) {
  Frame f;
  f.type = MsgType::kOpen;
  f.text = "CONSTRUCT";
  std::string bytes = EncodeFrame(f);
  // The `text` length prefix sits after session/deadline/number/number2 and
  // the flag byte: header(8) + 8*4 + 1.
  size_t text_len_at = 8 + 33;
  ASSERT_LT(text_len_at + 4, bytes.size());
  for (uint32_t bomb : {0xffffffffu, 1u << 24, static_cast<uint32_t>(bytes.size())}) {
    std::string bad = bytes;
    for (int i = 0; i < 4; ++i) {
      bad[text_len_at + static_cast<size_t>(i)] =
          static_cast<char>(bomb >> (8 * i));
    }
    Result<Frame> r = DecodeFrame(bad);
    EXPECT_FALSE(r.ok()) << "bomb " << bomb;
  }
}

TEST(WireDecodeTest, ListCountBombRejectedBeforeAllocation) {
  // A hand-built frame claiming 2^20 node-list entries in a tiny payload
  // must fail on the count check, not OOM or crash.
  Frame f;
  f.type = MsgType::kNodeList;
  std::string bytes = EncodeFrame(f);
  // nodes list count follows: fixed(33) + text(4) + text2(4) + node(1).
  size_t nodes_len_at = 8 + 33 + 4 + 4 + 1;
  ASSERT_LT(nodes_len_at + 4, bytes.size());
  std::string bad = bytes;
  uint32_t bomb = 1u << 20;
  for (int i = 0; i < 4; ++i) {
    bad[nodes_len_at + static_cast<size_t>(i)] = static_cast<char>(bomb >> (8 * i));
  }
  EXPECT_FALSE(DecodeFrame(bad).ok());
}

TEST(WireDecodeTest, DepthBombNodeId) {
  // Encode a legitimate deep id at the limit, then push past it by nesting
  // raw bytes: decode must refuse without recursing unboundedly.
  NodeId deep("d");
  for (int i = 0; i < kMaxTermDepth + 8; ++i) deep = NodeId("d", {deep});
  Frame f;
  f.type = MsgType::kDown;
  f.session = 1;
  f.node = deep;
  std::string bytes = EncodeFrame(f);
  Result<Frame> r = DecodeFrame(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("deep"), std::string::npos);
}

TEST(WireDecodeTest, DepthBombFragment) {
  Fragment deep = Fragment::Element("x");
  for (int i = 0; i < kMaxTermDepth + 8; ++i) {
    deep = Fragment::Element("x", {deep});
  }
  Frame f;
  f.type = MsgType::kLxpFills;
  f.hole_fills.push_back({"h0", {deep}});
  Result<Frame> r = DecodeFrame(EncodeFrame(f));
  EXPECT_FALSE(r.ok());
}

// The single-hole fill pair of wire version 1 (kLxpFill = 13, kLxpFillResp
// = 72) is retired — a one-hole kLxpFillMany is the same exchange — so
// those tags decode, and peek, as typed errors like any unknown tag.
TEST(WireDecodeTest, RetiredSingleFillTypesAreRejected) {
  std::string bytes = EncodeFrame(Frame::Error(Status::OK()));
  for (uint8_t t : {uint8_t{13}, uint8_t{72}}) {
    std::string bad = bytes;
    bad[7] = static_cast<char>(t);
    Result<Frame> r = DecodeFrame(bad);
    ASSERT_FALSE(r.ok()) << "type " << int(t);
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(r.status().message().find("unknown frame type " +
                                        std::to_string(t)),
              std::string::npos);
    size_t size = 0;
    Status peek_error;
    EXPECT_EQ(PeekFrame(bad, &size, &peek_error), FramePeek::kCorrupt);
    EXPECT_EQ(peek_error.code(), Status::Code::kInvalidArgument);
  }
}

TEST(WireDecodeTest, GarbageBytes) {
  // Fuzz-shaped sanity: deterministic pseudo-random buffers never crash.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int round = 0; round < 200; ++round) {
    size_t len = (state >> 17) % 200;
    std::string junk;
    junk.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      junk.push_back(static_cast<char>(state >> 33));
    }
    DecodeFrame(junk);  // outcome irrelevant; must not die
  }
  SUCCEED();
}

TEST(WireDecodeTest, UnknownComponentKind) {
  Frame f;
  f.type = MsgType::kDown;
  f.session = 1;
  f.node = NodeId("n", {int64_t{7}});
  std::string bytes = EncodeFrame(f);
  // Component kind byte of the first component: after fixed(33) + text(4) +
  // text2(4) + node{valid(1) + tag(4+1) + arity(4)}.
  size_t kind_at = 8 + 33 + 4 + 4 + 1 + 5 + 4;
  ASSERT_LT(kind_at, bytes.size());
  std::string bad = bytes;
  bad[kind_at] = 7;
  Result<Frame> r = DecodeFrame(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("component"), std::string::npos);
}

}  // namespace
}  // namespace mix::service::wire
