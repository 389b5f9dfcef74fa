// Async fill engine tests (DESIGN.md §4 "Async fill engine"):
//
//   * FillFuture primitives — first-writer-wins completion, inline
//     callbacks;
//   * readahead equivalence — a buffer with a concurrent readahead window
//     materializes byte-identically to the demand-only baseline, on clean
//     sources AND under the fault matrix (p ∈ {0.05, 0.2} × seeds);
//   * degraded holes stay isolated with readahead on;
//   * a flight response that breaks the LXP protocol is rejected before
//     any splice and falls back to the demand path;
//   * chain-aware flights — a flight chases up to its chase depth along
//     a continuation chain (slow start 1, 2, 4, ... up to the window),
//     splices what a window-0 buffer would, restarts at depth 1 after a
//     fallback, and is never issued for a hole the fragment cache holds;
//   * breadth flights — a flight carries up to its chase depth of queued
//     nested holes; a batch skips requested holes one consumed flight
//     already spliced; a flight whose hole another path fills first is
//     dropped whole; one spoiled entry rejects a multi-hole flight whole;
//   * TcpFrameTransport::RoundTripAsync — concurrent submissions complete
//     exactly once, coalesce into pipelined batches, and teardown with ops
//     pending fails them instead of dropping them;
//   * closing a session with readahead flights outstanding over TCP;
//   * thread-safe Channel/SimClock accounting under concurrent senders.
//
// The whole file is in the CI TSan run: it exercises every cross-thread
// edge the engine added (dispatch thread vs. submitters, flights abandoned
// at session close, concurrent channel charging).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "buffer/async_fill.h"
#include "buffer/buffer.h"
#include "buffer/fault_wrapper.h"
#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "net/fault.h"
#include "net/sim_net.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace mix::service {
namespace {

using buffer::BufferComponent;
using buffer::FaultyLxpWrapper;
using buffer::FillBudget;
using buffer::FillFuture;
using buffer::Fragment;
using buffer::FragmentList;
using buffer::HoleFill;
using buffer::HoleFillList;
using buffer::LxpWrapper;
using buffer::ScriptedLxpWrapper;
using client::FramedDocument;
using net::tcp::TcpFrameTransport;
using net::tcp::TcpServer;
using net::tcp::TcpTransportOptions;
using wire::Frame;
using wire::MsgType;

// The Fig. 3 running example (same fixture as tests/service_test.cc).
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

const char* kExpectedAnswer =
    "answer["
    "med_home[home[addr[La Jolla],zip[91220]],"
    "school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]]],"
    "med_home[home[addr[El Cajon],zip[91223]],school[dir[Hart],zip[91223]]]]";

/// A wide homes document (`n` homes, distinct addresses) — enough children
/// that chunked fills leave a deep hole queue for readahead.
std::string WideHomesTerm(int n) {
  std::string term = "homes[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) term += ',';
    term += "home[addr[A" + std::to_string(i) + "],zip[" +
            std::to_string(91000 + i) + "]]";
  }
  term += ']';
  return term;
}

/// Single-source scan of every home — navigation demand-fills incrementally,
/// so readahead actually has holes to run ahead on.
const char* kScanQuery = R"(
CONSTRUCT <all> $H {$H} </all> {}
WHERE homesSrc homes.home $H
)";

// ---------------------------------------------------------------------------
// Primitives: FillFuture.
// ---------------------------------------------------------------------------

TEST(FillFutureTest, FirstCompletionWinsAndWaitMovesOnce) {
  auto future = std::make_shared<FillFuture>();
  EXPECT_FALSE(future->Ready());

  HoleFillList fills;
  fills.push_back(HoleFill{"h1", {Fragment::Element("a")}});
  future->Complete(Status::OK(), std::move(fills));
  EXPECT_TRUE(future->Ready());
  // Second completion is a no-op (a transport failing its pending futures
  // must not clobber one that raced a real response).
  future->Complete(Status::Unavailable("late loser"), {});

  HoleFillList out;
  EXPECT_TRUE(future->Wait(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].hole_id, "h1");
  // A second Wait sees the same status but the list was already moved out.
  HoleFillList again;
  EXPECT_TRUE(future->Wait(&again).ok());
  EXPECT_TRUE(again.empty());
}

TEST(FillFutureTest, WaitBlocksUntilCompletedFromAnotherThread) {
  auto future = std::make_shared<FillFuture>();
  std::thread completer([future] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    future->Complete(Status::Unavailable("boom"), {});
  });
  HoleFillList out;
  Status s = future->Wait(&out);
  completer.join();
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
}

TEST(FillFutureTest, CallbackFiresInlineWhenAlreadyComplete) {
  auto future = FillFuture::Resolved(Status::OK(), {});
  bool fired = false;
  future->OnComplete([&fired](const Status& s, const HoleFillList&) {
    fired = s.ok();
  });
  EXPECT_TRUE(fired);
}

TEST(FillFutureTest, CallbackKeepsResponseWhileWaiterTakesIt) {
  // Complete wakes waiters before it runs the callback, and a waiter moves
  // the response out. The callback here reads its list only after the
  // waiter has taken its own: it must still see every fill (and, under
  // TSan, without a data race on the future's list).
  auto future = std::make_shared<FillFuture>();
  std::atomic<bool> waiter_done{false};
  size_t callback_saw = 0;
  future->OnComplete([&](const Status& s, const HoleFillList& fills) {
    ASSERT_TRUE(s.ok());
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!waiter_done.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    callback_saw = fills.size();
  });
  HoleFillList taken;
  std::thread waiter([&] {
    EXPECT_TRUE(future->Wait(&taken).ok());
    waiter_done = true;
  });
  HoleFillList fills;
  for (int i = 0; i < 16; ++i) {
    fills.push_back(
        HoleFill{"h" + std::to_string(i), {Fragment::Element("a")}});
  }
  future->Complete(Status::OK(), std::move(fills));
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  EXPECT_EQ(taken.size(), 16u);
  EXPECT_EQ(callback_saw, 16u);
}

// ---------------------------------------------------------------------------
// Readahead equivalence: async window == demand-only, byte for byte.
// ---------------------------------------------------------------------------

TEST(ReadaheadTest, ByteIdenticalToDemandOnlyAcrossWindowSizes) {
  auto homes = testing::Doc(WideHomesTerm(24));
  wrappers::XmlLxpWrapper clean(homes.get());
  BufferComponent baseline(&clean, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  for (int window : {1, 2, 4, 8}) {
    wrappers::XmlLxpWrapper wrapper(homes.get());
    BufferComponent::Options opts;
    opts.max_in_flight = window;
    BufferComponent buf(&wrapper, "homes.xml", opts);
    EXPECT_EQ(testing::MaterializeToTerm(&buf), expected)
        << "window=" << window;
    BufferComponent::Stats st = buf.stats();
    EXPECT_GT(st.readahead_issued, 0) << "window=" << window;
    EXPECT_GT(st.readahead_hits, 0) << "window=" << window;
    EXPECT_LE(st.readahead_hits + st.readahead_fallbacks, st.readahead_issued);
    EXPECT_EQ(st.degraded_holes, 0);
    EXPECT_TRUE(buf.TakeStatus().ok());
  }
}

/// Materializes a wide homes source through a fault-injecting wrapper at
/// readahead window `window`, for p ∈ {0.05, 0.2} × four seeds, and checks
/// every answer against the fault-free demand-only one. Returns the summed
/// buffer stats.
BufferComponent::Stats ExpectByteIdenticalUnderFaultMatrix(int window) {
  auto homes = testing::Doc(WideHomesTerm(16));
  wrappers::XmlLxpWrapper clean(homes.get());
  BufferComponent baseline(&clean, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  BufferComponent::Stats total;
  for (double p : {0.05, 0.2}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      wrappers::XmlLxpWrapper inner(homes.get());
      net::FaultSpec spec;
      spec.p_fail = p;
      spec.p_truncate = p / 2;
      spec.p_garble = p / 2;
      spec.p_duplicate = p / 2;
      spec.p_delay = p;
      FaultyLxpWrapper faulty(&inner, spec, seed);
      net::SimClock clock;
      faulty.AttachClock(&clock);

      BufferComponent::Options opts;
      opts.clock = &clock;
      opts.retry.max_attempts = 10;
      opts.retry_seed = seed ^ 0xabcdefull;
      opts.max_in_flight = window;
      BufferComponent buf(&faulty, "homes.xml", opts);

      // A faulted readahead flight falls back to the demand path, whose
      // retries absorb it — the answer never changes.
      EXPECT_EQ(testing::MaterializeToTerm(&buf), expected)
          << "window=" << window << " p=" << p << " seed=" << seed;
      BufferComponent::Stats st = buf.stats();
      EXPECT_EQ(st.degraded_holes, 0);
      EXPECT_TRUE(buf.TakeStatus().ok());
      total.faults += st.faults;
      total.readahead_issued += st.readahead_issued;
      total.readahead_holes += st.readahead_holes;
      total.readahead_fallbacks += st.readahead_fallbacks;
    }
  }
  return total;
}

TEST(ReadaheadTest, ByteIdenticalUnderFaultMatrix) {
  BufferComponent::Stats total = ExpectByteIdenticalUnderFaultMatrix(3);
  EXPECT_GT(total.faults, 0);
  EXPECT_GT(total.readahead_fallbacks, 0);  // some flights definitely failed
}

/// Fails every exchange touching one specific hole id (demand fills and
/// readahead flights both route through TryFillMany here).
class SelectiveFailWrapper : public LxpWrapper {
 public:
  SelectiveFailWrapper(LxpWrapper* inner, std::string bad_hole)
      : inner_(inner), bad_(std::move(bad_hole)) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    for (const std::string& h : holes) {
      if (h == bad_) return Status::Unavailable("source refused " + bad_);
    }
    return inner_->TryFillMany(holes, budget, out);
  }

 private:
  LxpWrapper* inner_;
  std::string bad_;
};

/// Records every hole id requested through TryFillMany (to pick a real,
/// mid-document hole for the selective-failure runs below).
class RecordingWrapper : public LxpWrapper {
 public:
  explicit RecordingWrapper(LxpWrapper* inner) : inner_(inner) {}
  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    for (const std::string& h : holes) seen.push_back(h);
    return inner_->TryFillMany(holes, budget, out);
  }
  std::vector<std::string> seen;

 private:
  LxpWrapper* inner_;
};

TEST(ReadaheadTest, DegradedHoleStaysIsolatedWithReadahead) {
  auto homes = testing::Doc(WideHomesTerm(12));

  // Pick a hole the dialogue actually requests, away from the root.
  std::string bad;
  {
    wrappers::XmlLxpWrapper probe_inner(homes.get());
    RecordingWrapper probe(&probe_inner);
    BufferComponent buf(&probe, "homes.xml");
    (void)testing::MaterializeToTerm(&buf);
    ASSERT_GT(probe.seen.size(), 4u);
    bad = probe.seen[probe.seen.size() / 2];
  }

  wrappers::XmlLxpWrapper clean(homes.get());
  SelectiveFailWrapper baseline_wrapper(&clean, bad);
  net::SimClock baseline_clock;
  BufferComponent::Options baseline_opts;
  baseline_opts.clock = &baseline_clock;
  baseline_opts.retry.max_attempts = 2;
  baseline_opts.retry.jitter = 0;
  BufferComponent baseline(&baseline_wrapper, "homes.xml", baseline_opts);
  const std::string expected = testing::MaterializeToTerm(&baseline);
  ASSERT_NE(expected.find("#unavailable"), std::string::npos);

  wrappers::XmlLxpWrapper inner(homes.get());
  SelectiveFailWrapper wrapper(&inner, bad);
  net::SimClock clock;
  BufferComponent::Options opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 2;
  opts.retry.jitter = 0;
  opts.max_in_flight = 4;
  BufferComponent buf(&wrapper, "homes.xml", opts);

  // Same degraded answer: the broken hole becomes #unavailable on the
  // demand path (after its readahead flight failed), everything around it
  // is intact, and exactly as many holes degrade as without readahead.
  EXPECT_EQ(testing::MaterializeToTerm(&buf), expected);
  EXPECT_EQ(buf.stats().degraded_holes, baseline.stats().degraded_holes);
  EXPECT_FALSE(buf.TakeStatus().ok());
}

/// r[a0[v0],a1[v1],a2[v2],a3[v3]] served in continuation chunks: fill c<i>
/// answers a<i> (whose child is the hole d<i>) plus the continuation hole
/// c<i+1>.
ScriptedLxpWrapper MakeChunkedScript() {
  constexpr int kItems = 4;
  std::map<std::string, FragmentList> fills;
  for (int i = 0; i < kItems; ++i) {
    const std::string n = std::to_string(i);
    FragmentList chunk = {Fragment::Element("a" + n, {Fragment::Hole("d" + n)})};
    if (i + 1 < kItems) {
      chunk.push_back(Fragment::Hole("c" + std::to_string(i + 1)));
    }
    fills["c" + n] = i == 0 ? FragmentList{Fragment::Element("r", chunk)}
                            : chunk;
    fills["d" + n] = {Fragment::Element("v" + n)};
  }
  return ScriptedLxpWrapper("c0", std::move(fills));
}

enum class BadFlight { kAdjacentHoles, kReusedOpenTreeId, kUnrequestedEntry };

/// Answers every readahead flight (a BeginFillMany with a one-fill budget)
/// with a response that breaks the LXP protocol; demand exchanges reach the
/// inner wrapper untouched.
class BadFlightWrapper : public LxpWrapper {
 public:
  BadFlightWrapper(LxpWrapper* inner, BadFlight mode)
      : inner_(inner), mode_(mode) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    return inner_->TryFillMany(holes, budget, out);
  }
  std::shared_ptr<FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const FillBudget& budget) override {
    if (budget.fills != 1) return inner_->BeginFillMany(holes, budget);
    const std::string& id = holes.front();
    HoleFillList bad;
    switch (mode_) {
      case BadFlight::kAdjacentHoles:
        bad.push_back(HoleFill{id, {Fragment::Element("x"), Fragment::Hole("z1"),
                                    Fragment::Hole("z2")}});
        break;
      case BadFlight::kReusedOpenTreeId:
        // The requested hole stays in the open tree until its entry splices.
        bad.push_back(HoleFill{id, {Fragment::Element("x"), Fragment::Hole(id)}});
        break;
      case BadFlight::kUnrequestedEntry: {
        // A correct entry, then one for a hole nobody asked for: for d<i>
        // that is c<i+1>, still outstanding in the open tree when the
        // flight lands (the walk descends before it moves right).
        FragmentList good;
        EXPECT_TRUE(inner_->TryFill(id, &good).ok());
        bad.push_back(HoleFill{id, std::move(good)});
        const std::string other =
            id[0] == 'd' ? "c" + std::to_string(std::stoi(id.substr(1)) + 1)
                         : "ghost";
        bad.push_back(HoleFill{other, {Fragment::Element("bogus")}});
        break;
      }
    }
    return FillFuture::Resolved(Status::OK(), std::move(bad));
  }

 private:
  LxpWrapper* inner_;
  BadFlight mode_;
};

/// Explores the whole view with single-node d/r commands (down before
/// right) and records the open tree after each one.
std::vector<std::string> OpenTreeTrace(BufferComponent* buf) {
  std::vector<std::string> trace;
  std::vector<NodeId> stack = {buf->Root()};
  trace.push_back(buf->OpenTreeTerm());
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    std::optional<NodeId> down = buf->Down(n);
    trace.push_back(buf->OpenTreeTerm());
    std::optional<NodeId> right = buf->Right(n);
    trace.push_back(buf->OpenTreeTerm());
    if (right.has_value()) stack.push_back(*right);
    if (down.has_value()) stack.push_back(*down);
  }
  return trace;
}

TEST(ReadaheadTest, ProtocolBreakingFlightIsRejectedBeforeSplice) {
  ScriptedLxpWrapper clean = MakeChunkedScript();
  BufferComponent baseline(&clean, "u");
  const std::vector<std::string> expected = OpenTreeTrace(&baseline);
  ASSERT_EQ(expected.back(), "[r[a0[v0],a1[v1],a2[v2],a3[v3]]]");

  for (BadFlight mode : {BadFlight::kAdjacentHoles,
                         BadFlight::kReusedOpenTreeId,
                         BadFlight::kUnrequestedEntry}) {
    ScriptedLxpWrapper inner = MakeChunkedScript();
    BadFlightWrapper wrapper(&inner, mode);
    BufferComponent::Options opts;
    opts.max_in_flight = 2;
    BufferComponent buf(&wrapper, "u", opts);
    // After every command the open tree equals the window-0 one: no flight
    // splices anything, the demand path answers each hole instead.
    EXPECT_EQ(OpenTreeTrace(&buf), expected)
        << "mode=" << static_cast<int>(mode);
    BufferComponent::Stats st = buf.stats();
    EXPECT_EQ(st.readahead_hits, 0);
    EXPECT_GT(st.readahead_fallbacks, 0);
    EXPECT_EQ(st.fills, baseline.stats().fills);
    EXPECT_EQ(st.degraded_holes, 0);
    EXPECT_TRUE(buf.TakeStatus().ok());
  }
}

// ---------------------------------------------------------------------------
// Chain-aware flights: a flight chases its continuation holes, with a chase
// depth that slow-starts from 1 to the window size.
// ---------------------------------------------------------------------------

constexpr int kChainFills = 40;
constexpr int kChainRows = 10;

/// What a flight response gets turned into (see ChainWrapper::spoil).
enum class Spoil { kNone, kFail, kAdjacentHoles, kForeignChasedEntry };

/// A continuation chain as a relational scan serves it: the root hole r
/// answers scan[hole c0], and fill c<i> answers kChainRows rows plus the
/// continuation hole c<i+1> (the last fill has none). FillMany chases like
/// the concrete wrappers (ChaseFills). Counts every exchange, records the
/// hole of each single-hole demand fill (a one-hole BeginFillMany asking
/// for one element) and each readahead flight (a BeginFillMany with a fill
/// budget) with its hole and budget; flight number `spoil_flight` is
/// answered per `spoil`.
class ChainWrapper : public LxpWrapper {
 public:
  std::string GetRoot(const std::string& uri) override {
    (void)uri;
    ++exchanges;
    return "r";
  }
  FragmentList Fill(const std::string& hole_id) override {
    if (hole_id == "r") return {Fragment::Element("scan", {Fragment::Hole("c0")})};
    const int i = std::stoi(hole_id.substr(1));
    FragmentList rows;
    for (int j = 0; j < kChainRows; ++j) {
      rows.push_back(Fragment::Element("t" + std::to_string(i * kChainRows + j)));
    }
    if (i + 1 < kChainFills) rows.push_back(Fragment::Hole(Chain(i + 1)));
    return rows;
  }
  HoleFillList FillMany(const std::vector<std::string>& holes,
                        const FillBudget& budget) override {
    return ChaseFills(holes, budget);
  }
  std::shared_ptr<FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const FillBudget& budget) override {
    ++exchanges;
    if (budget.fills < 0) {
      if (holes.size() == 1 && budget.elements == 1) {
        demand_fills.push_back(holes.front());
      }
      return LxpWrapper::BeginFillMany(holes, budget);
    }
    const int flight = static_cast<int>(flights.size());
    flights.push_back({holes.front(), budget.fills});
    if (flight != spoil_flight || spoil == Spoil::kNone) {
      return LxpWrapper::BeginFillMany(holes, budget);
    }
    HoleFillList fills = FillMany(holes, budget);
    switch (spoil) {
      case Spoil::kFail:
        return FillFuture::Resolved(Status::Unavailable("flight lost"), {});
      case Spoil::kAdjacentHoles:
        fills.front().fragments.push_back(Fragment::Hole("z1"));
        fills.front().fragments.push_back(Fragment::Hole("z2"));
        break;
      case Spoil::kForeignChasedEntry: {
        // After the genuine entries, one for a hole of the chain that no
        // entry of this response introduced (and nobody requested).
        const int next = std::stoi(fills.back().hole_id.substr(1)) + 2;
        fills.push_back(HoleFill{Chain(next), Fill(Chain(next))});
        break;
      }
      case Spoil::kNone:
        break;
    }
    return FillFuture::Resolved(Status::OK(), std::move(fills));
  }

  static std::string Chain(int i) { return "c" + std::to_string(i); }
  std::vector<int64_t> FlightBudgets() const {
    std::vector<int64_t> out;
    for (const auto& f : flights) out.push_back(f.second);
    return out;
  }

  int exchanges = 0;
  std::vector<std::string> demand_fills;
  std::vector<std::pair<std::string, int64_t>> flights;
  int spoil_flight = -1;
  Spoil spoil = Spoil::kNone;
};

/// True when every open tree of `trace` is one `baseline` passes through,
/// in the same order: the same fills were spliced with the same hole ids,
/// some of them several per command.
bool FollowsBaseline(const std::vector<std::string>& trace,
                     const std::vector<std::string>& baseline) {
  size_t j = 0;
  for (const std::string& tree : trace) {
    while (j < baseline.size() && baseline[j] != tree) ++j;
    if (j == baseline.size()) return false;
  }
  return true;
}

TEST(ChainReadaheadTest, FlightsChaseTheChainWithSlowStart) {
  ChainWrapper baseline_wrapper;
  BufferComponent baseline(&baseline_wrapper, "u");
  const std::vector<std::string> expected = OpenTreeTrace(&baseline);
  ASSERT_EQ(baseline_wrapper.exchanges, 2 + kChainFills);  // root + r + c*
  ASSERT_TRUE(baseline_wrapper.flights.empty());

  struct Case {
    int window;
    int exchanges;
    std::vector<int64_t> budgets;
  };
  const std::vector<int64_t> ones(kChainFills, 1);
  std::vector<int64_t> twos(21, 2);
  twos.front() = 1;  // 1 + 19 * 2 + 2 (the last flight finds one fill)
  std::vector<int64_t> fours(12, 4);
  fours[0] = 1;  // 1 + 2 + 9 * 4 + 4 (the last flight finds one fill)
  fours[1] = 2;
  for (const Case& c : {Case{1, 2 + kChainFills, ones}, Case{2, 2 + 21, twos},
                        Case{4, 2 + 12, fours}}) {
    ChainWrapper wrapper;
    BufferComponent::Options opts;
    opts.max_in_flight = c.window;
    BufferComponent buf(&wrapper, "u", opts);
    const std::vector<std::string> trace = OpenTreeTrace(&buf);
    EXPECT_TRUE(FollowsBaseline(trace, expected)) << "window=" << c.window;
    EXPECT_EQ(trace.back(), expected.back()) << "window=" << c.window;
    if (c.window == 1) {
      // One fill per flight, consumed when the walk reaches its hole:
      // every intermediate open tree is window 0's.
      EXPECT_EQ(trace, expected);
    }
    EXPECT_EQ(wrapper.exchanges, c.exchanges) << "window=" << c.window;
    EXPECT_EQ(wrapper.FlightBudgets(), c.budgets) << "window=" << c.window;
    // Only the root hole r is a demand fill; every chain fill came by a
    // flight, the last one shorter than its budget (end of the chain).
    EXPECT_EQ(wrapper.demand_fills, std::vector<std::string>{"r"});
    BufferComponent::Stats st = buf.stats();
    EXPECT_EQ(st.fills, baseline.stats().fills);
    EXPECT_EQ(st.readahead_issued, static_cast<int64_t>(c.budgets.size()));
    EXPECT_EQ(st.readahead_hits, st.readahead_issued);
    EXPECT_EQ(st.readahead_fills, kChainFills);
    EXPECT_EQ(st.readahead_fallbacks, 0);
    EXPECT_TRUE(buf.TakeStatus().ok());
  }
}

TEST(ChainReadaheadTest, SpoiledFlightFallsBackAndResetsChaseDepth) {
  ChainWrapper baseline_wrapper;
  BufferComponent baseline(&baseline_wrapper, "u");
  const std::vector<std::string> expected = OpenTreeTrace(&baseline);

  for (Spoil spoil :
       {Spoil::kFail, Spoil::kAdjacentHoles, Spoil::kForeignChasedEntry}) {
    ChainWrapper wrapper;
    wrapper.spoil_flight = 3;  // the second one chasing 4 fills: c7..c10
    wrapper.spoil = spoil;
    BufferComponent::Options opts;
    opts.max_in_flight = 4;
    BufferComponent buf(&wrapper, "u", opts);
    const std::vector<std::string> trace = OpenTreeTrace(&buf);
    EXPECT_TRUE(FollowsBaseline(trace, expected))
        << "spoil=" << static_cast<int>(spoil);
    EXPECT_EQ(trace.back(), expected.back());
    // The spoiled response is rejected as a whole — none of its entries is
    // spliced — so the demand path fills its hole c7 with one exchange,
    // and the next flight starts over at one fill: c8, c9..c10, c11..c14,
    // ... up to c39.
    EXPECT_EQ(wrapper.demand_fills, (std::vector<std::string>{"r", "c7"}))
        << "spoil=" << static_cast<int>(spoil);
    const std::vector<int64_t> budgets = {1, 2, 4, 4, 1, 2, 4,
                                          4, 4, 4, 4, 4, 4, 4};
    EXPECT_EQ(wrapper.FlightBudgets(), budgets)
        << "spoil=" << static_cast<int>(spoil);
    ASSERT_GT(wrapper.flights.size(), 4u);
    EXPECT_EQ(wrapper.flights[3].first, "c7");
    EXPECT_EQ(wrapper.flights[4].first, "c8");
    BufferComponent::Stats st = buf.stats();
    EXPECT_EQ(st.readahead_fallbacks, 1);
    EXPECT_EQ(st.readahead_hits, st.readahead_issued - 1);
    EXPECT_EQ(st.readahead_fills, kChainFills - 1);
    EXPECT_EQ(st.fills, baseline.stats().fills);
    EXPECT_EQ(st.degraded_holes, 0);
    EXPECT_TRUE(buf.TakeStatus().ok());
  }
}

TEST(ChainReadaheadTest, CachedHolesGetNoFlightAndTheWindowRefillsAfterAHit) {
  // The shared cache holds c1..c9 (as a session with any window would have
  // published them), not the root, c0, or anything after c9.
  buffer::SourceCache cache;
  {
    ChainWrapper publisher;
    for (int i = 1; i <= 9; ++i) {
      cache.PublishFill("chain", 0, ChainWrapper::Chain(i),
                        publisher.Fill(ChainWrapper::Chain(i)));
    }
  }
  ChainWrapper baseline_wrapper;
  BufferComponent baseline(&baseline_wrapper, "u");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  ChainWrapper wrapper;
  BufferComponent::Options opts;
  opts.max_in_flight = 4;
  opts.source_cache = &cache;
  opts.cache_source = "chain";
  BufferComponent buf(&wrapper, "u", opts);
  NodeId root = buf.Root();
  std::optional<NodeId> row = buf.Down(root);
  ASSERT_TRUE(row.has_value());
  int rows = 1;
  while ((row = buf.Right(*row)).has_value()) {
    ++rows;
    if (buf.Fetch(*row) == "t90") {
      // Navigation just reached c9, served from the cache: its
      // continuation c10 is already in flight, before anyone asks for it.
      ASSERT_FALSE(wrapper.flights.empty());
      EXPECT_EQ(wrapper.flights.back().first, "c10");
      EXPECT_EQ(buf.stats().readahead_hits + 1, buf.stats().readahead_issued);
    }
  }
  EXPECT_EQ(rows, kChainFills * kChainRows);
  EXPECT_EQ(testing::MaterializeToTerm(&buf), expected);

  // Flights: c0 (1), c10..c11 (2), then four fills each from c12 to c39.
  // None for c1..c9, and no demand fill besides the root hole.
  std::vector<std::string> flown;
  for (const auto& f : wrapper.flights) flown.push_back(f.first);
  EXPECT_EQ(flown, (std::vector<std::string>{"c0", "c10", "c12", "c16", "c20",
                                             "c24", "c28", "c32", "c36"}));
  EXPECT_EQ(wrapper.demand_fills, std::vector<std::string>{"r"});
  EXPECT_EQ(wrapper.exchanges, 2 + 9);
  BufferComponent::Stats st = buf.stats();
  EXPECT_EQ(st.cache_hits, 9);
  // One counted lookup per hole that missed: the root id, the root hole
  // and the nine holes that got a flight.
  EXPECT_EQ(st.cache_misses, 11);
  EXPECT_EQ(st.readahead_hits, 9);
  EXPECT_EQ(st.readahead_fills, kChainFills - 9);
  EXPECT_EQ(st.readahead_fallbacks, 0);
  EXPECT_EQ(st.fills, baseline.stats().fills);
}

// ---------------------------------------------------------------------------
// Breadth readahead: one flight carries up to its chase depth of queued
// holes, so nested holes without a chain share an exchange too.
// ---------------------------------------------------------------------------

/// Passes every exchange to `inner`, recording the hole list of each
/// readahead flight (a BeginFillMany with a fill budget) and every hole a
/// demand exchange asked for. With `spoil_multi_hole_flights`, a flight of
/// two or more holes is answered with its second entry broken (two
/// adjacent holes) — a response that must be rejected as a whole.
class FlightLogWrapper : public LxpWrapper {
 public:
  explicit FlightLogWrapper(LxpWrapper* inner) : inner_(inner) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    return inner_->TryFillMany(holes, budget, out);
  }
  std::shared_ptr<FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const FillBudget& budget) override {
    if (budget.fills < 0) {
      demand_holes.insert(demand_holes.end(), holes.begin(), holes.end());
      return inner_->BeginFillMany(holes, budget);
    }
    flights.push_back(holes);
    if (!spoil_multi_hole_flights || holes.size() < 2) {
      return inner_->BeginFillMany(holes, budget);
    }
    HoleFillList fills;
    EXPECT_TRUE(inner_->TryFillMany(holes, budget, &fills).ok());
    fills[1].fragments.push_back(Fragment::Hole("z1"));
    fills[1].fragments.push_back(Fragment::Hole("z2"));
    return FillFuture::Resolved(Status::OK(), std::move(fills));
  }

  std::vector<std::vector<std::string>> flights;
  std::vector<std::string> demand_holes;
  bool spoil_multi_hole_flights = false;

 private:
  LxpWrapper* inner_;
};

/// XmlLxpWrapper hole ids over WideHomesTerm: `x:<node>:<first child>:<end>`
/// with nodes numbered in pre-order, so home i is node 1 + 5i.
std::string HomesListHole(int first, int n) {
  return "x:0:" + std::to_string(first) + ":" + std::to_string(n);
}
std::string HomeHole(int i) { return "x:" + std::to_string(1 + 5 * i) + ":0:2"; }
std::vector<std::string> HomeHoles(int first, int count) {
  std::vector<std::string> out;
  for (int i = first; i < first + count; ++i) out.push_back(HomeHole(i));
  return out;
}

TEST(BreadthReadaheadTest, FlightsCarrySeveralNestedHolesWithSlowStart) {
  // Twelve homes: the root list comes in chunks of 8 (hole x:0:8:12 after
  // home 7) and every home ships as `home[hole]` — nested holes that no
  // chain connects, the shape of a Fig. 3 join's elements.
  constexpr int kHomes = 12;
  auto homes = testing::Doc(WideHomesTerm(kHomes));
  wrappers::XmlLxpWrapper baseline_inner(homes.get());
  BufferComponent baseline(&baseline_inner, "homes.xml");
  const std::vector<std::string> expected = OpenTreeTrace(&baseline);
  using Flights = std::vector<std::vector<std::string>>;

  // Window 1: one hole per flight, as before breadth readahead.
  Flights ones = {{HomesListHole(0, kHomes)}};
  for (int i = 0; i < 8; ++i) ones.push_back({HomeHole(i)});
  ones.push_back({HomesListHole(8, kHomes)});
  for (int i = 8; i < kHomes; ++i) ones.push_back({HomeHole(i)});
  // Window 2: after the first consumed flight every flight carries two.
  const Flights twos = {{HomesListHole(0, kHomes)}, HomeHoles(0, 2),
                        HomeHoles(2, 2),           HomeHoles(4, 2),
                        HomeHoles(6, 2),           {HomesListHole(8, kHomes)},
                        HomeHoles(8, 2),           HomeHoles(10, 2)};
  // Window 4: the first consumed flight doubles the depth to 2 and tops
  // the window up with four two-hole flights; by the time the second
  // chunk's homes are queued the depth is 4, so they fly together.
  const Flights fours = {{HomesListHole(0, kHomes)}, HomeHoles(0, 2),
                         HomeHoles(2, 2),           HomeHoles(4, 2),
                         HomeHoles(6, 2),           {HomesListHole(8, kHomes)},
                         HomeHoles(8, 4)};
  struct Case {
    int window;
    const Flights* flights;
  };
  for (const Case& c : {Case{1, &ones}, Case{2, &twos}, Case{4, &fours}}) {
    wrappers::XmlLxpWrapper inner(homes.get());
    FlightLogWrapper wrapper(&inner);
    BufferComponent::Options opts;
    opts.max_in_flight = c.window;
    BufferComponent buf(&wrapper, "homes.xml", opts);
    const std::vector<std::string> trace = OpenTreeTrace(&buf);
    EXPECT_TRUE(FollowsBaseline(trace, expected)) << "window=" << c.window;
    EXPECT_EQ(trace.back(), expected.back()) << "window=" << c.window;
    EXPECT_EQ(wrapper.flights, *c.flights) << "window=" << c.window;
    // Only the root hole is a demand fill; every flight was consumed whole.
    EXPECT_EQ(wrapper.demand_holes, std::vector<std::string>{"xroot"});
    BufferComponent::Stats st = buf.stats();
    EXPECT_EQ(st.fills, baseline.stats().fills) << "window=" << c.window;
    EXPECT_EQ(st.readahead_issued, static_cast<int64_t>(c.flights->size()));
    EXPECT_EQ(st.readahead_holes, kHomes + 2) << "window=" << c.window;
    EXPECT_EQ(st.readahead_hits, st.readahead_issued);
    EXPECT_EQ(st.readahead_fills, kHomes + 2);
    EXPECT_EQ(st.readahead_fallbacks, 0);
    EXPECT_EQ(st.readahead_orphaned, 0);
    EXPECT_TRUE(buf.TakeStatus().ok());
  }
}

TEST(BreadthReadaheadTest, OneFlightFillingSeveralRequestedHolesDoesNotAbort) {
  // A liberal child list [e1, hole a, e2, hole b] whose two holes ride in
  // one flight: DownAll's batch consumes the flight at `a`, which splices
  // `b` too, and must then skip `b` instead of asserting it is a hole.
  std::map<std::string, FragmentList> fills = {
      {"r", {Fragment::Element("doc", {Fragment::Hole("s")})}},
      {"s",
       {Fragment::Element("p", {Fragment::Element("e1"), Fragment::Hole("a"),
                                Fragment::Element("e2"), Fragment::Hole("b")})}},
      {"a", {Fragment::Element("e3")}},
      {"b", {Fragment::Element("e4")}}};
  ScriptedLxpWrapper inner("r", fills);
  FlightLogWrapper wrapper(&inner);
  BufferComponent::Options opts;
  opts.max_in_flight = 2;
  BufferComponent buf(&wrapper, "u", opts);
  std::optional<NodeId> p = buf.Down(buf.Root());
  ASSERT_TRUE(p.has_value());
  std::vector<NodeId> children;
  buf.DownAll(*p, &children);
  std::vector<std::string> labels;
  for (const NodeId& c : children) labels.push_back(buf.Fetch(c));
  EXPECT_EQ(labels, (std::vector<std::string>{"e1", "e3", "e2", "e4"}));
  EXPECT_EQ(wrapper.flights,
            (std::vector<std::vector<std::string>>{{"s"}, {"a", "b"}}));
  EXPECT_EQ(wrapper.demand_holes, std::vector<std::string>{"r"});
  EXPECT_EQ(buf.stats().readahead_hits, 2);
  EXPECT_EQ(buf.stats().readahead_fallbacks, 0);
  EXPECT_TRUE(buf.TakeStatus().ok());
}

/// doc[z0[hole z], p[hole a, e1, hole y], q1[hole b1], ..., q10[hole b10]]
/// where `a` fills to [e0, hole x, e2[hole q]]. At window 4, DownAll(p)
/// after Down(p) sets `x` aside for the wire, then consumes y's flight,
/// which issues the flight [b10, x, q]: its middle hole is about to be
/// filled (or degraded) by the demand batch.
std::map<std::string, FragmentList> MiddleHoleScript() {
  FragmentList s = {
      Fragment::Element("z0", {Fragment::Hole("z")}),
      Fragment::Element("p", {Fragment::Hole("a"), Fragment::Element("e1"),
                              Fragment::Hole("y")})};
  std::map<std::string, FragmentList> fills;
  for (int i = 1; i <= 10; ++i) {
    const std::string n = std::to_string(i);
    s.push_back(Fragment::Element("q" + n, {Fragment::Hole("b" + n)}));
    fills["b" + n] = {Fragment::Element("w" + n)};
  }
  fills["r"] = {Fragment::Element("doc", {Fragment::Hole("s")})};
  fills["s"] = std::move(s);
  fills["z"] = {Fragment::Element("v")};
  fills["a"] = {Fragment::Element("e0"), Fragment::Hole("x"),
                Fragment::Element("e2", {Fragment::Hole("q")})};
  fills["x"] = {Fragment::Element("e3")};
  fills["q"] = {Fragment::Element("e4")};
  fills["y"] = {Fragment::Element("e5")};
  return fills;
}

/// Root, Down, Right to p, Down(p), DownAll(p), then the rest of the view.
std::string NavigateMiddleHoleScript(BufferComponent* buf) {
  std::optional<NodeId> z0 = buf->Down(buf->Root());
  EXPECT_TRUE(z0.has_value());
  std::optional<NodeId> p = buf->Right(*z0);
  EXPECT_TRUE(p.has_value());
  EXPECT_TRUE(buf->Down(*p).has_value());
  std::vector<NodeId> children;
  buf->DownAll(*p, &children);
  return testing::MaterializeToTerm(buf);
}

TEST(BreadthReadaheadTest, FlightWhoseMiddleHoleIsFilledFirstIsOrphanedWhole) {
  // A cache splice never meets a flight's hole first (ConsumeInflight runs
  // before every cache lookup); a demand batch that set the hole aside
  // before the flight was issued does. Filled or degraded, the flight is
  // dropped unread, without a fallback, and its other holes are demand
  // filled when reached.
  ScriptedLxpWrapper baseline_script("r", MiddleHoleScript());
  BufferComponent baseline(&baseline_script, "u");
  const std::string filled = NavigateMiddleHoleScript(&baseline);
  ASSERT_NE(filled.find("p[e0,e3,e2[e4],e1,e5]"), std::string::npos);

  for (bool degrade : {false, true}) {
    ScriptedLxpWrapper script("r", MiddleHoleScript());
    SelectiveFailWrapper failing(&script, degrade ? "x" : "none");
    FlightLogWrapper wrapper(&failing);
    BufferComponent::Options opts;
    opts.max_in_flight = 4;
    BufferComponent buf(&wrapper, "u", opts);
    // Degraded, x alone turns #unavailable: y came by its flight, so the
    // failed demand batch carried x only.
    std::string expected = filled;
    if (degrade) expected.replace(expected.find("e3"), 2, "#unavailable");
    EXPECT_EQ(NavigateMiddleHoleScript(&buf), expected) << "degrade=" << degrade;
    const std::vector<std::vector<std::string>> flights = {
        {"s"},        {"z", "a"},           {"y", "b1"},      {"b2", "b3"},
        {"b4", "b5"}, {"b6", "b7", "b8", "b9"}, {"b10", "x", "q"}};
    EXPECT_EQ(wrapper.flights, flights) << "degrade=" << degrade;
    // x on the demand batch, then q and b10 on demand when reached.
    EXPECT_EQ(wrapper.demand_holes,
              (std::vector<std::string>{"r", "x", "q", "b10"}))
        << "degrade=" << degrade;
    BufferComponent::Stats st = buf.stats();
    EXPECT_EQ(st.readahead_issued, 7);
    EXPECT_EQ(st.readahead_hits, 6);
    EXPECT_EQ(st.readahead_orphaned, 1);
    EXPECT_EQ(st.readahead_fallbacks, 0);
    EXPECT_EQ(st.fills, baseline.stats().fills - (degrade ? 1 : 0));
    EXPECT_EQ(st.degraded_holes, degrade ? 1 : 0);
  }
}

TEST(BreadthReadaheadTest, SpoiledEntryRejectsTheWholeMultiHoleFlight) {
  constexpr int kHomes = 12;
  auto homes = testing::Doc(WideHomesTerm(kHomes));
  wrappers::XmlLxpWrapper baseline_inner(homes.get());
  BufferComponent baseline(&baseline_inner, "homes.xml");
  const std::vector<std::string> expected = OpenTreeTrace(&baseline);

  wrappers::XmlLxpWrapper inner(homes.get());
  FlightLogWrapper wrapper(&inner);
  wrapper.spoil_multi_hole_flights = true;
  BufferComponent::Options opts;
  opts.max_in_flight = 4;
  BufferComponent buf(&wrapper, "homes.xml", opts);
  const std::vector<std::string> trace = OpenTreeTrace(&buf);
  EXPECT_TRUE(FollowsBaseline(trace, expected));
  EXPECT_EQ(trace.back(), expected.back());

  // Every flight of two or more holes was rejected before any of its
  // entries spliced: each of its holes — the one whose entry was sound
  // too — reached the wrapper again as a demand fill.
  int64_t spoiled = 0;
  for (const std::vector<std::string>& flight : wrapper.flights) {
    if (flight.size() < 2) continue;
    ++spoiled;
    for (const std::string& hole : flight) {
      EXPECT_NE(std::find(wrapper.demand_holes.begin(),
                          wrapper.demand_holes.end(), hole),
                wrapper.demand_holes.end())
          << hole;
    }
  }
  EXPECT_GT(spoiled, 0);
  BufferComponent::Stats st = buf.stats();
  EXPECT_EQ(st.readahead_fallbacks, spoiled);
  EXPECT_EQ(st.readahead_hits, st.readahead_issued - spoiled);
  EXPECT_EQ(st.fills, baseline.stats().fills);
  EXPECT_EQ(st.degraded_holes, 0);
  EXPECT_TRUE(buf.TakeStatus().ok());
}

TEST(BreadthReadaheadTest, ByteIdenticalUnderFaultMatrixAtWideWindows) {
  for (int window : {4, 8}) {
    BufferComponent::Stats total = ExpectByteIdenticalUnderFaultMatrix(window);
    EXPECT_GT(total.faults, 0) << "window=" << window;
    // Some flights carried several holes, and some fell back.
    EXPECT_GT(total.readahead_holes, total.readahead_issued)
        << "window=" << window;
    EXPECT_GT(total.readahead_fallbacks, 0) << "window=" << window;
  }
}

TEST(ReadaheadTest, ServiceAnswerByteIdenticalWithPerSourceWindows) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.max_in_flight = 2;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] { return std::make_unique<wrappers::XmlLxpWrapper>(homes.get()); },
      "homes.xml", wo);
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml", wo);
  MediatorService service(&env, {});

  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer);
  EXPECT_TRUE(doc->last_status().ok());

  auto session = service.registry().Find(doc->session_id());
  ASSERT_NE(session, nullptr);
  session->RefreshSourceMetrics();
  EXPECT_NE(session->metrics().ToString().find("async{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TcpFrameTransport::RoundTripAsync — the native async seam.
// ---------------------------------------------------------------------------

/// Environment exporting one wide homes wrapper for remote LXP.
class ExportFixture {
 public:
  ExportFixture()
      : homes_(testing::Doc(WideHomesTerm(24))), wrapper_(homes_.get()) {
    env_.ExportWrapper("homes.xml", &wrapper_);
  }
  SessionEnvironment& env() { return env_; }
  const xml::Document* doc() const { return homes_.get(); }

 private:
  std::unique_ptr<xml::Document> homes_;
  wrappers::XmlLxpWrapper wrapper_;
  SessionEnvironment env_;
};

TEST(TcpAsyncTest, RemoteBufferWithReadaheadMatchesLocal) {
  ExportFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  wrappers::XmlLxpWrapper local(fx.doc());
  BufferComponent baseline(&local, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  wire::FramedLxpWrapper remote(&transport, "homes.xml");
  BufferComponent::Options opts;
  opts.max_in_flight = 4;
  BufferComponent buf(&remote, "homes.xml", opts);

  // Concurrent in-flight exchanges over a real socket change nothing about
  // the answer; the dispatch thread really ran them.
  EXPECT_EQ(testing::MaterializeToTerm(&buf), expected);
  EXPECT_GT(buf.stats().readahead_hits, 0);
  EXPECT_GT(transport.async_ops(), 0);
  EXPECT_GT(transport.async_batches(), 0);
  server.Stop();
}

TEST(TcpAsyncTest, ConcurrentOpsCompleteExactlyOnceAndCoalesce) {
  ExportFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);

  Frame root;
  root.type = MsgType::kLxpGetRoot;
  root.text = "homes.xml";
  const std::string request = wire::EncodeFrame(root);

  constexpr int kOps = 64;
  std::mutex mu;
  std::condition_variable cv;
  int completions = 0;
  int ok = 0;
  for (int i = 0; i < kOps; ++i) {
    transport.RoundTripAsync(request, [&](Result<std::string> r) {
      std::lock_guard<std::mutex> lock(mu);
      ++completions;
      if (r.ok()) {
        Result<Frame> decoded = wire::DecodeFrame(r.value());
        if (decoded.ok() && decoded.value().type == MsgType::kLxpRoot) ++ok;
      }
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completions == kOps; }));
    EXPECT_EQ(ok, kOps);
  }
  EXPECT_EQ(transport.async_ops(), kOps);
  // Ops submitted while an exchange held the wire were coalesced into
  // pipelined batches — strictly fewer wire turnarounds than ops.
  EXPECT_LT(transport.async_batches(), kOps);
  EXPECT_GE(transport.async_batches(), 1);
  server.Stop();
}

/// Internally locked wrapper, as required by concurrent export. `delay`
/// models a slow source: each exchange sleeps outside the lock, so
/// concurrent exchanges overlap it.
class LockedXmlWrapper : public buffer::LxpWrapper {
 public:
  explicit LockedXmlWrapper(const xml::Document* doc,
                            std::chrono::microseconds delay = {})
      : inner_(doc), delay_(delay) {}
  std::string GetRoot(const std::string& uri) override {
    std::this_thread::sleep_for(delay_);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    std::this_thread::sleep_for(delay_);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    std::this_thread::sleep_for(delay_);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.FillMany(holes, budget);
  }

 private:
  std::mutex mu_;
  wrappers::XmlLxpWrapper inner_;
  std::chrono::microseconds delay_;
};

TEST(TcpAsyncTest, ConcurrentExportStaysByteIdentical) {
  // ExportWrapper(..., concurrent = true) drops the per-wrapper lane: each
  // exchange runs on its own executor key, so pipelined fills overlap on
  // the worker pool. Answers must not change (and TSan watches the lock).
  auto homes = testing::Doc(WideHomesTerm(24));
  LockedXmlWrapper wrapper(homes.get());
  SessionEnvironment env;
  env.ExportWrapper("homes.xml", &wrapper, /*concurrent=*/true);
  MediatorService::Options sopts;
  sopts.workers = 4;
  MediatorService service(&env, sopts);
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  wrappers::XmlLxpWrapper local(homes.get());
  BufferComponent baseline(&local, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  wire::FramedLxpWrapper remote(&transport, "homes.xml");
  BufferComponent::Options opts;
  opts.max_in_flight = 6;
  BufferComponent buf(&remote, "homes.xml", opts);
  EXPECT_EQ(testing::MaterializeToTerm(&buf), expected);
  EXPECT_GT(buf.stats().readahead_hits, 0);
  server.Stop();
}

TEST(TcpAsyncTest, DestructionFailsPendingOpsExactlyOnce) {
  // Port from a listener that never accepts work: connect() will stall or
  // fail, keeping ops pending long enough for the destructor to claim them.
  std::atomic<int> completions{0};
  {
    TcpTransportOptions copts;
    copts.port = 1;  // nothing listens here
    copts.connect_timeout_ns = 50'000'000;
    copts.auto_reconnect = false;
    TcpFrameTransport transport(copts);
    for (int i = 0; i < 8; ++i) {
      transport.RoundTripAsync("junk", [&](Result<std::string> r) {
        EXPECT_FALSE(r.ok());
        completions.fetch_add(1);
      });
    }
    // Destructor: stops the dispatch thread, fails undispatched ops.
  }
  EXPECT_EQ(completions.load(), 8);
}

TEST(TcpAsyncTest, SessionCloseCancelsFlightsCleanly) {
  // A slow remote source keeps readahead flights in the air when the
  // session closes: the buffer abandons them, the transport completes or
  // fails them into their own shared state, and nothing touches the
  // destroyed session (ASan watches the lifetimes, TSan the threads).
  auto homes = testing::Doc(WideHomesTerm(40));
  LockedXmlWrapper slow(homes.get(), std::chrono::milliseconds(2));
  SessionEnvironment backend_env;
  backend_env.ExportWrapper("homes.xml", &slow, /*concurrent=*/true);
  MediatorService::Options backend_opts;
  backend_opts.workers = 4;
  MediatorService backend(&backend_env, backend_opts);
  TcpServer server(&backend, {});
  ASSERT_TRUE(server.Start().ok());

  std::string expected;
  {
    SessionEnvironment local_env;
    local_env.RegisterWrapperFactory(
        "homesSrc",
        [&homes] {
          return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
        },
        "homes.xml");
    MediatorService local(&local_env, {});
    auto doc = FramedDocument::Open(&local, kScanQuery).ValueOrDie();
    expected = testing::MaterializeToTerm(doc.get());
  }

  TcpTransportOptions copts;
  copts.port = server.port();
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.max_in_flight = 4;
  env.RegisterWrapperFactory(
      "homesSrc",
      [copts] {
        // An LXP source behind its own TCP connection — the per-session
        // wrapper a mediator builds for a source another mixd exports.
        return std::make_unique<wire::FramedLxpWrapper>(
            std::make_unique<TcpFrameTransport>(copts), "homes.xml");
      },
      "homes.xml", wo);
  MediatorService service(&env, {});

  for (int round = 0; round < 4; ++round) {
    auto doc = FramedDocument::Open(&service, kScanQuery).ValueOrDie();
    NodeId root = doc->Root();
    ASSERT_TRUE(root.valid());
    ASSERT_TRUE(doc->Down(root).has_value());
    auto session = service.registry().Find(doc->session_id());
    ASSERT_NE(session, nullptr);
    session->RefreshSourceMetrics();
    const SessionMetrics& m = session->metrics();
    // Flights are outstanding: issued but neither consumed nor fallen back.
    EXPECT_GT(m.readahead_issued, m.readahead_hits + m.readahead_fallbacks);
    session.reset();
    EXPECT_TRUE(service.registry().Close(doc->session_id()).ok());
  }
  auto doc = FramedDocument::Open(&service, kScanQuery).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), expected);
  EXPECT_TRUE(doc->last_status().ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Thread-safe sim-net accounting.
// ---------------------------------------------------------------------------

TEST(ConcurrentChannelTest, SendTotalsAreExactUnderContention) {
  net::SimClock clock;
  net::Channel channel(&clock, {});
  constexpr int kThreads = 4;
  constexpr int kSendsPerThread = 1000;
  constexpr int64_t kBytes = 64;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&channel] {
      for (int i = 0; i < kSendsPerThread; ++i) channel.Send(kBytes);
    });
  }
  for (std::thread& t : threads) t.join();

  net::ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.messages, kThreads * kSendsPerThread);
  EXPECT_EQ(stats.bytes, int64_t{kThreads} * kSendsPerThread * kBytes);
  EXPECT_GT(clock.now_ns(), 0);
}

}  // namespace
}  // namespace mix::service
